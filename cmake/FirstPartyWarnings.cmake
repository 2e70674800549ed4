# First-party code (src/ and tools/) is warning-clean and kept that way:
# include this file from a directory's CMakeLists.txt to build its targets
# with -Werror. Tests and bench binaries stay -Wall -Wextra without it.
add_compile_options(-Werror)

# GCC 12's -Wrestrict false-positives on inlined std::string
# concatenation at -O3 (GCC PR105651), which would fail -Werror Release
# builds in string-heavy code like the diagnostics renderers.
if(CMAKE_CXX_COMPILER_ID STREQUAL "GNU"
   AND CMAKE_CXX_COMPILER_VERSION VERSION_LESS 13)
  add_compile_options(-Wno-restrict)
endif()
