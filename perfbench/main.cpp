//===- perfbench/main.cpp - Benchmark entry point -------------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///
/// Runs one workload for at least S seconds of timed passes (and at least
/// two passes, so every simulated figure is checked to repeat exactly),
/// then prints one JSON line with the output-check verdict, the operation
/// counts and every metric the workload measured. With --trace 1 the
/// per-layer spans are taken and reported as well. perfbench/run.py
/// builds this binary and selects the metrics BENCHMARK.json declares.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace ssp::perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "suite-oneshot|serve-mixed|feedback-loop --seed N "
               "--seconds S --trace 0|1\n",
               Why);
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  if (!S || !*S || *S == '-')
    return false;
  Out = std::strtoull(S, &End, 10);
  return *End == '\0';
}

} // namespace

int main(int argc, char **argv) {
  RunOptions O;
  uint64_t Seconds = 10, Trace = 0;
  for (int I = 1; I < argc; ++I) {
    const char *Flag = argv[I];
    const char *Val = I + 1 < argc ? argv[I + 1] : nullptr;
    if (!Val)
      return usage("missing value");
    ++I;
    if (!std::strcmp(Flag, "--workload"))
      O.Workload = Val;
    else if (!std::strcmp(Flag, "--seed")) {
      if (!parseU64(Val, O.Seed))
        return usage("bad --seed");
    } else if (!std::strcmp(Flag, "--seconds")) {
      if (!parseU64(Val, Seconds) || Seconds < 1 || Seconds > 3600)
        return usage("bad --seconds");
    } else if (!std::strcmp(Flag, "--trace")) {
      if (!parseU64(Val, Trace) || Trace > 1)
        return usage("bad --trace");
    } else {
      return usage("unknown flag");
    }
  }
  O.Seconds = static_cast<double>(Seconds);
  O.Trace = Trace == 1;

  RunResult R;
  if (O.Workload == "suite-oneshot")
    runSuiteOneshot(O, R);
  else if (O.Workload == "serve-mixed")
    runServeMixed(O, R);
  else if (O.Workload == "feedback-loop")
    runFeedbackLoop(O, R);
  else
    return usage("unknown workload");

  std::string Out = "{\"correct\": " +
                    std::string(R.Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(R.Attempted) +
                    ", \"failed\": " + std::to_string(R.Failed) +
                    ", \"metrics\": {";
  bool FirstMetric = true;
  for (const auto &[Name, M] : R.Metrics) {
    if (!std::isfinite(M.Value)) {
      std::fprintf(stderr, "error: metric %s is not finite\n", Name.c_str());
      return 1;
    }
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    Out += std::string(FirstMetric ? "" : ", ") + "\"" + Name +
           "\": {\"value\": " + Buf + ", \"unit\": \"" + M.Unit + "\"}";
    FirstMetric = false;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  return 0;
}
