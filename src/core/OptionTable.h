//===- core/OptionTable.h - The request option schema ---------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One table row per `option KEY=VALUE` request key: its value kind and
/// range, the ToolOptions member it writes, and whether the warm analysis
/// state depends on it. The daemon's option parser, its cache-key text and
/// its warm-state key text are derived from the rows (and ssp-adapt parses
/// `--feedback=N` and `--spec-deps=T` through them), so no key can be
/// parsed without being keyed. Defaults are not a column: they stay the
/// member initialisers of ToolOptions, SliceOptions and FeedbackPolicy.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_CORE_OPTIONTABLE_H
#define SSP_CORE_OPTIONTABLE_H

#include "core/PostPassTool.h"

#include <cstdint>
#include <span>
#include <string>

namespace ssp::core {

enum class OptionKind {
  Bool,     ///< `0`, `1`, `false` or `true`.
  Uint,     ///< A base-10 unsigned integer in [Min, Max].
  Fraction, ///< A finite real number in [0, 1].
};

/// The member a row reads and writes: B for Bool rows, D for Fraction
/// rows, U32 or U64 (by the member's width) for Uint rows.
struct OptionField {
  bool *B = nullptr;
  unsigned *U32 = nullptr;
  uint64_t *U64 = nullptr;
  double *D = nullptr;
};

struct OptionRow {
  const char *Key;
  OptionKind Kind;
  bool Analysis; ///< Part of the warm-state key (all rows key the cache).
  OptionField (*Field)(ToolOptions &);
  uint64_t Min = 0, Max = 0; ///< Inclusive range of a Uint row.
};

/// Every request key, in strictly ascending key order.
std::span<const OptionRow> optionTable();

/// Applies one `option KEY=VALUE` to \p TO. On an unknown key or a bad
/// value, leaves \p TO unchanged, sets \p Msg and returns false.
bool applyOption(ToolOptions &TO, const std::string &Key,
                 const std::string &Value, std::string &Msg);

/// `key=value` lines for every row, in table order (doubles as `%.17g`).
std::string canonicalOptionsText(const ToolOptions &TO);

/// The same lines for the rows marked Analysis only.
std::string analysisOptionsText(const ToolOptions &TO);

} // namespace ssp::core

#endif // SSP_CORE_OPTIONTABLE_H
