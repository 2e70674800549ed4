//===- tests/option_test.cpp - The request option table -------------------===//
//
// The option table (core/OptionTable.h) is the one source of the daemon's
// option parser, its result-cache key text and its warm-state key text.
// These tests pin both texts byte for byte and every key's error text, and
// check row by row that the parser and the two keys address the same
// ToolOptions member, so a knob can never be parsed without being keyed.
//
//===----------------------------------------------------------------------===//

#include "core/OptionTable.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstring>
#include <map>
#include <tuple>

using namespace ssp;
using namespace ssp::core;

namespace {

// The key texts of default options and of the serve-mixed benchmark's
// option variants. Its result cache is byte-budgeted and counts key
// bytes, so a one-byte change here moves its evictions.
const char *const DefaultCanonical =
    "chaining=1\n"
    "cond-prediction=1\n"
    "coverage=0.90000000000000002\n"
    "cutoff=0.29999999999999999\n"
    "feedback-deepen-late=0.29999999999999999\n"
    "feedback-drop-max=0.02\n"
    "feedback-hoist-late=0.5\n"
    "feedback-min-sample=256\n"
    "feedback-rounds=0\n"
    "feedback-throttle-evicted=0.25\n"
    "inner-unroll=2\n"
    "loop-rotation=1\n"
    "max-depth=4\n"
    "max-loads=10\n"
    "min-slack=16\n"
    "reject-store-dep=0\n"
    "restart-triggers=1\n"
    "slice-max=48\n"
    "spec-deps=0\n"
    "spec-threshold=0\n"
    "speculative=1\n"
    "streams=0\n"
    "trip-budget=4096\n";

const char *const StreamsCanonical =
    "chaining=1\n"
    "cond-prediction=1\n"
    "coverage=0.90000000000000002\n"
    "cutoff=0.29999999999999999\n"
    "feedback-deepen-late=0.29999999999999999\n"
    "feedback-drop-max=0.02\n"
    "feedback-hoist-late=0.5\n"
    "feedback-min-sample=256\n"
    "feedback-rounds=0\n"
    "feedback-throttle-evicted=0.25\n"
    "inner-unroll=2\n"
    "loop-rotation=1\n"
    "max-depth=4\n"
    "max-loads=10\n"
    "min-slack=16\n"
    "reject-store-dep=0\n"
    "restart-triggers=1\n"
    "slice-max=48\n"
    "spec-deps=0\n"
    "spec-threshold=0\n"
    "speculative=1\n"
    "streams=1\n"
    "trip-budget=4096\n";

const char *const SpecDepsCanonical =
    "chaining=1\n"
    "cond-prediction=1\n"
    "coverage=0.90000000000000002\n"
    "cutoff=0.29999999999999999\n"
    "feedback-deepen-late=0.29999999999999999\n"
    "feedback-drop-max=0.02\n"
    "feedback-hoist-late=0.5\n"
    "feedback-min-sample=256\n"
    "feedback-rounds=0\n"
    "feedback-throttle-evicted=0.25\n"
    "inner-unroll=2\n"
    "loop-rotation=1\n"
    "max-depth=4\n"
    "max-loads=10\n"
    "min-slack=16\n"
    "reject-store-dep=0\n"
    "restart-triggers=1\n"
    "slice-max=48\n"
    "spec-deps=1\n"
    "spec-threshold=0.050000000000000003\n"
    "speculative=1\n"
    "streams=0\n"
    "trip-budget=4096\n";

const char *const InnerUnrollCanonical =
    "chaining=1\n"
    "cond-prediction=1\n"
    "coverage=0.90000000000000002\n"
    "cutoff=0.29999999999999999\n"
    "feedback-deepen-late=0.29999999999999999\n"
    "feedback-drop-max=0.02\n"
    "feedback-hoist-late=0.5\n"
    "feedback-min-sample=256\n"
    "feedback-rounds=0\n"
    "feedback-throttle-evicted=0.25\n"
    "inner-unroll=4\n"
    "loop-rotation=1\n"
    "max-depth=4\n"
    "max-loads=10\n"
    "min-slack=16\n"
    "reject-store-dep=0\n"
    "restart-triggers=1\n"
    "slice-max=48\n"
    "spec-deps=0\n"
    "spec-threshold=0\n"
    "speculative=1\n"
    "streams=0\n"
    "trip-budget=4096\n";

const char *const DefaultAnalysis =
    "cond-prediction=1\n"
    "loop-rotation=1\n"
    "reject-store-dep=0\n"
    "slice-max=48\n"
    "spec-deps=0\n"
    "spec-threshold=0\n"
    "speculative=1\n";

const char *const SpecDepsAnalysis =
    "cond-prediction=1\n"
    "loop-rotation=1\n"
    "reject-store-dep=0\n"
    "slice-max=48\n"
    "spec-deps=1\n"
    "spec-threshold=0.050000000000000003\n"
    "speculative=1\n";

/// The "expected ..." text of each key's error message. Daemon error
/// responses carry these bytes, so they must not change.
const std::map<std::string, std::string> Wanted = {
    {"chaining", "0/1"},
    {"cond-prediction", "0/1"},
    {"coverage", "a fraction in [0, 1]"},
    {"cutoff", "a fraction in [0, 1]"},
    {"feedback-deepen-late", "a fraction in [0, 1]"},
    {"feedback-drop-max", "a fraction in [0, 1]"},
    {"feedback-hoist-late", "a fraction in [0, 1]"},
    {"feedback-min-sample", "an unsigned integer"},
    {"feedback-rounds", "an integer in [0, 64]"},
    {"feedback-throttle-evicted", "a fraction in [0, 1]"},
    {"inner-unroll", "an integer in [1, 64]"},
    {"loop-rotation", "0/1"},
    {"max-depth", "an integer in [1, 64]"},
    {"max-loads", "an integer in [1, 4096]"},
    {"min-slack", "an unsigned integer"},
    {"reject-store-dep", "0/1"},
    {"restart-triggers", "0/1"},
    {"slice-max", "an integer in [1, 4096]"},
    {"spec-deps", "0/1"},
    {"spec-threshold", "a fraction in [0, 1]"},
    {"speculative", "0/1"},
    {"streams", "0/1"},
    {"trip-budget", "a positive integer"},
};

ToolOptions withOptions(
    const std::vector<std::pair<std::string, std::string>> &Options) {
  ToolOptions TO;
  for (const auto &[Key, Value] : Options) {
    std::string Msg;
    EXPECT_TRUE(applyOption(TO, Key, Value, Msg)) << Msg;
  }
  return TO;
}

/// Everything the warm analysis state is built from.
auto analysisInputs(const ToolOptions &TO) {
  slicer::SliceOptions SO = PostPassTool::sliceOptionsOf(TO);
  sched::ScheduleOptions Sch = PostPassTool::scheduleOptionsOf(TO);
  analysis::SpecDepOptions Sp = PostPassTool::specDepOptionsOf(TO);
  return std::tuple(SO.Speculative, SO.RejectStoreDependent, SO.MaxSize,
                    Sch.EnableLoopRotation, Sch.EnableConditionPrediction,
                    Sch.SpawnOverheadBase, Sch.CopyLatency,
                    Sch.TriggerOverhead, Sp.Enabled, Sp.Threshold);
}

/// The value `Key=` renders as in a canonical text.
std::string renderedValue(const std::string &Text, const std::string &Key) {
  std::string Lines = "\n" + Text;
  size_t At = Lines.find("\n" + Key + "=");
  EXPECT_NE(At, std::string::npos) << Key;
  size_t Begin = At + Key.size() + 2;
  return Lines.substr(Begin, Lines.find('\n', Begin) - Begin);
}

/// A valid value of \p R other than its default.
std::string otherValue(const OptionRow &R, const std::string &Default) {
  if (R.Kind == OptionKind::Uint)
    return std::to_string(Default == std::to_string(R.Min) ? R.Min + 1
                                                           : R.Min);
  return Default == "1" ? "0" : "1";
}

/// Values just outside \p R's range.
std::vector<std::string> outsideValues(const OptionRow &R) {
  switch (R.Kind) {
  case OptionKind::Bool:
    return {"2", "-1"};
  case OptionKind::Fraction:
    return {"1.01", "-0.01"};
  case OptionKind::Uint:
    break;
  }
  std::vector<std::string> V;
  V.push_back(R.Min == 0 ? "-1" : std::to_string(R.Min - 1));
  V.push_back(R.Max == UINT64_MAX ? "18446744073709551616"
                                  : std::to_string(R.Max + 1));
  return V;
}

TEST(OptionTable, KeyTextsMatchTheGoldenTexts) {
  ToolOptions Default;
  EXPECT_EQ(canonicalOptionsText(Default), DefaultCanonical);
  EXPECT_EQ(analysisOptionsText(Default), DefaultAnalysis);

  ToolOptions Streams = withOptions({{"streams", "1"}});
  EXPECT_EQ(canonicalOptionsText(Streams), StreamsCanonical);
  EXPECT_EQ(analysisOptionsText(Streams), DefaultAnalysis);

  ToolOptions SpecDeps =
      withOptions({{"spec-deps", "1"}, {"spec-threshold", "0.05"}});
  EXPECT_EQ(canonicalOptionsText(SpecDeps), SpecDepsCanonical);
  EXPECT_EQ(analysisOptionsText(SpecDeps), SpecDepsAnalysis);

  ToolOptions InnerUnroll = withOptions({{"inner-unroll", "4"}});
  EXPECT_EQ(canonicalOptionsText(InnerUnroll), InnerUnrollCanonical);
  EXPECT_EQ(analysisOptionsText(InnerUnroll), DefaultAnalysis);
}

TEST(OptionTable, RowsAreUniqueAscendingAndTyped) {
  std::span<const OptionRow> Rows = optionTable();
  ASSERT_EQ(Rows.size(), Wanted.size());
  ToolOptions TO;
  for (size_t I = 0; I < Rows.size(); ++I) {
    const OptionRow &R = Rows[I];
    SCOPED_TRACE(R.Key);
    if (I > 0) {
      EXPECT_LT(std::strcmp(Rows[I - 1].Key, R.Key), 0);
    }
    OptionField F = R.Field(TO);
    int Set = (F.B != nullptr) + (F.U32 != nullptr) + (F.U64 != nullptr) +
              (F.D != nullptr);
    EXPECT_EQ(Set, 1);
    switch (R.Kind) {
    case OptionKind::Bool:
      EXPECT_NE(F.B, nullptr);
      break;
    case OptionKind::Fraction:
      EXPECT_NE(F.D, nullptr);
      break;
    case OptionKind::Uint:
      EXPECT_TRUE(F.U32 || F.U64);
      EXPECT_LE(R.Min, R.Max);
      if (F.U32) {
        EXPECT_LE(R.Max, uint64_t(UINT_MAX));
      }
      if (R.Max == UINT64_MAX) {
        EXPECT_LE(R.Min, 1u); // "an unsigned" or "a positive integer".
      }
      break;
    }
  }
}

TEST(OptionTable, EveryRowIsParsedAndKeyedThroughOneMember) {
  const ToolOptions Default;
  const std::string Canonical = canonicalOptionsText(Default);
  for (const OptionRow &R : optionTable()) {
    SCOPED_TRACE(R.Key);
    std::string Value = otherValue(R, renderedValue(Canonical, R.Key));
    ToolOptions TO = withOptions({{R.Key, Value}});
    EXPECT_NE(canonicalOptionsText(TO), Canonical);
    EXPECT_EQ(renderedValue(canonicalOptionsText(TO), R.Key), Value);
    bool AnalysisChanged =
        analysisOptionsText(TO) != analysisOptionsText(Default);
    bool InputsChanged = analysisInputs(TO) != analysisInputs(Default);
    EXPECT_EQ(AnalysisChanged, R.Analysis);
    EXPECT_EQ(InputsChanged, R.Analysis);
  }
}

TEST(OptionTable, BadValuesAreRejectedWithTheKeysMessage) {
  const std::string Canonical = canonicalOptionsText(ToolOptions());
  for (const OptionRow &R : optionTable()) {
    SCOPED_TRACE(R.Key);
    auto It = Wanted.find(R.Key);
    ASSERT_NE(It, Wanted.end());
    std::vector<std::string> Bad = outsideValues(R);
    Bad.push_back("x");
    Bad.push_back("");
    if (R.Kind != OptionKind::Fraction)
      Bad.push_back("+1");
    for (const std::string &V : Bad) {
      ToolOptions TO;
      std::string Msg;
      EXPECT_FALSE(applyOption(TO, R.Key, V, Msg)) << V;
      EXPECT_EQ(Msg, "option " + std::string(R.Key) + ": expected " +
                         It->second + ", got '" + V + "'");
      EXPECT_EQ(canonicalOptionsText(TO), Canonical) << V;
    }
  }
  ToolOptions TO;
  std::string Msg;
  EXPECT_FALSE(applyOption(TO, "jobs", "4", Msg));
  EXPECT_EQ(Msg, "option jobs: unknown option");
}

TEST(OptionTable, AcceptedSpellings) {
  EXPECT_EQ(canonicalOptionsText(withOptions({{"speculative", "false"}})),
            canonicalOptionsText(withOptions({{"speculative", "0"}})));
  EXPECT_EQ(canonicalOptionsText(withOptions({{"cutoff", "5e-1"}})),
            canonicalOptionsText(withOptions({{"cutoff", "0.5"}})));
  EXPECT_EQ(withOptions({{"feedback-rounds", "64"}}).FeedbackRounds, 64u);
  EXPECT_EQ(withOptions({{"trip-budget", "18446744073709551615"}})
                .MaxTripBudget,
            UINT64_MAX);
}

TEST(OptionTable, NegativeZeroKeysLikeZero) {
  // strtod accepts "-0" and it lies in [0, 1]; it must render as "0" so it
  // shares the result-cache key and the warm-state key of "0".
  for (const OptionRow &R : optionTable()) {
    if (R.Kind != OptionKind::Fraction)
      continue;
    SCOPED_TRACE(R.Key);
    ToolOptions Zero = withOptions({{R.Key, "0"}});
    ToolOptions NegZero = withOptions({{R.Key, "-0"}});
    EXPECT_EQ(canonicalOptionsText(NegZero), canonicalOptionsText(Zero));
    EXPECT_EQ(analysisOptionsText(NegZero), analysisOptionsText(Zero));
  }
}

} // namespace
