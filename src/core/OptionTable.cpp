//===- core/OptionTable.cpp - The request option schema -------------------===//

#include "core/OptionTable.h"

#include "support/Args.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>

using namespace ssp;
using namespace ssp::core;

namespace {

OptionField bind(bool &V) { return {.B = &V}; }
OptionField bind(unsigned &V) { return {.U32 = &V}; }
OptionField bind(uint64_t &V) { return {.U64 = &V}; }
OptionField bind(double &V) { return {.D = &V}; }

/// The member at the end of a member-pointer path: at<&O::Slicing,
/// &SO::MaxSize> reaches TO.Slicing.MaxSize.
template <auto... Path> OptionField at(ToolOptions &TO) {
  return bind((TO .* ... .* Path));
}

using O = ToolOptions;
using FP = FeedbackPolicy;
using SO = slicer::SliceOptions;
using enum OptionKind;
constexpr uint64_t NoMax = std::numeric_limits<uint64_t>::max();

/// Serving-level settings (jobs, cache and warm budgets, metrics) are
/// daemon flags, not rows, so they can never split the cache key. The
/// feedback rows key the result cache although the one-shot tool ignores
/// them: with feedback-rounds > 0 the served binary is the loop's fixpoint.
const OptionRow Table[] = {
    // Key, kind, warm-state key?, member[, Uint range].
    {"chaining", Bool, false, at<&O::EnableChaining>},
    {"cond-prediction", Bool, true, at<&O::EnableConditionPrediction>},
    {"coverage", Fraction, false, at<&O::DelinquentCoverage>},
    {"cutoff", Fraction, false, at<&O::ReducedMissCutoff>},
    {"feedback-deepen-late", Fraction, false,
     at<&O::Feedback, &FP::DeepenLateMax>},
    {"feedback-drop-max", Fraction, false,
     at<&O::Feedback, &FP::DropUsefulMax>},
    {"feedback-hoist-late", Fraction, false,
     at<&O::Feedback, &FP::HoistLateMin>},
    {"feedback-min-sample", Uint, false, at<&O::Feedback, &FP::MinSample>,
     0, NoMax},
    {"feedback-rounds", Uint, false, at<&O::FeedbackRounds>, 0, 64},
    {"feedback-throttle-evicted", Fraction, false,
     at<&O::Feedback, &FP::ThrottleEvictedMin>},
    {"inner-unroll", Uint, false, at<&O::InnerUnroll>, 1, 64},
    {"loop-rotation", Bool, true, at<&O::EnableLoopRotation>},
    {"max-depth", Uint, false, at<&O::MaxRegionDepth>, 1, 64},
    {"max-loads", Uint, false, at<&O::MaxDelinquentLoads>, 1, 4096},
    {"min-slack", Uint, false, at<&O::MinSlackCycles>, 0, NoMax},
    {"reject-store-dep", Bool, true,
     at<&O::Slicing, &SO::RejectStoreDependent>},
    {"restart-triggers", Bool, false, at<&O::EnableRestartTriggers>},
    {"slice-max", Uint, true, at<&O::Slicing, &SO::MaxSize>, 1, 4096},
    {"spec-deps", Bool, true, at<&O::EnableSpecDeps>},
    {"spec-threshold", Fraction, true, at<&O::SpecDepThreshold>},
    {"speculative", Bool, true, at<&O::EnableSpeculativeSlicing>},
    {"streams", Bool, false, at<&O::EnableStreams>},
    {"trip-budget", Uint, false, at<&O::MaxTripBudget>, 1, NoMax},
};

bool parseBool(const std::string &S, bool &Out) {
  if (S != "0" && S != "1" && S != "false" && S != "true")
    return false;
  Out = S == "1" || S == "true";
  return true;
}

bool parseFraction(const std::string &S, double &Out) {
  char *End = nullptr;
  double D = std::strtod(S.c_str(), &End);
  // The range test also rejects NaN and infinities.
  if (S.empty() || End != S.c_str() + S.size() || !(D >= 0.0 && D <= 1.0))
    return false;
  Out = D + 0.0; // -0 + 0 is +0: "-0" keys like "0".
  return true;
}

bool parseUint(const std::string &S, const OptionRow &R, OptionField F) {
  uint64_t U = 0;
  if (!support::parseUnsigned(S.c_str(), U) || U < R.Min || U > R.Max)
    return false;
  if (F.U32)
    *F.U32 = static_cast<unsigned>(U);
  else
    *F.U64 = U;
  return true;
}

/// The "expected ..." part of a row's error message.
std::string wanted(const OptionRow &R) {
  if (R.Kind != Uint)
    return R.Kind == Bool ? "0/1" : "a fraction in [0, 1]";
  if (R.Max == NoMax)
    return R.Min == 0 ? "an unsigned integer" : "a positive integer";
  return "an integer in [" + std::to_string(R.Min) + ", " +
         std::to_string(R.Max) + "]";
}

std::string render(const ToolOptions &TO, bool AnalysisOnly) {
  // The row accessors take a mutable ToolOptions; rendering only reads.
  ToolOptions &Src = const_cast<ToolOptions &>(TO);
  std::string S;
  S.reserve(512); // The full text is about 440 bytes: one allocation.
  char Buf[32];
  for (const OptionRow &R : Table) {
    if (AnalysisOnly && !R.Analysis)
      continue;
    OptionField F = R.Field(Src);
    S += R.Key;
    S += '=';
    switch (R.Kind) {
    case Bool:
      S += *F.B ? '1' : '0';
      break;
    case Uint:
      S.append(Buf, std::to_chars(Buf, std::end(Buf),
                                  F.U32 ? uint64_t(*F.U32) : *F.U64)
                        .ptr);
      break;
    case Fraction:
      S.append(Buf, static_cast<size_t>(
                        std::snprintf(Buf, sizeof(Buf), "%.17g", *F.D)));
      break;
    }
    S += '\n';
  }
  return S;
}

} // namespace

std::span<const OptionRow> core::optionTable() { return Table; }

bool core::applyOption(ToolOptions &TO, const std::string &Key,
                       const std::string &Value, std::string &Msg) {
  const OptionRow *R = std::lower_bound(
      std::begin(Table), std::end(Table), Key,
      [](const OptionRow &Row, const std::string &K) { return Row.Key < K; });
  if (R == std::end(Table) || Key != R->Key) {
    Msg = "option " + Key + ": unknown option";
    return false;
  }
  OptionField F = R->Field(TO);
  bool Ok = R->Kind == Bool       ? parseBool(Value, *F.B)
            : R->Kind == Fraction ? parseFraction(Value, *F.D)
                                  : parseUint(Value, *R, F);
  if (!Ok)
    Msg = "option " + Key + ": expected " + wanted(*R) + ", got '" + Value +
          "'";
  return Ok;
}

std::string core::canonicalOptionsText(const ToolOptions &TO) {
  return render(TO, false);
}

std::string core::analysisOptionsText(const ToolOptions &TO) {
  return render(TO, true);
}
