//===- sim/SimStats.h - Simulation statistics ------------------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statistics collected by one simulation run. CycleCat reproduces the six
/// cycle-accounting categories of the paper's Figure 10: L3/L2/L1 denote
/// stall cycles attributed to misses *of* that cache level (e.g. the "L3"
/// category counts cycles stalled on loads that missed in L3 and were
/// served by memory) while no instruction issued; Cache+Exec counts cycles
/// where the main thread issued while a demand miss was outstanding; Exec
/// counts issue cycles with no outstanding miss; Other covers branch
/// bubbles, spawn flushes and every remaining stall.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_SIM_SIMSTATS_H
#define SSP_SIM_SIMSTATS_H

#include "cache/Cache.h"

#include <cstdint>
#include <vector>

namespace ssp::sim {

/// Figure 10 cycle categories.
enum class CycleCat : uint8_t {
  L3 = 0,        ///< Stalled on a load served by memory (missed L3).
  L2 = 1,        ///< Stalled on a load served by L3 (missed L2).
  L1 = 2,        ///< Stalled on a load served by L2 (missed L1).
  CacheExec = 3, ///< Issued while a demand miss was outstanding.
  Exec = 4,      ///< Issued with no outstanding miss.
  Other = 5      ///< Branch bubbles, spawn flushes, other stalls.
};
inline constexpr unsigned NumCycleCats = 6;

inline const char *cycleCatName(CycleCat C) {
  switch (C) {
  case CycleCat::L3:
    return "L3";
  case CycleCat::L2:
    return "L2";
  case CycleCat::L1:
    return "L1";
  case CycleCat::CacheExec:
    return "Cache+Exec";
  case CycleCat::Exec:
    return "Exec";
  case CycleCat::Other:
    return "Other";
  }
  return "?";
}

/// Lifecycle fate of one attributed speculative prefetch (one fate per
/// speculative data access whose thread has a known origin trigger).
enum class PrefetchFate : uint8_t {
  UsefulTimely = 0,  ///< Consumed while fully present (no memory trip).
  UsefulLate = 1,    ///< Consumed while still in flight (partial overlap).
  EvictedUnused = 2, ///< Tracked but evicted/lapsed before any use.
  Redundant = 3,     ///< Line was already near (L1/L2) or re-prefetched.
  Wild = 4,          ///< Speculative access of an unmapped address.
};
inline constexpr unsigned NumPrefetchFates = 5;

inline const char *prefetchFateName(PrefetchFate F) {
  switch (F) {
  case PrefetchFate::UsefulTimely:
    return "useful-timely";
  case PrefetchFate::UsefulLate:
    return "useful-late";
  case PrefetchFate::EvictedUnused:
    return "evicted-unused";
  case PrefetchFate::Redundant:
    return "redundant";
  case PrefetchFate::Wild:
    return "wild";
  }
  return "?";
}

/// Per-trigger rollup of the prefetch lifecycle (the rows behind
/// `ssp-sim --report=attrib`, mirroring Figure 9 / Table 2). Trigger and
/// Slice are ir::StaticId values kept as raw uint64 so this header stays
/// below ir/ in the dependency order.
struct PrefetchAttribution {
  uint64_t Trigger = 0;      ///< StaticId of the chk.c trigger.
  uint64_t Slice = 0;        ///< StaticId of the spawned slice's first inst.
  uint64_t Spawns = 0;       ///< Speculative threads this trigger spawned.
  uint32_t MaxChainDepth = 0; ///< Deepest spawn chain observed.
  uint64_t Fates[NumPrefetchFates] = {0, 0, 0, 0, 0};
  /// Timeliness slack shortfall: cycles the main thread still paid on
  /// useful-late consumptions (the residual latency of the in-flight
  /// line). 0 when every useful prefetch was fully timely; large values
  /// mean the trigger fires too close to the consumption — the signal
  /// the feedback policy's hoist action keys on.
  uint64_t LateCycles = 0;

  uint64_t prefetches() const {
    uint64_t N = 0;
    for (uint64_t F : Fates)
      N += F;
    return N;
  }
  uint64_t useful() const {
    return Fates[static_cast<unsigned>(PrefetchFate::UsefulTimely)] +
           Fates[static_cast<unsigned>(PrefetchFate::UsefulLate)];
  }
};

/// All counters produced by Simulator::run().
struct SimStats {
  uint64_t Cycles = 0;          ///< Cycles until the main thread halted.
  uint64_t MainInsts = 0;       ///< Instructions issued by the main thread.
  uint64_t SpecInsts = 0;       ///< Instructions issued by prefetch threads.
  uint64_t CatCycles[NumCycleCats] = {0, 0, 0, 0, 0, 0};

  // SSP event counters.
  uint64_t TriggersFired = 0;   ///< chk.c raised the spawn exception.
  uint64_t TriggersIgnored = 0; ///< chk.c saw no free context (acted as nop).
  uint64_t SpawnsSucceeded = 0; ///< Spawn found a free context.
  uint64_t SpawnsDropped = 0;   ///< Spawn request ignored (no free context).
  uint64_t SpecWildLoads = 0;   ///< Speculative loads of unmapped addresses.
  uint64_t SpecPrefetches = 0;  ///< Lines touched by speculative threads.
  uint64_t UsefulPrefetches = 0; ///< ... later consumed timely by main.
  uint64_t ThrottleEvents = 0;  ///< Triggers dynamically disabled.
  uint64_t StreamActivations = 0; ///< Triggers served by the stream engine.
  uint64_t StreamSteps = 0;       ///< Descriptor steps the engine advanced.

  // Branch prediction.
  uint64_t Branches = 0;
  uint64_t BranchMispredicts = 0;

  // Simulator diagnostics (NOT architectural: these describe how the
  // simulator ran, differ between skip and --no-skip modes by design, and
  // are excluded from the skip_test differential comparison).
  uint64_t SkippedCycles = 0; ///< Idle cycles accounted in bulk, not ticked.
  uint64_t SkipEvents = 0;    ///< Number of idle spans jumped over.

  // Sampled-simulation diagnostics (also non-architectural; zero on
  // unsampled runs). When Sampled is set, Cycles, CatCycles, the SSP/
  // branch/cache counters and Attribution are extrapolated from the
  // detailed intervals; MainInsts is counted (detailed plus functional),
  // not extrapolated, and LoadProfile covers the detailed intervals only.
  // MainInsts can still differ from the exact run's: an exact OOO run ends
  // when the main thread's halt issues, up to 17 instructions early, and a
  // sampled run of an adapted binary skips the trigger stubs outside
  // detailed intervals (DESIGN.md "Sampled simulation").
  bool Sampled = false;           ///< Run used a SamplingPlan.
  uint64_t SampleIntervals = 0;   ///< Measured detailed intervals executed.
  uint64_t SampleDetailInsts = 0; ///< Main insts in measured detail.
  uint64_t SampleFunctionalInsts = 0; ///< Main insts executed functionally.
  uint64_t SampleRampInsts = 0; ///< Main insts in unmeasured detailed ramp.

  // Memory system (global + per-static-load).
  cache::CacheHierarchy::Totals CacheTotals;
  cache::CacheProfile LoadProfile;

  // Prefetch-lifecycle attribution: one entry per origin trigger, in
  // first-spawn order (deterministic). Every attributed speculative
  // access lands in exactly one fate bucket, so
  //   UsefulPrefetches == sum over entries of useful()
  // holds by construction (pinned in tests/sim_test.cpp).
  std::vector<PrefetchAttribution> Attribution;

  uint64_t attributedPrefetches() const {
    uint64_t N = 0;
    for (const PrefetchAttribution &A : Attribution)
      N += A.prefetches();
    return N;
  }

  double ipc() const {
    return Cycles == 0 ? 0.0
                       : static_cast<double>(MainInsts) /
                             static_cast<double>(Cycles);
  }
};

} // namespace ssp::sim

#endif // SSP_SIM_SIMSTATS_H
