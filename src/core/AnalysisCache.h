//===- core/AnalysisCache.h - Shared adaptation analyses ------------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// All analyses the adaptation pipeline consumes, in two layers:
///
///  * ProgramAnalyses, the program layer, holds what depends only on the
///    program and its profile: per-function CFG/dominators/loops/reaching-
///    defs (inside ProgramDeps), the region graph, the call graph, and the
///    region-height table (per-function call costs plus each region's
///    main-thread height).
///  * AnalysisCache, the option layer, holds what the analysis options
///    change: the speculative-dependence classifier, the slicer with its
///    callee summaries, and the scheduler. It refers to its program layer
///    through a shared_ptr, so several option states of one program (the
///    serving daemon's warm states) share one program layer, which lives
///    as long as one of them does.
///
/// Candidate generation for every delinquent load reads one AnalysisCache
/// — serially or from ThreadPool workers — instead of rebuilding analyses
/// per candidate.
///
/// Ownership and thread-safety contract: the caller keeps the program and
/// profile alive as long as the layers built over them. Everything but the
/// region heights is built by the constructors and immutable afterwards,
/// so workers share both layers by const reference with no locking. The
/// region heights are filled on first use, one atomic slot per region;
/// threads racing on an empty slot compute the same value from immutable
/// inputs, so no lock is needed there either. The only other mutable
/// per-worker state (slicer scratch buffers) lives in the cheap Slicer
/// copies makeSlicer() hands out, which share the summary table.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_CORE_ANALYSISCACHE_H
#define SSP_CORE_ANALYSISCACHE_H

#include "analysis/CallGraph.h"
#include "analysis/DependenceGraph.h"
#include "analysis/RegionGraph.h"
#include "sched/Scheduler.h"
#include "slicer/Slicer.h"

#include <memory>

namespace ssp::core {

/// The program layer: analyses of one (program, profile) pair that no
/// option changes.
class ProgramAnalyses {
public:
  ProgramAnalyses(const ir::Program &P, const profile::ProfileData &PD)
      : PD(PD), Deps(P), Regions(analysis::RegionGraph::build(Deps)),
        Calls(analysis::CallGraph::build(P, PD.IndirectTargets,
                                         PD.CallSiteCounts)),
        Heights(Deps, Regions, PD) {}

  ProgramAnalyses(const ProgramAnalyses &) = delete;
  ProgramAnalyses &operator=(const ProgramAnalyses &) = delete;

  const profile::ProfileData &profile() const { return PD; }
  const analysis::ProgramDeps &deps() const { return Deps; }
  const analysis::RegionGraph &regions() const { return Regions; }
  const analysis::CallGraph &calls() const { return Calls; }
  const sched::RegionHeights &heights() const { return Heights; }

private:
  const profile::ProfileData &PD;
  analysis::ProgramDeps Deps;
  analysis::RegionGraph Regions;
  analysis::CallGraph Calls;
  sched::RegionHeights Heights;
};

/// The option layer over one ProgramAnalyses.
class AnalysisCache {
public:
  /// Builds both layers over \p P and \p PD.
  AnalysisCache(const ir::Program &P, const profile::ProfileData &PD,
                slicer::SliceOptions SliceOpts,
                sched::ScheduleOptions SchedOpts,
                analysis::SpecDepOptions SpecOpts = {})
      : AnalysisCache(std::make_shared<const ProgramAnalyses>(P, PD),
                      SliceOpts, SchedOpts, SpecOpts) {}

  /// Builds the option layer over an existing program layer.
  AnalysisCache(std::shared_ptr<const ProgramAnalyses> Program,
                slicer::SliceOptions SliceOpts,
                sched::ScheduleOptions SchedOpts,
                analysis::SpecDepOptions SpecOpts = {})
      : Prog(std::move(Program)),
        Spec(Prog->deps(), SpecOpts, Prog->profile().depEvidence()),
        MasterSlicer(Prog->deps(), Prog->regions(), Prog->calls(),
                     Prog->profile(), SliceOpts, &Spec),
        Scheduler(std::shared_ptr<const sched::RegionHeights>(
                      Prog, &Prog->heights()),
                  SchedOpts, &Spec) {
    MasterSlicer.ensureSummaries();
  }

  AnalysisCache(const AnalysisCache &) = delete;
  AnalysisCache &operator=(const AnalysisCache &) = delete;

  const analysis::ProgramDeps &deps() const { return Prog->deps(); }
  const analysis::RegionGraph &regions() const { return Prog->regions(); }
  const analysis::CallGraph &calls() const { return Prog->calls(); }

  /// Speculation-aware dependence classifier over this program and
  /// profile. Disabled (classifies nothing cold) unless the cache was
  /// built with SpecDepOptions::Enabled and the profile has evidence.
  const analysis::SpecDeps &specDeps() const { return Spec; }

  /// A worker-private slicer sharing the precomputed summary table.
  slicer::Slicer makeSlicer() const { return MasterSlicer; }

  /// The scheduler; schedule() is const, so workers share it.
  const sched::SliceScheduler &scheduler() const { return Scheduler; }

private:
  std::shared_ptr<const ProgramAnalyses> Prog; ///< First: outlives the rest.
  analysis::SpecDeps Spec; ///< Before the slicer/scheduler: they point at it.
  slicer::Slicer MasterSlicer;
  sched::SliceScheduler Scheduler;
};

} // namespace ssp::core

#endif // SSP_CORE_ANALYSISCACHE_H
