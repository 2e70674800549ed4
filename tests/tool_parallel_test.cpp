//===- tests/tool_parallel_test.cpp - parallel adaptation determinism -----===//
//
// Pins the tool's determinism contract: PostPassTool::adapt with
// ToolOptions::Jobs = 1, 4, and 8 must produce a byte-identical adaptation
// — the same report, the same emitted binary text — on all seven paper
// workloads plus a stress program, and every adapted binary must clear the
// verification pipeline with zero errors. Jobs = 1 is the inline serial
// path, so these tests also pin the parallel path against it. Client
// threads calling adaptWith on shared analysis layers (one lazily filled
// region-height table) must get the same bytes as well.
//
//===----------------------------------------------------------------------===//

#include "core/AnalysisCache.h"
#include "core/PostPassTool.h"
#include "workloads/Workload.h"

#include "ProfiledFixture.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <thread>

using namespace ssp;
using namespace ssp::workloads;
using namespace ssp::core;

namespace {

/// Every field of the report a job-count change could plausibly disturb,
/// rendered to text so mismatches show up as a readable diff.
std::string renderReport(const AdaptationReport &Rep) {
  std::ostringstream OS;
  OS << "delinquent=" << Rep.DelinquentLoads
     << " triggers=" << Rep.Rewrite.TriggersInserted
     << " stubs=" << Rep.Rewrite.StubBlocks
     << " sliceblocks=" << Rep.Rewrite.SliceBlocks
     << " sliceinsts=" << Rep.Rewrite.SliceInsts
     << " verify=" << Rep.VerifyErrors << "/" << Rep.VerifyWarnings << "\n";
  for (const SliceReport &S : Rep.Slices)
    OS << S.FunctionName << " @ " << S.Load.str() << ": size=" << S.Size
       << " livein=" << S.LiveIns << " interproc=" << S.Interprocedural
       << " model=" << sched::modelName(S.Model)
       << " pred=" << S.PredictedCondition << " depth=" << S.RegionDepth
       << " slack=" << S.SlackPerIteration << " ilp=" << S.AvailableILP
       << " trigcost=" << S.HeuristicTriggerCost << "/"
       << S.MinCutTriggerCost << " targets=" << S.Targets << "\n";
  return OS.str();
}

struct AdaptResult {
  std::string ReportText;
  std::string ProgramText;
  unsigned VerifyErrors = 0;
};

AdaptResult adaptWithJobs(const ProfiledWorkload &PW, unsigned Jobs,
                          const AnalysisCache *AC = nullptr,
                          bool SpecDeps = false) {
  ToolOptions Opts;
  Opts.Jobs = Jobs;
  Opts.FatalOnVerifyError = false; // Report errors through the test instead.
  Opts.EnableSpecDeps = SpecDeps;
  PostPassTool Tool(PW.P, PW.PD, Opts);
  AdaptationReport Rep;
  ir::Program Enhanced = Tool.adaptWith(AC, &Rep);
  return {renderReport(Rep), Enhanced.str(), Rep.VerifyErrors};
}

void expectIdenticalAcrossJobs(const Workload &W) {
  const ProfiledWorkload &PW = profiledWorkload(W);
  AdaptResult Serial = adaptWithJobs(PW, 1);
  EXPECT_EQ(Serial.VerifyErrors, 0u)
      << W.Name << ": serial adaptation failed verification";
  for (unsigned Jobs : {4u, 8u}) {
    AdaptResult Par = adaptWithJobs(PW, Jobs);
    EXPECT_EQ(Serial.ReportText, Par.ReportText)
        << W.Name << ": report differs at jobs=" << Jobs;
    EXPECT_EQ(Serial.ProgramText, Par.ProgramText)
        << W.Name << ": emitted binary differs at jobs=" << Jobs;
    EXPECT_EQ(Par.VerifyErrors, 0u)
        << W.Name << ": verification failed at jobs=" << Jobs;
  }
}

} // namespace

TEST(ToolParallelDeterminism, PaperSuiteBitIdenticalAcrossJobCounts) {
  for (const Workload &W : paperSuite())
    expectIdenticalAcrossJobs(W);
}

TEST(ToolParallelDeterminism, StressProgramBitIdenticalAcrossJobCounts) {
  expectIdenticalAcrossJobs(makeStress(16, 6, 2));
}

TEST(ToolParallelDeterminism, JobsZeroPicksHardwareConcurrency) {
  // Jobs = 0 must behave like any other job count: same bytes out.
  const ProfiledWorkload &PW = profiledWorkload(makeMcf());
  AdaptResult Serial = adaptWithJobs(PW, 1);
  AdaptResult Auto = adaptWithJobs(PW, 0);
  EXPECT_EQ(Serial.ReportText, Auto.ReportText);
  EXPECT_EQ(Serial.ProgramText, Auto.ProgramText);
}

TEST(ToolParallelDeterminism, ThreadsShareOneAnalysisCache) {
  // Client threads adapt concurrently from two option layers over one
  // program layer, so they race to fill one lazily computed region-height
  // table; every result must equal its option's stand-alone adaptation.
  for (const Workload &W : {makeMcf(), makeStress(16, 6, 2)}) {
    SCOPED_TRACE(W.Name);
    const ProfiledWorkload &PW = profiledWorkload(W);
    const AdaptResult Want[2] = {adaptWithJobs(PW, 1),
                                 adaptWithJobs(PW, 1, nullptr, true)};
    auto Program = std::make_shared<const ProgramAnalyses>(PW.P, PW.PD);
    ToolOptions Spec;
    Spec.EnableSpecDeps = true;
    const AnalysisCache Caches[2] = {
        {Program, PostPassTool::sliceOptionsOf(ToolOptions()),
         PostPassTool::scheduleOptionsOf(ToolOptions()),
         PostPassTool::specDepOptionsOf(ToolOptions())},
        {Program, PostPassTool::sliceOptionsOf(Spec),
         PostPassTool::scheduleOptionsOf(Spec),
         PostPassTool::specDepOptionsOf(Spec)}};

    constexpr unsigned NumThreads = 4;
    std::vector<AdaptResult> Got(NumThreads);
    std::vector<std::thread> Threads;
    for (unsigned T = 0; T < NumThreads; ++T)
      Threads.emplace_back([&, T] {
        Got[T] = adaptWithJobs(PW, 1 + T % 2, &Caches[T % 2], T % 2 == 1);
      });
    for (std::thread &T : Threads)
      T.join();
    for (unsigned T = 0; T < NumThreads; ++T) {
      SCOPED_TRACE(T);
      EXPECT_EQ(Got[T].ReportText, Want[T % 2].ReportText);
      EXPECT_EQ(Got[T].ProgramText, Want[T % 2].ProgramText);
      EXPECT_EQ(Got[T].VerifyErrors, 0u);
    }
  }
}
