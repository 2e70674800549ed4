//===- perfbench/FeedbackLoop.cpp - Closed-loop re-adaptation -------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// feedback-loop: core::runFeedbackLoop over the ten suite programs with
/// stream descriptors and speculative dependences (threshold 0.05) on,
/// at most MaxRounds exact in-order rounds each, from profiles built in
/// set-up; the best binary is then simulated on both models against the
/// baseline. One operation is one program's loop plus that evaluation;
/// one pass is the ten programs in a seeded order.
///
/// This is the only workload that runs the stream engine, speculative
/// dependence pruning and the feedback policy, and it re-adapts one
/// program many times from one warm analysis.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/AnalysisCache.h"
#include "core/Feedback.h"
#include "sim/Simulator.h"

#include <algorithm>
#include <cstdio>
#include <optional>

using namespace ssp;
using namespace ssp::perfbench;

namespace {

constexpr unsigned MaxRounds = 4;

struct Input {
  workloads::Workload W;
  ir::Program P;
  profile::ProfileData PD;
  uint64_t Checksum = 0;
  uint64_t BaseOOO = 0; ///< Baseline out-of-order cycles (reference).
};

/// The simulated figures of one program; identical in every pass.
struct Figures {
  uint64_t BestIO = 0, BestOOO = 0;
  unsigned Rounds = 0, Accepted = 0, Decisions = 0;
  unsigned Loads = 0, Slices = 0, SliceInsts = 0, Triggers = 0;
  double Added = 0;
  uint64_t StreamSteps = 0;
  bool operator==(const Figures &) const = default;
};

} // namespace

void perfbench::runFeedbackLoop(const RunOptions &O, RunResult &R) {
  std::vector<Input> In;
  double BuildMs = 0;
  HostSpeed HS;
  R.set("setup_s", medianSetupSeconds(HS, [&] {
          In.clear();
          BuildMs = 0;
          for (workloads::Workload &W : workloads::fullSuite()) {
            Clock::time_point Start = Clock::now();
            Input I{W, W.Build(), {}, 0, 0};
            mem::SimMemory Mem;
            I.Checksum = W.BuildMemory(Mem);
            BuildMs += msSince(Start);
            I.PD = core::profileProgram(I.P, W.BuildMemory);
            In.push_back(std::move(I));
          }
        }),
        "s");

  auto Simulate = [&](const Input &I, const ir::LinkedProgram &LP, bool OOO,
                      Layers &L) {
    mem::SimMemory Mem;
    L.span("workloads.memory_ms", [&] { I.W.BuildMemory(Mem); });
    sim::SimStats St =
        L.span(OOO ? "sim.exact_ooo_ms" : "sim.exact_io_ms", [&] {
          sim::Simulator Sim(OOO ? sim::MachineConfig::outOfOrder()
                                 : sim::MachineConfig::inOrder(),
                             LP, Mem);
          return Sim.run();
        });
    if (Mem.read(workloads::ResultAddr) != I.Checksum)
      R.fail(I.W.Name + (OOO ? " ooo" : " io") + ": wrong checksum");
    return St;
  };

  // Reference: baseline out-of-order cycles, outside set-up and the
  // timed passes (the baseline in-order run is the profile's timing run).
  Layers Untimed(false);
  for (Input &I : In)
    I.BaseOOO =
        Simulate(I, ir::LinkedProgram::link(I.P), true, Untimed).Cycles;

  Layers L(O.Trace);
  obs::Registry Reg;
  core::ToolOptions TO;
  TO.EnableStreams = true;
  TO.EnableSpecDeps = true;
  TO.SpecDepThreshold = 0.05;
  TO.FatalOnVerifyError = false;
  TO.Metrics = O.Trace ? &Reg : nullptr;
  core::FeedbackOptions FO;
  FO.MaxRounds = MaxRounds;

  std::vector<std::optional<Figures>> First(In.size());
  std::vector<double> PassMs, RawPassMs;
  std::vector<std::vector<double>> OpMs(In.size());
  SimTotals Exact;
  Clock::time_point TimedStart = Clock::now();
  for (unsigned Pass = 0; Pass < 2 || msSince(TimedStart) < O.Seconds * 1e3;
       ++Pass) {
    PassTimer PT(HS);
    for (size_t Idx : seededOrder(In.size(), O.Seed * 1000003 + Pass)) {
      const Input &I = In[Idx];
      double Scale = PT.calibrate();
      Clock::time_point OpStart = Clock::now();
      std::optional<core::AnalysisCache> AC;
      L.span("analysis.build_ms", [&] {
        AC.emplace(I.P, I.PD, core::PostPassTool::sliceOptionsOf(TO),
                   core::PostPassTool::scheduleOptionsOf(TO),
                   core::PostPassTool::specDepOptionsOf(TO));
      });
      core::FeedbackResult FR = L.span("feedback.loop_ms", [&] {
        return core::runFeedbackLoop(I.P, I.PD, TO, FO, I.W.BuildMemory,
                                     &*AC);
      });
      ir::LinkedProgram LP = L.span(
          "ir.link_ms", [&] { return ir::LinkedProgram::link(FR.Best); });
      sim::SimStats IO = Simulate(I, LP, false, L);
      sim::SimStats OOO = Simulate(I, LP, true, L);
      OpMs[Idx].push_back(msSince(OpStart) * Scale);

      if (FR.BestReport.VerifyErrors != 0)
        R.fail(I.W.Name + ": best binary has verify errors");
      if (FR.Rounds.size() > MaxRounds || FR.BestSpeedup < FR.OneShotSpeedup)
        R.fail(I.W.Name + ": feedback best below one-shot or over budget");
      if (static_cast<double>(I.PD.BaselineCycles) / IO.Cycles !=
          FR.BestSpeedup)
        R.fail(I.W.Name + ": best binary's in-order cycles differ from the "
                          "loop's");
      Exact.addAdapted(IO);
      Exact.addAdapted(OOO);

      Figures F;
      F.BestIO = IO.Cycles;
      F.BestOOO = OOO.Cycles;
      F.Rounds = FR.Rounds.size();
      for (const core::FeedbackRound &Rd : FR.Rounds) {
        F.Accepted += Rd.Round > 1 && Rd.Accepted;
        F.Decisions += Rd.Decisions.size();
      }
      const core::AdaptationReport &Rep = FR.BestReport;
      F.Loads = Rep.DelinquentLoads;
      F.Slices = Rep.numSlices();
      for (const core::SliceReport &S : Rep.Slices)
        F.SliceInsts += S.Size;
      F.Triggers = Rep.Rewrite.TriggersInserted;
      F.Added = addedInsts(I.P, FR.Best);
      F.StreamSteps = IO.StreamSteps + OOO.StreamSteps;
      if (!First[Idx])
        First[Idx] = F;
      else if (!(*First[Idx] == F))
        R.fail(I.W.Name + ": simulated figures differ between passes");
    }
    PT.finish(PassMs, RawPassMs);
  }
  double Peak = peakRssMb();

  std::vector<double> SpIO, SpOOO;
  Figures Sum;
  for (size_t Idx = 0; Idx < In.size(); ++Idx) {
    const Figures &F = *First[Idx];
    SpIO.push_back(static_cast<double>(In[Idx].PD.BaselineCycles) / F.BestIO);
    SpOOO.push_back(static_cast<double>(In[Idx].BaseOOO) / F.BestOOO);
    std::printf("detail feedback-loop %s io %.4f ooo %.4f rounds %u\n",
                In[Idx].W.Name.c_str(), SpIO.back(), SpOOO.back(), F.Rounds);
    Sum.Rounds += F.Rounds;
    Sum.Accepted += F.Accepted;
    Sum.Decisions += F.Decisions;
    Sum.Loads += F.Loads;
    Sum.Slices += F.Slices;
    Sum.SliceInsts += F.SliceInsts;
    Sum.Triggers += F.Triggers;
    Sum.Added += F.Added;
    Sum.StreamSteps += F.StreamSteps;
  }

  double Passes = static_cast<double>(PassMs.size());
  R.set("peak_rss_mb", Peak, "MB");
  R.set("pass_s", median(PassMs) / 1e3, "s");
  printHostDetail("feedback-loop", HS, RawPassMs);
  reportBatchOps(R, OpMs);
  R.set("speedup_io_gmean", geomean(SpIO), "x");
  R.set("speedup_ooo_gmean", geomean(SpOOO), "x");
  R.set("ssp_over_ooo_min", *std::min_element(SpOOO.begin(), SpOOO.end()),
        "x");
  if (!O.Trace)
    return;

  reportSpans(R, L, PassMs, RawPassMs, HS);
  R.set("workloads.build_ms", BuildMs, "ms");
  reportAdaptStages(R, Reg, -1, Passes);
  reportExactSim(R, Exact, L.ms("sim.exact_io_ms") + L.ms("sim.exact_ooo_ms"));
  R.set("sim.stream_steps", Sum.StreamSteps, "count");
  R.set("feedback.round_ms", L.ms("feedback.loop_ms") / Passes / Sum.Rounds,
        "ms");
  R.set("feedback.rounds", Sum.Rounds, "count");
  R.set("feedback.accepted_rounds", Sum.Accepted, "count");
  R.set("feedback.decisions", Sum.Decisions, "count");
  R.set("adapt.delinquent_loads", Sum.Loads, "count");
  R.set("adapt.slices", Sum.Slices, "count");
  R.set("adapt.slice_insts_avg",
        static_cast<double>(Sum.SliceInsts) / Sum.Slices, "count");
  R.set("adapt.triggers", Sum.Triggers, "count");
  R.set("codegen.added_insts", Sum.Added, "count");
}
