//===- perfbench/SuiteOneshot.cpp - The paper's flow over the full suite --===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// suite-oneshot: every program of workloads::fullSuite() goes through the
/// paper's two-pass flow, serially and with default ToolOptions:
///
///   1. print and re-parse the program text,
///   2. profile it (functional run + baseline in-order timing run),
///   3. build the analyses, adapt, and print the adapted binary,
///   4. simulate baseline and adapted binaries exactly on both models,
///   5. simulate the same four binaries under SamplingPlan::defaults().
///
/// One operation is one program through all five steps; one pass is the
/// ten programs in a seeded order. Exact simulation dominates the pass,
/// profiling is most of the rest, adaptation a small share.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/AnalysisCache.h"
#include "core/PostPassTool.h"
#include "ir/Parser.h"
#include "obs/Registry.h"
#include "sim/Simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

using namespace ssp;
using namespace ssp::perfbench;

namespace {

/// A suite program as set-up leaves it.
struct Input {
  workloads::Workload W;
  ir::Program P;
  uint64_t Checksum = 0;
};

/// The simulated figures of one program; identical in every pass.
struct Figures {
  uint64_t Exact[4] = {};   ///< Cycles: base io, ssp io, base ooo, ssp ooo.
  uint64_t Sampled[4] = {}; ///< Same four binaries, sampled.
  uint64_t MainInsts[4] = {}; ///< Main-thread instructions, exact runs.
  unsigned Loads = 0, Slices = 0, SliceInsts = 0, Triggers = 0;
  unsigned InstMismatches = 0; ///< Sampled runs whose MainInsts differ.
  double Added = 0;
  bool operator==(const Figures &) const = default;
};

const char *const RunNames[4] = {"base-io", "ssp-io", "base-ooo",
                                 "ssp-ooo"};

/// A sampled run whose MainInsts differs from the exact run's.
struct KnownMismatch {
  const char *Program, *Run;
  uint64_t Exact, Sampled;
};

/// The sampler executes every main-thread instruction (in detail or
/// functionally), so each sampled run's MainInsts should equal the exact
/// run's. Two simulator faults break that today, and the runs they touch
/// are pinned here with both counts: the exact out-of-order run stops when
/// the main thread's halt issues, ahead of older instructions (base-ooo,
/// ssp-ooo), and on adapted binaries the main thread runs stub
/// instructions only when a trigger fires at the detailed level (ssp-io,
/// ssp-ooo). Any other mismatch, or a pinned one with other counts, fails
/// the run; a pinned run whose counts come to agree passes.
const KnownMismatch KnownMismatches[] = {
    // Program, run, exact MainInsts, sampled MainInsts.
    {"em3d", "ssp-io", 87612, 82096},
    {"em3d", "base-ooo", 77816, 77831},
    {"em3d", "ssp-ooo", 89049, 82100},
    {"health", "ssp-io", 18152, 17939},
    {"health", "base-ooo", 17811, 17812},
    {"health", "ssp-ooo", 18151, 17939},
    {"mst", "ssp-io", 100358, 94640},
    {"mst", "base-ooo", 91533, 91534},
    {"mst", "ssp-ooo", 98188, 94616},
    {"treeadd.df", "ssp-io", 256728, 197996},
    {"treeadd.df", "base-ooo", 180207, 180213},
    {"treeadd.df", "ssp-ooo", 262092, 198100},
    {"treeadd.bf", "ssp-io", 146249, 131537},
    {"treeadd.bf", "base-ooo", 122857, 122873},
    {"treeadd.bf", "ssp-ooo", 141478, 131533},
    {"mcf", "ssp-io", 57153, 49518},
    {"mcf", "ssp-ooo", 56101, 49473},
    {"vpr", "ssp-io", 100339, 93074},
    {"vpr", "base-ooo", 89937, 89938},
    {"vpr", "ssp-ooo", 99794, 93094},
    {"hashjoin", "ssp-io", 42824, 39224},
    {"hashjoin", "base-ooo", 35990, 36007},
    {"hashjoin", "ssp-ooo", 42007, 39168},
    {"pagerank", "ssp-io", 32112, 27316},
    {"pagerank", "base-ooo", 23998, 24007},
    {"pagerank", "ssp-ooo", 30005, 27220},
    {"oahash", "ssp-io", 55028, 51168},
    {"oahash", "base-ooo", 47994, 48007},
    {"oahash", "ssp-ooo", 54027, 51152},
};

bool isKnownMismatch(const std::string &Program, const std::string &Run,
                     uint64_t Exact, uint64_t Sampled) {
  for (const KnownMismatch &K : KnownMismatches)
    if (Program == K.Program && Run == K.Run)
      return Exact == K.Exact && Sampled == K.Sampled;
  return false;
}

std::vector<Input> setUp() {
  std::vector<Input> In;
  for (workloads::Workload &W : workloads::fullSuite()) {
    Input I{W, W.Build(), 0};
    mem::SimMemory Mem;
    I.Checksum = W.BuildMemory(Mem);
    In.push_back(std::move(I));
  }
  return In;
}

} // namespace

void perfbench::runSuiteOneshot(const RunOptions &O, RunResult &R) {
  std::vector<Input> In;
  double BuildMs = 0;
  HostSpeed HS;
  R.set("setup_s", medianSetupSeconds(HS, [&] {
          Clock::time_point Start = Clock::now();
          In = setUp();
          BuildMs = msSince(Start);
        }),
        "s");

  Layers L(O.Trace);
  obs::Registry Reg;
  core::ToolOptions TO;
  TO.FatalOnVerifyError = false; // Count verify errors as failed checks.
  TO.Metrics = O.Trace ? &Reg : nullptr;
  const sim::MachineConfig Models[2] = {sim::MachineConfig::inOrder(),
                                        sim::MachineConfig::outOfOrder()};

  std::vector<std::optional<Figures>> First(In.size());
  std::vector<double> PassMs, RawPassMs;
  std::vector<std::vector<double>> OpMs(In.size());
  SimTotals Exact, Sampled;
  double SampleErrMaxPct = 0;
  Clock::time_point TimedStart = Clock::now();
  for (unsigned Pass = 0; Pass < 2 || msSince(TimedStart) < O.Seconds * 1e3;
       ++Pass) {
    PassTimer PT(HS);
    for (size_t Idx : seededOrder(In.size(), O.Seed * 1000003 + Pass)) {
      const Input &I = In[Idx];
      double Scale = PT.calibrate();
      Clock::time_point OpStart = Clock::now();
      Figures F;

      // 1. Print and re-parse.
      std::string Text = L.span("ir.print_ms", [&] { return I.P.str(); });
      ir::Program P;
      std::string Err;
      if (!L.span("ir.parse_ms",
                  [&] { return ir::parseProgram(Text, P, Err); }))
        R.fail(I.W.Name + ": re-parse: " + Err);

      // 2. Profile.
      profile::ProfileData PD = L.span("profile.run_ms", [&] {
        return core::profileProgram(P, I.W.BuildMemory);
      });

      // 3. Analyses, adaptation, printed adapted binary.
      std::optional<core::AnalysisCache> AC;
      L.span("analysis.build_ms", [&] {
        AC.emplace(P, PD, core::PostPassTool::sliceOptionsOf(TO),
                   core::PostPassTool::scheduleOptionsOf(TO),
                   core::PostPassTool::specDepOptionsOf(TO));
      });
      core::PostPassTool Tool(P, PD, TO);
      core::AdaptationReport Rep;
      ir::Program E =
          L.span("adapt.ms", [&] { return Tool.adaptWith(&*AC, &Rep); });
      L.span("ir.print_ms", [&] { return E.str(); });
      if (Rep.VerifyErrors != 0)
        R.fail(I.W.Name + ": adapted binary has " +
               std::to_string(Rep.VerifyErrors) + " verify error(s)");
      F.Loads = Rep.DelinquentLoads;
      F.Slices = Rep.numSlices();
      for (const core::SliceReport &S : Rep.Slices)
        F.SliceInsts += S.Size;
      F.Triggers = Rep.Rewrite.TriggersInserted;
      F.Added = addedInsts(P, E);

      // 4 and 5. Exact, then sampled, simulation of both binaries on both
      // models.
      for (int Bin = 0; Bin < 2; ++Bin) {
        ir::LinkedProgram LP = L.span("ir.link_ms", [&] {
          return ir::LinkedProgram::link(Bin ? E : P);
        });
        for (int Model = 0; Model < 2; ++Model) {
          int Run = Model * 2 + Bin;
          for (int Sample = 0; Sample < 2; ++Sample) {
            sim::MachineConfig Cfg = Models[Model];
            if (Sample)
              Cfg.Sample = sim::SamplingPlan::defaults();
            mem::SimMemory Mem;
            L.span("workloads.memory_ms", [&] { I.W.BuildMemory(Mem); });
            const char *Span = Sample  ? "sim.sampled_ms"
                               : Model ? "sim.exact_ooo_ms"
                                       : "sim.exact_io_ms";
            sim::SimStats St = L.span(Span, [&] {
              sim::Simulator Sim(Cfg, LP, Mem);
              return Sim.run();
            });
            if (Mem.read(workloads::ResultAddr) != I.Checksum)
              R.fail(I.W.Name + " " + RunNames[Run] +
                     (Sample ? " sampled" : "") + ": wrong checksum");
            if (!Sample) {
              F.Exact[Run] = St.Cycles;
              F.MainInsts[Run] = St.MainInsts;
              Bin ? Exact.addAdapted(St) : Exact.add(St);
              continue;
            }
            F.Sampled[Run] = St.Cycles;
            Sampled.add(St);
            if (St.MainInsts != F.MainInsts[Run]) {
              if (!isKnownMismatch(I.W.Name, RunNames[Run], F.MainInsts[Run],
                                   St.MainInsts))
                R.fail(I.W.Name + " " + RunNames[Run] + ": sampled MainInsts " +
                       std::to_string(St.MainInsts) + " != exact " +
                       std::to_string(F.MainInsts[Run]) +
                       ", not a pinned mismatch");
              ++F.InstMismatches;
            }
            double ErrPct = 100.0 *
                            std::fabs(static_cast<double>(St.Cycles) -
                                      static_cast<double>(F.Exact[Run])) /
                            static_cast<double>(F.Exact[Run]);
            SampleErrMaxPct = std::max(SampleErrMaxPct, ErrPct);
          }
        }
      }
      OpMs[Idx].push_back(msSince(OpStart) * Scale);

      if (!First[Idx])
        First[Idx] = F;
      else if (!(*First[Idx] == F))
        R.fail(I.W.Name + ": simulated figures differ between passes");
    }
    PT.finish(PassMs, RawPassMs);
  }
  double Peak = peakRssMb();

  // Simulated end-to-end figures, from the exact runs.
  std::vector<double> IO, OOO;
  Figures Sum;
  for (size_t Idx = 0; Idx < In.size(); ++Idx) {
    const Figures &F = *First[Idx];
    IO.push_back(static_cast<double>(F.Exact[0]) / F.Exact[1]);
    OOO.push_back(static_cast<double>(F.Exact[2]) / F.Exact[3]);
    std::printf("detail suite-oneshot %s io %.4f ooo %.4f sample-err",
                In[Idx].W.Name.c_str(), IO.back(), OOO.back());
    for (int Run = 0; Run < 4; ++Run)
      std::printf(" %s %+.1f%%", RunNames[Run],
                  100.0 * (static_cast<double>(F.Sampled[Run]) - F.Exact[Run]) /
                      F.Exact[Run]);
    std::printf("\n");
    Sum.Loads += F.Loads;
    Sum.Slices += F.Slices;
    Sum.SliceInsts += F.SliceInsts;
    Sum.Triggers += F.Triggers;
    Sum.Added += F.Added;
    Sum.InstMismatches += F.InstMismatches;
  }

  double Passes = static_cast<double>(PassMs.size());
  R.set("peak_rss_mb", Peak, "MB");
  R.set("pass_s", median(PassMs) / 1e3, "s");
  printHostDetail("suite-oneshot", HS, RawPassMs);
  reportBatchOps(R, OpMs);
  R.set("speedup_io_gmean", geomean(IO), "x");
  R.set("speedup_ooo_gmean", geomean(OOO), "x");
  R.set("ssp_over_ooo_min", *std::min_element(OOO.begin(), OOO.end()), "x");
  if (!O.Trace)
    return;

  reportSpans(R, L, PassMs, RawPassMs, HS);
  R.set("workloads.build_ms", BuildMs, "ms");
  reportAdaptStages(R, Reg, L.ms("adapt.ms"), Passes);
  reportExactSim(R, Exact, L.ms("sim.exact_io_ms") + L.ms("sim.exact_ooo_ms"));
  R.set("sim.sampled_minst_per_s",
        static_cast<double>(Sampled.Insts) / 1e6 /
            (L.ms("sim.sampled_ms") / 1e3),
        "Minst/s");
  R.set("sim.sample_err_max_pct", SampleErrMaxPct, "%");
  R.set("sim.sample_inst_mismatches", Sum.InstMismatches, "count");
  R.set("adapt.delinquent_loads", Sum.Loads, "count");
  R.set("adapt.slices", Sum.Slices, "count");
  R.set("adapt.slice_insts_avg",
        static_cast<double>(Sum.SliceInsts) / Sum.Slices, "count");
  R.set("adapt.triggers", Sum.Triggers, "count");
  R.set("codegen.added_insts", Sum.Added, "count");
}
