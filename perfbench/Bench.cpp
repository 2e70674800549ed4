//===- perfbench/Bench.cpp - Shared pieces of the benchmark ---------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/RNG.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

using namespace ssp;
using namespace ssp::perfbench;

void RunResult::fail(const std::string &Why) {
  std::fprintf(stderr, "check failed: %s\n", Why.c_str());
  Correct = false;
}

void RunResult::samePerPass(const std::string &What, double First,
                            double Value) {
  if (First != Value)
    fail(What + " differs between passes (" + std::to_string(First) +
         " vs " + std::to_string(Value) + ")");
}

namespace {

/// Iterations of the calibration kernel: about KernelRefMs on the
/// reference host at full speed.
constexpr uint64_t KernelIters = 850000;

/// Four independent integer recurrences (two xorshift, two LCG) and four
/// accumulators: enough independent work to keep the core's ports busy,
/// as the simulator and the tool do, so it slows down with them when a
/// neighbour takes the core, but no memory traffic.
[[gnu::noinline]] uint64_t calibrationKernel(uint64_t N) {
  uint64_t A = 1, B = 2, C = 3, D = 4, E = 5, F = 6, G = 7, H = 8;
  for (uint64_t I = 0; I < N; ++I) {
    A ^= A << 13;
    A ^= A >> 7;
    A ^= A << 17;
    B = B * 6364136223846793005ull + 1;
    C ^= C << 13;
    C ^= C >> 7;
    C ^= C << 17;
    D = D * 2862933555777941757ull + 3;
    E += A >> 3;
    F ^= B >> 5;
    G += C * 3;
    H ^= D + E;
  }
  return A + B + C + D + E + F + G + H;
}

volatile uint64_t KernelIterations = KernelIters;
volatile uint64_t KernelSink;

} // namespace

double HostSpeed::calibrate() {
  Clock::time_point Start = Clock::now();
  KernelSink = calibrationKernel(KernelIterations);
  KernelMs.push_back(msSince(Start));
  SpentMs += KernelMs.back();
  size_t N = KernelMs.size();
  std::vector<double> Last(KernelMs.begin() + (N > 3 ? N - 3 : 0),
                           KernelMs.end());
  return KernelRefMs / median(Last);
}

double HostSpeed::kernelMs() const { return median(KernelMs); }

double HostSpeed::spentMs() const { return SpentMs; }

double PassTimer::calibrate() {
  Factors.push_back(HS.calibrate());
  return Factors.back();
}

void PassTimer::finish(std::vector<double> &PassMs,
                       std::vector<double> &RawPassMs) {
  double Raw = msSince(Start) - (HS.spentMs() - SpentAtStart);
  RawPassMs.push_back(Raw);
  PassMs.push_back(Raw * median(Factors));
}

double perfbench::medianSetupSeconds(HostSpeed &HS,
                                     const std::function<void()> &SetUp) {
  std::vector<double> S;
  double Total = 0;
  while (S.size() < SetupMinReps || Total < SetupMinSeconds) {
    double Scale = HS.calibrate();
    Clock::time_point Start = Clock::now();
    SetUp();
    double Seconds = msSince(Start) / 1e3;
    S.push_back(Seconds * Scale);
    Total += Seconds;
  }
  return median(S);
}

double perfbench::median(std::vector<double> V) { return percentile(V, 50); }

double perfbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

void perfbench::reportBatchOps(RunResult &R,
                               const std::vector<std::vector<double>> &OpMs) {
  std::vector<double> PerProgram;
  for (const std::vector<double> &Ms : OpMs) {
    PerProgram.push_back(median(Ms));
    R.Attempted += Ms.size();
  }
  R.set("op_p50_ms", median(PerProgram), "ms");
  R.set("op_p995_ms", percentile(PerProgram, 99.5), "ms");
}

double perfbench::peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::vector<size_t> perfbench::seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  RNG Rng(Seed);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
  return Order;
}

double perfbench::addedInsts(const ir::Program &Orig,
                             const ir::Program &Adapted) {
  return static_cast<double>(Adapted.numInsts()) -
         static_cast<double>(Orig.numInsts());
}

void SimTotals::add(const sim::SimStats &S) {
  Insts += S.MainInsts + S.SpecInsts;
  Cycles += S.Cycles;
  Skipped += S.SkippedCycles;
}

void SimTotals::addAdapted(const sim::SimStats &S) {
  add(S);
  AdaptedInsts += S.MainInsts + S.SpecInsts;
  SpecPrefetches += S.SpecPrefetches;
  Useful += S.UsefulPrefetches;
  Spawns += S.SpawnsSucceeded;
  Dropped += S.SpawnsDropped;
  SpecInsts += S.SpecInsts;
  StreamSteps += S.StreamSteps;
}

void perfbench::reportSpans(RunResult &R, const Layers &L,
                            const std::vector<double> &PassMs,
                            const std::vector<double> &RawPassMs,
                            const HostSpeed &HS) {
  double Passes = static_cast<double>(PassMs.size());
  for (const auto &[Name, Ms] : L.all())
    R.set(Name, Ms / Passes, "ms");
  double Total = 0;
  for (double Ms : RawPassMs)
    Total += Ms;
  R.set("trace.pass_s", median(PassMs) / 1e3, "s");
  R.set("trace.coverage_share", L.coveredMs() / Total, "share");
  R.set("host.kernel_ms", HS.kernelMs(), "ms");
}

void perfbench::printHostDetail(const char *Workload, const HostSpeed &HS,
                                const std::vector<double> &RawPassMs) {
  std::printf("detail %s host kernel-ms %.4f raw-pass-s %.4f\n", Workload,
              HS.kernelMs(), median(RawPassMs) / 1e3);
}

void perfbench::reportAdaptStages(RunResult &R, const obs::Registry &Reg,
                                  double AdaptMs, double Passes) {
  static const char *const Stages[] = {
      "adapt.analysis_ms", "adapt.candidates_ms", "adapt.combine_ms",
      "adapt.triggers_ms", "adapt.rewrite_ms",    "adapt.verify_ms"};
  double StageSum = 0;
  for (const char *S : Stages) {
    StageSum += Reg.timeMs(S);
    if (std::string(S) != "adapt.analysis_ms")
      R.set(S, Reg.timeMs(S) / Passes, "ms");
  }
  if (AdaptMs < 0) {
    R.set("adapt.ms", StageSum / Passes, "ms");
    return;
  }
  R.set("adapt.ms", AdaptMs / Passes, "ms");
  R.set("adapt.unattributed_ms", (AdaptMs - StageSum) / Passes, "ms");
}

void perfbench::reportExactSim(RunResult &R, const SimTotals &T,
                               double SimMs) {
  auto Share = [](uint64_t Part, uint64_t Whole) {
    return Whole ? static_cast<double>(Part) / static_cast<double>(Whole)
                 : 0.0;
  };
  R.set("sim.exact_minst_per_s",
        static_cast<double>(T.Insts) / 1e6 / (SimMs / 1e3), "Minst/s");
  R.set("sim.skipped_cycle_share", Share(T.Skipped, T.Cycles), "share");
  R.set("sim.useful_prefetch_share", Share(T.Useful, T.SpecPrefetches),
        "share");
  R.set("sim.spawn_drop_share", Share(T.Dropped, T.Spawns + T.Dropped),
        "share");
  R.set("sim.spec_inst_share", Share(T.SpecInsts, T.AdaptedInsts), "share");
}
