//===- perfbench/Bench.h - Shared pieces of the benchmark -----------------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark times each call into a layer's public functions
/// from outside the program. This header holds what the three workloads
/// share: the run options, the span accumulator behind the traced mode,
/// the result every workload fills in, and small statistics helpers.
///
/// Host-time metrics are medians over many like samples (one pass, one
/// operation); simulated metrics are exact and must repeat bit-for-bit
/// across passes, which every workload checks.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_PERFBENCH_BENCH_H
#define SSP_PERFBENCH_BENCH_H

#include "ir/Program.h"
#include "obs/Registry.h"
#include "sim/SimStats.h"
#include "workloads/Workload.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace ssp::perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Named per-layer time and count accumulator of the traced mode. Spans
/// are taken only when tracing is on, so an untraced run makes no clock
/// calls for them. Every span is a call the benchmark makes into a layer's
/// public API; their total over the timed passes is what covers pass_s.
class Layers {
public:
  explicit Layers(bool On) : On(On) {}

  /// Runs \p Fn, charging its wall time to layer \p Name when tracing.
  template <typename F> decltype(auto) span(const char *Name, F &&Fn) {
    if (!On)
      return Fn();
    Scope S(*this, Name);
    return Fn();
  }

  double ms(const std::string &Name) const {
    auto It = Totals.find(Name);
    return It == Totals.end() ? 0.0 : It->second;
  }
  double coveredMs() const { return CoveredMs; }
  const std::map<std::string, double> &all() const { return Totals; }

private:
  struct Scope {
    Layers &L;
    const char *Name;
    Clock::time_point Start = Clock::now();
    Scope(Layers &L, const char *Name) : L(L), Name(Name) {}
    ~Scope() {
      double Ms = msSince(Start);
      L.Totals[Name] += Ms;
      L.CoveredMs += Ms;
    }
  };
  bool On;
  std::map<std::string, double> Totals;
  double CoveredMs = 0;
};

/// Host-speed normalisation of the end-to-end times.
///
/// The shared host changes speed by up to 2x within a minute (other
/// tenants contend for the core; thread CPU time rises with wall time, so
/// it is not preemption), which moves every wall time far more than the
/// bounds allow between runs of the same code. So the benchmark times a
/// fixed calibration kernel of its own (integer recurrences, no memory
/// traffic, no project code) next to the measured work, and scales each
/// end-to-end time by KernelRefMs / K, K being the median of the last
/// three kernel times. A slower host stretches both and cancels out; a
/// change to the program leaves the kernel alone and shows in full. The
/// per-layer times stay raw host time, and host.kernel_ms reports K.
class HostSpeed {
public:
  /// Runs the kernel once and returns the current scale factor.
  double calibrate();
  /// Median kernel time of the run so far, in ms.
  double kernelMs() const;
  /// Time spent in the kernel so far, in ms.
  double spentMs() const;

private:
  std::vector<double> KernelMs;
  double SpentMs = 0;
};

/// Times one pass of a workload. The kernel runs inside the pass (one
/// before each operation, or every few requests) are taken out of its raw
/// time, and its scaled time uses the median factor of those runs.
class PassTimer {
public:
  explicit PassTimer(HostSpeed &HS)
      : HS(HS), SpentAtStart(HS.spentMs()) {}
  /// Runs the kernel; returns the factor for the operations that follow.
  double calibrate();
  /// Ends the pass: appends its scaled and raw times in ms.
  void finish(std::vector<double> &PassMs, std::vector<double> &RawPassMs);

private:
  HostSpeed &HS;
  Clock::time_point Start = Clock::now();
  double SpentAtStart;
  std::vector<double> Factors;
};

/// The kernel time, on the reference host when it runs at full speed,
/// that a scale factor of 1 stands for.
constexpr double KernelRefMs = 4.0;

/// One metric as printed: value plus unit.
struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What a workload run hands back to main().
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, Metric> Metrics;

  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  /// Records a failed output check (on stderr) and clears Correct.
  void fail(const std::string &Why);
  /// Requires \p Value to be identical in every pass of the run.
  void samePerPass(const std::string &What, double First, double Value);
};

/// A run repeats its set-up at least SetupMinReps times and until
/// SetupMinSeconds have gone into it; setup_s is the median repetition,
/// each scaled by the kernel run just before it. A set-up of a few
/// milliseconds thus gets dozens of samples.
constexpr unsigned SetupMinReps = 5;
constexpr double SetupMinSeconds = 1.0;

/// Times \p SetUp as above and returns the median in seconds.
double medianSetupSeconds(HostSpeed &HS, const std::function<void()> &SetUp);

double median(std::vector<double> V);
/// Linear-interpolated percentile (the convention of Python's
/// statistics.quantiles 'inclusive' method), \p P in [0, 100].
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);

/// op_p50_ms and op_p995_ms of a batch workload from each program's
/// operation latencies (\p OpMs[program]). A run holds about a hundred
/// operations of ten unlike kinds, too few for a pooled tail, so each
/// program's latency is its median over the passes, and the percentiles
/// are taken over those per-program medians: op_p995_ms is then close to
/// the slowest program's typical latency rather than one outlier.
void reportBatchOps(RunResult &R, const std::vector<std::vector<double>> &OpMs);
/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// A seeded permutation of 0..N-1 (Fisher-Yates over support::RNG, so it
/// is identical on every platform).
std::vector<size_t> seededOrder(size_t N, uint64_t Seed);

/// Instructions the adaptation added to \p Orig.
double addedInsts(const ir::Program &Orig, const ir::Program &Adapted);

/// Per-layer simulator figures summed over a pass's simulations.
struct SimTotals {
  uint64_t Insts = 0, Cycles = 0, Skipped = 0;
  // Adapted binaries only: the prefetch-side figures.
  uint64_t AdaptedInsts = 0, SpecInsts = 0, SpecPrefetches = 0, Useful = 0;
  uint64_t Spawns = 0, Dropped = 0, StreamSteps = 0;
  void add(const sim::SimStats &S);
  void addAdapted(const sim::SimStats &S);
};

/// Traced-mode metrics every workload reports the same way: each span
/// total per pass, the median traced pass (scaled, \p PassMs, as pass_s
/// is), the share of raw pass time (\p RawPassMs) the spans cover, and
/// the median kernel time.
void reportSpans(RunResult &R, const Layers &L,
                 const std::vector<double> &PassMs,
                 const std::vector<double> &RawPassMs, const HostSpeed &HS);
/// Prints the run's median kernel time and median raw pass time on a
/// detail line, so the scaled pass_s can be traced back to host time.
void printHostDetail(const char *Workload, const HostSpeed &HS,
                     const std::vector<double> &RawPassMs);
/// The adapt.* stage timers the program exports through obs::Registry,
/// per pass. \p AdaptMs is the benchmark's own time around adaptWith; when
/// the benchmark does not call adaptWith itself (< 0), adapt.ms is the stage
/// sum and no unattributed share can be told apart.
void reportAdaptStages(RunResult &R, const obs::Registry &Reg,
                       double AdaptMs, double Passes);
/// sim.* rates and shares of the exact runs (\p SimMs: their span total).
void reportExactSim(RunResult &R, const SimTotals &T, double SimMs);

/// Runs the three workloads; each fills \p R and returns.
void runSuiteOneshot(const RunOptions &O, RunResult &R);
void runServeMixed(const RunOptions &O, RunResult &R);
void runFeedbackLoop(const RunOptions &O, RunResult &R);

} // namespace ssp::perfbench

#endif // SSP_PERFBENCH_BENCH_H
