//===- perfbench/ServeMixed.cpp - Skewed request stream to the daemon -----===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// serve-mixed: one client sends single-request sessions to
/// core::AdaptService::processBatch in a closed loop, each request after
/// the previous response. A pass is a fresh service fed a fixed stream of
/// PassRequests requests; every pass of a run replays the same stream, so
/// hit, miss and eviction counts must repeat exactly.
///
/// Corpus: the ten suite programs (1-5 KB requests) and three
/// workloads::makeStress sizes (150-620 KB requests), each with its
/// .sspprof profile built in set-up, under four option variants. The
/// stream holds every (program, variant) key a fixed number of times
/// (Zipf, s = 1, over programs in corpus order; the variants equally),
/// plus HostileRequests frames, in an order drawn from the seed. This
/// mix is synthetic: no recorded traffic backs it. The result cache and
/// the warm-analysis budget are set to half of what the corpus needs, so
/// the LRUs evict in steady state. No request asks for feedback rounds,
/// so the daemon runs no simulation.
///
/// Hostile frames declare a `program` payload of 2^64-1 bytes. The
/// service's payload reader sizes a string to that length before reading,
/// which throws std::length_error out of processBatch; the benchmark counts
/// each such frame as a failed operation. A service that answers it with
/// an `error` response turns it into a success.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/AdaptService.h"
#include "core/PostPassTool.h"
#include "core/ReportRender.h"
#include "ir/Parser.h"
#include "obs/Registry.h"
#include "profile/ProfileIO.h"
#include "sim/Simulator.h"
#include "support/RNG.h"
#include "support/ThreadPool.h"
#include "verify/PassManager.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <optional>
#include <thread>

using namespace ssp;
using namespace ssp::perfbench;

namespace {

constexpr unsigned PassRequests = 1000;
constexpr unsigned HostileRequests = 10;
/// Requests between two calibration-kernel runs (about 80 ms of work).
constexpr size_t CalibrateEvery = 50;
constexpr size_t ShuffleWindow = 20;
/// Result-cache bytes and warm analysis states: half of what the corpus
/// fills with no limit (6054447 bytes of cache entries and 26 program,
/// profile and analysis-option states).
constexpr uint64_t CacheBytes = 6054447 / 2;
constexpr unsigned WarmPrograms = 26 / 2;

/// Option variants a request may carry: the `option` lines sent, and the
/// same settings as the one-shot tool takes them.
struct Variant {
  const char *Name;
  const char *Options;
  void (*Apply)(core::ToolOptions &);
};
const Variant Variants[] = {
    {"default", "", [](core::ToolOptions &) {}},
    {"streams", "option streams=1\n",
     [](core::ToolOptions &TO) { TO.EnableStreams = true; }},
    {"spec-deps", "option spec-deps=1\noption spec-threshold=0.05\n",
     [](core::ToolOptions &TO) {
       TO.EnableSpecDeps = true;
       TO.SpecDepThreshold = 0.05;
     }},
    {"inner-unroll", "option inner-unroll=4\n",
     [](core::ToolOptions &TO) { TO.InnerUnroll = 4; }},
};
constexpr size_t NumVariants = sizeof(Variants) / sizeof(Variants[0]);

/// The suite programs, then the three stress sizes; this order is the
/// popularity rank.
std::vector<workloads::Workload> corpus() {
  std::vector<workloads::Workload> C = workloads::fullSuite();
  for (unsigned Nodes : {32u, 64u, 128u})
    C.push_back(workloads::makeStress(Nodes, 8, 2));
  return C;
}

/// A response's size and hash. The timed passes keep only this much of
/// each response, so the run's peak memory holds no reference responses.
struct Digest {
  size_t Size = 0, Hash = 0;
  explicit Digest(const std::string &S)
      : Size(S.size()), Hash(std::hash<std::string>{}(S)) {}
  bool operator==(const Digest &) const = default;
};

struct Source {
  workloads::Workload W;
  std::string Text, Profile;
  uint64_t BaselineCycles = 0;
  uint64_t Checksum = 0;
};

/// One (program, variant) request key.
struct Key {
  size_t Prog = 0, Var = 0;
  std::string Request; ///< Framed request, id "k<index>".
  unsigned Count = 0;  ///< Occurrences in one pass.
  /// Digest of the first response served; every later response must
  /// match it, and after the timed passes so must the one-shot path's.
  std::optional<Digest> Served;
  std::string Binary; ///< Adapted binary text of the one-shot path.
};

const std::string Hostile =
    "request bad\nprogram 18446744073709551615\n";
constexpr size_t HostileKey = SIZE_MAX;

std::string framed(const std::string &Id, const Source &P,
                   const Variant &V) {
  return "request " + Id + "\nprogram " + std::to_string(P.Text.size()) +
         "\n" + P.Text + "\nprofile " + std::to_string(P.Profile.size()) +
         "\n" + P.Profile + "\n" + V.Options + "end\n";
}

/// Occurrences of each key in a pass: Zipf(1) over program rank, split
/// equally over the variants, rounded by largest remainder to the
/// legitimate request count, with every key at least once.
void assignCounts(std::vector<Key> &Keys, size_t NumProgs) {
  double H = 0;
  for (size_t P = 1; P <= NumProgs; ++P)
    H += 1.0 / static_cast<double>(P);
  unsigned Legit = PassRequests - HostileRequests, Given = 0;
  std::vector<std::pair<double, size_t>> Rem;
  for (size_t I = 0; I < Keys.size(); ++I) {
    double Exact = Legit / (static_cast<double>(Keys[I].Prog + 1) * H) /
                   static_cast<double>(NumVariants);
    Keys[I].Count = std::max(1u, static_cast<unsigned>(Exact));
    Given += Keys[I].Count;
    Rem.push_back({Exact - std::floor(Exact), I});
  }
  std::sort(Rem.begin(), Rem.end(),
            [](const auto &A, const auto &B) { return A.first > B.first; });
  for (size_t I = 0; Given < Legit; ++I, ++Given)
    ++Keys[Rem[I % Rem.size()].second].Count;
}

/// One pass's request sequence. The base order spreads each key's
/// occurrences evenly over the pass (fixed phases), so a key returns at a
/// steady interval set by its popularity. The seed shuffles the requests
/// within each window of ShuffleWindow and places the hostile frames. The
/// seed thus changes the sequence while the reuse distances that decide
/// LRU hits, misses and evictions, and with them the work of a pass, stay
/// close to fixed.
std::vector<size_t> seededStream(const std::vector<Key> &Keys,
                                 uint64_t Seed) {
  RNG Phases(0x5E12E);
  std::vector<std::pair<double, size_t>> At;
  for (size_t I = 0; I < Keys.size(); ++I) {
    double Phase = Phases.nextDouble();
    for (unsigned J = 0; J < Keys[I].Count; ++J)
      At.push_back({(J + Phase) / Keys[I].Count, I});
  }
  std::sort(At.begin(), At.end());
  std::vector<size_t> Stream;
  RNG Rng(Seed);
  for (size_t B = 0; B < At.size(); B += ShuffleWindow) {
    size_t E = std::min(At.size(), B + ShuffleWindow);
    for (size_t I = E; I > B + 1; --I)
      std::swap(At[I - 1], At[B + Rng.nextBelow(I - B)]);
    for (size_t I = B; I < E; ++I)
      Stream.push_back(At[I].second);
  }
  for (unsigned H = 0; H < HostileRequests; ++H)
    Stream.insert(Stream.begin() + Rng.nextBelow(Stream.size() + 1),
                  HostileKey);
  return Stream;
}

/// The one-shot path `ssp-adapt` takes for the same texts and options:
/// the response the daemon must reproduce byte for byte. Fills K.Binary.
std::string oneShot(const Source &P, const Variant &V, const std::string &Id,
                    Key &K, RunResult &R) {
  ir::Program Prog;
  profile::ProfileData PD;
  std::string Err;
  if (!ir::parseProgram(P.Text, Prog, Err) ||
      !profile::parseProfileText(P.Profile, PD, Err)) {
    R.fail(P.W.Name + ": reference parse: " + Err);
    return "";
  }
  core::ToolOptions TO;
  TO.FatalOnVerifyError = false;
  V.Apply(TO);
  core::PostPassTool Tool(Prog, PD, TO);
  core::AdaptationReport Rep;
  ir::Program E = Tool.adapt(&Rep);
  if (Rep.VerifyErrors != 0)
    R.fail(P.W.Name + "/" + V.Name + ": one-shot binary has verify errors");
  std::string Report = core::renderReportText(PD.BaselineCycles, Rep);
  K.Binary = E.str();
  return "response " + Id + " ok\nreport " + std::to_string(Report.size()) +
         "\n" + Report + "\nbinary " + std::to_string(K.Binary.size()) +
         "\n" + K.Binary + "\nend\n";
}

/// Cycles of one simulation, with its checksum checked.
uint64_t simulate(const ir::Program &P, const Source &Src, bool OOO,
                  const std::string &What, RunResult &R) {
  ir::LinkedProgram LP = ir::LinkedProgram::link(P);
  mem::SimMemory Mem;
  Src.W.BuildMemory(Mem);
  sim::Simulator Sim(OOO ? sim::MachineConfig::outOfOrder()
                         : sim::MachineConfig::inOrder(),
                     LP, Mem);
  sim::SimStats St = Sim.run();
  if (Mem.read(workloads::ResultAddr) != Src.Checksum)
    R.fail(What + ": wrong checksum");
  return St.Cycles;
}

/// Served-binary checks, outside set-up and the timed passes: every
/// distinct served binary re-parses, verifies against its original with 0
/// errors, and stores the expected checksum on both models. Fills the
/// simulated speedups of what the service served.
void checkServed(const std::vector<Source> &Progs,
                 const std::vector<Key> &Keys, unsigned Jobs,
                 RunResult &R) {
  std::vector<ir::Program> Orig(Progs.size());
  std::vector<uint64_t> BaseOOO(Progs.size()), IO(Keys.size()),
      OOO(Keys.size());
  for (size_t P = 0; P < Progs.size(); ++P) {
    std::string Err;
    if (!ir::parseProgram(Progs[P].Text, Orig[P], Err))
      R.fail(Progs[P].W.Name + ": " + Err);
  }
  std::vector<RunResult> Part(Progs.size() + Keys.size());
  support::ThreadPool Pool(Jobs);
  Pool.parallelFor(Progs.size() + Keys.size(), [&](size_t I) {
    if (I < Progs.size()) {
      BaseOOO[I] = simulate(Orig[I], Progs[I], true,
                            Progs[I].W.Name + " baseline", Part[I]);
      return;
    }
    const Key &K = Keys[I - Progs.size()];
    const Source &Src = Progs[K.Prog];
    std::string What = Src.W.Name + "/" + Variants[K.Var].Name;
    RunResult &Check = Part[I];
    if (!K.Served)
      Check.fail(What + ": never served");
    ir::Program B;
    std::string Err;
    if (!ir::parseProgram(K.Binary, B, Err)) {
      Check.fail(What + ": served binary does not re-parse: " + Err);
      return;
    }
    verify::VerifyContext Ctx{B, &Orig[K.Prog], nullptr};
    if (unsigned N = verify::runStandardPipeline(Ctx).errorCount())
      Check.fail(What + ": " + std::to_string(N) + " verify error(s)");
    IO[I - Progs.size()] = simulate(B, Src, false, What + " io", Check);
    OOO[I - Progs.size()] = simulate(B, Src, true, What + " ooo", Check);
  });
  for (const RunResult &Check : Part)
    R.Correct &= Check.Correct;

  std::vector<double> SpIO, SpOOO;
  for (size_t I = 0; I < Keys.size(); ++I) {
    const Key &K = Keys[I];
    const Source &Src = Progs[K.Prog];
    SpIO.push_back(static_cast<double>(Src.BaselineCycles) / IO[I]);
    SpOOO.push_back(static_cast<double>(BaseOOO[K.Prog]) / OOO[I]);
    std::printf("detail serve-mixed %s/%s count %u bytes %zu io %.4f ooo "
                "%.4f\n",
                Src.W.Name.c_str(), Variants[K.Var].Name, K.Count,
                K.Request.size() + (K.Served ? K.Served->Size : 0),
                SpIO.back(), SpOOO.back());
  }
  R.set("speedup_io_gmean", geomean(SpIO), "x");
  R.set("speedup_ooo_gmean", geomean(SpOOO), "x");
  R.set("ssp_over_ooo_min", *std::min_element(SpOOO.begin(), SpOOO.end()),
        "x");
}

/// Per-pass service figures that must repeat exactly.
struct PassCounts {
  uint64_t Hits = 0, Misses = 0, Evictions = 0;
};

} // namespace

void perfbench::runServeMixed(const RunOptions &O, RunResult &R) {
  std::vector<Source> Progs;
  std::vector<Key> Keys;
  double BuildMs = 0;
  HostSpeed HS;
  R.set("setup_s", medianSetupSeconds(HS, [&] {
          Progs.clear();
          Keys.clear();
          BuildMs = 0;
          for (workloads::Workload &W : corpus()) {
            Clock::time_point Start = Clock::now();
            ir::Program P = W.Build();
            mem::SimMemory Mem;
            uint64_t Checksum = W.BuildMemory(Mem);
            BuildMs += msSince(Start);
            profile::ProfileData PD = core::profileProgram(P, W.BuildMemory);
            Progs.push_back({W, P.str(), profile::writeProfileText(PD),
                             PD.BaselineCycles, Checksum});
          }
          for (size_t P = 0; P < Progs.size(); ++P)
            for (size_t V = 0; V < NumVariants; ++V) {
              Key K;
              K.Prog = P;
              K.Var = V;
              K.Request = framed("k" + std::to_string(Keys.size()), Progs[P],
                                 Variants[V]);
              Keys.push_back(std::move(K));
            }
          assignCounts(Keys, Progs.size());
        }),
        "s");

  std::vector<size_t> Stream = seededStream(Keys, O.Seed);
  double RequestBytes = 0;
  for (size_t I : Stream)
    if (I != HostileKey)
      RequestBytes += static_cast<double>(Keys[I].Request.size());

  unsigned Jobs = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  Layers L(O.Trace);
  obs::Registry Stages; // serve.* and adapt.* timers summed over passes.
  std::vector<double> PassMs, RawPassMs, OpMs, HitMs, MissMs;
  std::optional<PassCounts> FirstCounts;
  uint64_t WarmBuilds = 0, Loads = 0, Slices = 0, Triggers = 0;
  Clock::time_point TimedStart = Clock::now();
  for (unsigned Pass = 0; Pass < 2 || msSince(TimedStart) < O.Seconds * 1e3;
       ++Pass) {
    PassTimer PT(HS);
    obs::Registry Reg;
    core::ServeOptions SO;
    SO.Jobs = Jobs;
    SO.CacheBytes = CacheBytes;
    SO.WarmPrograms = WarmPrograms;
    SO.Metrics = O.Trace ? &Reg : nullptr;
    core::AdaptService S(SO);
    double Scale = 1;
    for (size_t At = 0; At < Stream.size(); ++At) {
      size_t I = Stream[At];
      if (At % CalibrateEvery == 0)
        Scale = PT.calibrate();
      const std::string &Req = I == HostileKey ? Hostile : Keys[I].Request;
      uint64_t HitsBefore = S.cache().stats().Hits;
      Clock::time_point OpStart = Clock::now();
      std::string Out;
      bool Threw = false;
      try {
        Out = L.span("serve.batch_ms", [&] { return S.processBatch(Req); });
      } catch (const std::exception &) {
        Threw = true;
      }
      double RawMs = msSince(OpStart);
      double Ms = RawMs * Scale;
      ++R.Attempted;
      if (I == HostileKey) {
        if (Threw)
          ++R.Failed;
        else if (Out.compare(0, 19, "response bad error\n") != 0)
          R.fail("hostile frame answered without an error response");
        continue;
      }
      if (Threw) {
        R.fail(Progs[Keys[I].Prog].W.Name + ": processBatch threw");
        continue;
      }
      Digest D(Out);
      if (!Keys[I].Served)
        Keys[I].Served = D;
      else if (*Keys[I].Served != D)
        R.fail(Progs[Keys[I].Prog].W.Name + "/" + Variants[Keys[I].Var].Name +
               ": response differs from an earlier one");
      OpMs.push_back(Ms);
      (S.cache().stats().Hits > HitsBefore ? HitMs : MissMs).push_back(RawMs);
    }
    PT.finish(PassMs, RawPassMs);

    const core::ServeCache::Stats &St = S.cache().stats();
    PassCounts C{St.Hits, St.Misses, St.Evictions};
    if (!FirstCounts)
      FirstCounts = C;
    R.samePerPass("cache hits", FirstCounts->Hits, C.Hits);
    R.samePerPass("cache misses", FirstCounts->Misses, C.Misses);
    R.samePerPass("cache evictions", FirstCounts->Evictions, C.Evictions);
    if (O.Trace) {
      for (const char *T :
           {"serve.lookup_ms", "serve.analysis_ms", "serve.adapt_ms",
            "serve.respond_ms", "adapt.analysis_ms", "adapt.candidates_ms",
            "adapt.combine_ms", "adapt.triggers_ms", "adapt.rewrite_ms",
            "adapt.verify_ms"})
        Stages.addTimeMs(T, Reg.timeMs(T));
      WarmBuilds = Reg.counter("serve.warm_builds");
      Loads = Reg.counter("adapt.delinquent_loads");
      Slices = Reg.counter("adapt.slices");
      Triggers = Reg.counter("adapt.triggers_inserted");
    }
  }
  double Peak = peakRssMb();

  // Reference responses, after the timed passes and the peak.
  for (size_t I = 0; I < Keys.size(); ++I) {
    Key &K = Keys[I];
    std::string Expected = oneShot(Progs[K.Prog], Variants[K.Var],
                                   "k" + std::to_string(I), K, R);
    if (K.Served && *K.Served != Digest(Expected))
      R.fail(Progs[K.Prog].W.Name + "/" + Variants[K.Var].Name +
             ": response differs from the one-shot path");
  }
  checkServed(Progs, Keys, Jobs, R);

  double Passes = static_cast<double>(PassMs.size());
  R.set("peak_rss_mb", Peak, "MB");
  R.set("pass_s", median(PassMs) / 1e3, "s");
  printHostDetail("serve-mixed", HS, RawPassMs);
  R.set("op_p50_ms", median(OpMs), "ms");
  R.set("op_p995_ms", percentile(OpMs, 99.5), "ms");
  if (!O.Trace)
    return;

  reportSpans(R, L, PassMs, RawPassMs, HS);
  R.set("workloads.build_ms", BuildMs, "ms");
  reportAdaptStages(R, Stages, -1, Passes);
  double StageMs = 0;
  for (const char *T : {"serve.lookup_ms", "serve.analysis_ms",
                        "serve.adapt_ms", "serve.respond_ms"}) {
    R.set(T, Stages.timeMs(T) / Passes, "ms");
    StageMs += Stages.timeMs(T);
  }
  R.set("serve.unattributed_ms",
        (L.ms("serve.batch_ms") - StageMs) / Passes, "ms");
  R.set("serve.hit_p50_ms", median(HitMs), "ms");
  R.set("serve.miss_p50_ms", median(MissMs), "ms");
  R.set("serve.request_kb_avg",
        RequestBytes / 1024.0 / (PassRequests - HostileRequests), "KB");
  R.set("serve.hits", FirstCounts->Hits, "count");
  R.set("serve.misses", FirstCounts->Misses, "count");
  R.set("serve.evictions", FirstCounts->Evictions, "count");
  R.set("serve.warm_builds", WarmBuilds, "count");
  R.set("adapt.delinquent_loads", Loads, "count");
  R.set("adapt.slices", Slices, "count");
  R.set("adapt.triggers", Triggers, "count");
}
