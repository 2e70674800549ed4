//===- tests/golden_test.cpp - Committed SimStats digests ------------------===//
//
// Pins the simulator's complete output. Every SimStats field (cycles, the
// Figure 10 categories, instruction and spawn counters, the skip
// diagnostics, cache totals, the per-load profile and the per-trigger
// attribution including LateCycles) is folded into one FNV-1a digest per
// run and compared against the committed table below. The runs cover
// workloads::fullSuite() x {baseline, default-adapted, streams-adapted} x
// {in-order, out-of-order} as exact simulations, plus the default-adapted
// binary on the out-of-order model with dynamic throttling on and on both
// models under SamplingPlan::defaults().
//
// The other simulator tests compare two modes of the same build (skip vs
// no-skip, sampled vs exact); this one catches a change that moves both
// sides alike. A change that is meant to move simulated figures updates
// the table: a failing run prints its replacement row.
//
//===----------------------------------------------------------------------===//

#include "core/PostPassTool.h"
#include "harness/Experiment.h"
#include "support/Hash.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

using namespace ssp;
using namespace ssp::harness;

namespace {

struct Golden {
  const char *Workload;
  const char *Run;
  uint64_t Digest;
};

// clang-format off
const Golden Table[] = {
    {"em3d", "base-io", 0xd9aef0555e79cde9ULL},
    {"em3d", "base-ooo", 0x0f20493448767ebeULL},
    {"em3d", "ssp-io", 0xae493838ff3515bcULL},
    {"em3d", "ssp-ooo", 0x688d6d903d30c31eULL},
    {"em3d", "streams-io", 0xae493838ff3515bcULL},
    {"em3d", "streams-ooo", 0x688d6d903d30c31eULL},
    {"em3d", "ssp-ooo-throttle", 0x688d6d903d30c31eULL},
    {"em3d", "ssp-io-sampled", 0x6f101de3a9f1725dULL},
    {"em3d", "ssp-ooo-sampled", 0x06285d8adb02ae1cULL},
    {"health", "base-io", 0x23e5fd62cb92b3bcULL},
    {"health", "base-ooo", 0x983d24fbbf58dee3ULL},
    {"health", "ssp-io", 0x6b02378c21a0fea7ULL},
    {"health", "ssp-ooo", 0xc33375629bcd16a7ULL},
    {"health", "streams-io", 0x6b02378c21a0fea7ULL},
    {"health", "streams-ooo", 0xc33375629bcd16a7ULL},
    {"health", "ssp-ooo-throttle", 0xc33375629bcd16a7ULL},
    {"health", "ssp-io-sampled", 0x6521f1ca0b33d640ULL},
    {"health", "ssp-ooo-sampled", 0xe06421f58ada08fcULL},
    {"mst", "base-io", 0xb0362e6b64b5ecc6ULL},
    {"mst", "base-ooo", 0x0064876832c5b711ULL},
    {"mst", "ssp-io", 0x6bbb1026e9e4f3d6ULL},
    {"mst", "ssp-ooo", 0xeb597c29d96cb557ULL},
    {"mst", "streams-io", 0x6bbb1026e9e4f3d6ULL},
    {"mst", "streams-ooo", 0xeb597c29d96cb557ULL},
    {"mst", "ssp-ooo-throttle", 0xeb597c29d96cb557ULL},
    {"mst", "ssp-io-sampled", 0x93119424b1180c59ULL},
    {"mst", "ssp-ooo-sampled", 0xa617ecac87e975dfULL},
    {"treeadd.df", "base-io", 0xbed6a55b6a5354e9ULL},
    {"treeadd.df", "base-ooo", 0xbe8b5fa64006fc56ULL},
    {"treeadd.df", "ssp-io", 0x7d6328238af3e668ULL},
    {"treeadd.df", "ssp-ooo", 0x4abfda2725b58d63ULL},
    {"treeadd.df", "streams-io", 0x7d6328238af3e668ULL},
    {"treeadd.df", "streams-ooo", 0x4abfda2725b58d63ULL},
    {"treeadd.df", "ssp-ooo-throttle", 0x668104e37efe0855ULL},
    {"treeadd.df", "ssp-io-sampled", 0x537444aa8da92963ULL},
    {"treeadd.df", "ssp-ooo-sampled", 0xb549d342eeba2bbaULL},
    {"treeadd.bf", "base-io", 0x17142e171d8b3f3dULL},
    {"treeadd.bf", "base-ooo", 0x1ab4873cc0979863ULL},
    {"treeadd.bf", "ssp-io", 0x8fa943e69dcaee98ULL},
    {"treeadd.bf", "ssp-ooo", 0xf44a2bc1666862b9ULL},
    {"treeadd.bf", "streams-io", 0x663edf7d69996754ULL},
    {"treeadd.bf", "streams-ooo", 0x984268ed035e016bULL},
    {"treeadd.bf", "ssp-ooo-throttle", 0xf44a2bc1666862b9ULL},
    {"treeadd.bf", "ssp-io-sampled", 0x4fc22f58e62d584fULL},
    {"treeadd.bf", "ssp-ooo-sampled", 0x70bcbc218fc0b5cfULL},
    {"mcf", "base-io", 0x9e84bd1d89f16487ULL},
    {"mcf", "base-ooo", 0xcc74b97d8f8323b6ULL},
    {"mcf", "ssp-io", 0xbc19ea435fd40a6aULL},
    {"mcf", "ssp-ooo", 0x7fd8563af7cca19fULL},
    {"mcf", "streams-io", 0x29ffff53d73bb63dULL},
    {"mcf", "streams-ooo", 0x2e8e78a8f30b89d1ULL},
    {"mcf", "ssp-ooo-throttle", 0xae8a1ae0f8bfac9dULL},
    {"mcf", "ssp-io-sampled", 0xaa8699411992395dULL},
    {"mcf", "ssp-ooo-sampled", 0x3cde995b49bb2df1ULL},
    {"vpr", "base-io", 0xf3bb543f9cb7d2d2ULL},
    {"vpr", "base-ooo", 0xc330f5f16c8bb183ULL},
    {"vpr", "ssp-io", 0x9d4a321553f0fb56ULL},
    {"vpr", "ssp-ooo", 0x338eff2579c2b94aULL},
    {"vpr", "streams-io", 0x9d4a321553f0fb56ULL},
    {"vpr", "streams-ooo", 0x338eff2579c2b94aULL},
    {"vpr", "ssp-ooo-throttle", 0x338eff2579c2b94aULL},
    {"vpr", "ssp-io-sampled", 0x6f2ac718d9a9a712ULL},
    {"vpr", "ssp-ooo-sampled", 0x01e43f3fbf3e1f14ULL},
    {"hashjoin", "base-io", 0xb2770ad2b950396aULL},
    {"hashjoin", "base-ooo", 0x9dfc30c0ddd0736aULL},
    {"hashjoin", "ssp-io", 0xa1040542807d4d81ULL},
    {"hashjoin", "ssp-ooo", 0x1175948151820f28ULL},
    {"hashjoin", "streams-io", 0xb56306ecf565fc9bULL},
    {"hashjoin", "streams-ooo", 0xce4c99e0d3237eccULL},
    {"hashjoin", "ssp-ooo-throttle", 0x1175948151820f28ULL},
    {"hashjoin", "ssp-io-sampled", 0x3a79503a9be2358bULL},
    {"hashjoin", "ssp-ooo-sampled", 0x4f1d35ab1de0cda4ULL},
    {"pagerank", "base-io", 0x38c7e005088c5c23ULL},
    {"pagerank", "base-ooo", 0x3cb91f5ae8f9efeaULL},
    {"pagerank", "ssp-io", 0x5bee27bf216dc561ULL},
    {"pagerank", "ssp-ooo", 0x6a3cc65baca35852ULL},
    {"pagerank", "streams-io", 0x83643a9e9d4ff87bULL},
    {"pagerank", "streams-ooo", 0x13307aba74517c6fULL},
    {"pagerank", "ssp-ooo-throttle", 0x6a3cc65baca35852ULL},
    {"pagerank", "ssp-io-sampled", 0x400ee4d966ea653dULL},
    {"pagerank", "ssp-ooo-sampled", 0xea9bdcc89d5a1619ULL},
    {"oahash", "base-io", 0xc10513bbbfd058daULL},
    {"oahash", "base-ooo", 0xc54181828dc1a434ULL},
    {"oahash", "ssp-io", 0xf0bc8c5725746a7fULL},
    {"oahash", "ssp-ooo", 0xd412b9e0a472dd41ULL},
    {"oahash", "streams-io", 0x66593cb1c5d21448ULL},
    {"oahash", "streams-ooo", 0x180cf422ec319233ULL},
    {"oahash", "ssp-ooo-throttle", 0xd412b9e0a472dd41ULL},
    {"oahash", "ssp-io-sampled", 0x2faec2326603d421ULL},
    {"oahash", "ssp-ooo-sampled", 0x1529020ffe9e2a47ULL},
};
// clang-format on

/// Folds every SimStats field into one digest.
uint64_t digestOf(const sim::SimStats &S) {
  uint64_t H = support::HashSeed;
  auto Mix = [&H](uint64_t V) { H = support::hashValue(V, H); };
  for (uint64_t V :
       {S.Cycles, S.MainInsts, S.SpecInsts, S.TriggersFired,
        S.TriggersIgnored, S.SpawnsSucceeded, S.SpawnsDropped,
        S.SpecWildLoads, S.SpecPrefetches, S.UsefulPrefetches,
        S.ThrottleEvents, S.StreamActivations, S.StreamSteps, S.Branches,
        S.BranchMispredicts, S.SkippedCycles, S.SkipEvents,
        uint64_t(S.Sampled), S.SampleIntervals, S.SampleDetailInsts,
        S.SampleFunctionalInsts, S.SampleRampInsts})
    Mix(V);
  for (uint64_t C : S.CatCycles)
    Mix(C);
  const cache::CacheHierarchy::Totals &T = S.CacheTotals;
  Mix(T.Accesses);
  for (unsigned L = 0; L < 4; ++L) {
    Mix(T.Hits[L]);
    Mix(T.Partials[L]);
  }
  Mix(T.FillBufferStallCycles);
  Mix(T.TLBMisses);
  Mix(S.LoadProfile.size());
  for (const auto &[Sid, P] : S.LoadProfile) {
    Mix(Sid);
    Mix(P.Accesses);
    Mix(P.MissCycles);
    for (unsigned L = 0; L < 4; ++L) {
      Mix(P.Hits[L]);
      Mix(P.Partials[L]);
    }
  }
  Mix(S.Attribution.size());
  for (const sim::PrefetchAttribution &A : S.Attribution) {
    Mix(A.Trigger);
    Mix(A.Slice);
    Mix(A.Spawns);
    Mix(A.MaxChainDepth);
    for (uint64_t F : A.Fates)
      Mix(F);
    Mix(A.LateCycles);
  }
  return H;
}

const Golden *find(const std::string &Workload, const std::string &Run) {
  for (const Golden &G : Table)
    if (Workload == G.Workload && Run == G.Run)
      return &G;
  return nullptr;
}

void expectDigest(const workloads::Workload &W, const std::string &Run,
                  const ir::Program &P, const sim::MachineConfig &Cfg) {
  bool ChecksumOk = false;
  sim::SimStats S = SuiteRunner::simulate(P, W, Cfg, &ChecksumOk);
  EXPECT_TRUE(ChecksumOk) << W.Name << " " << Run;
  uint64_t D = digestOf(S);
  const Golden *G = find(W.Name, Run);
  char Row[128];
  std::snprintf(Row, sizeof(Row), "{\"%s\", \"%s\", 0x%016" PRIx64 "ULL},",
                W.Name.c_str(), Run.c_str(), D);
  if (!G)
    ADD_FAILURE() << "no committed digest; add the row\n  " << Row;
  else if (G->Digest != D)
    ADD_FAILURE() << "SimStats digest moved (cycles " << S.Cycles
                  << ", main insts " << S.MainInsts << "); new row\n  "
                  << Row;
}

class SimStatsGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(SimStatsGolden, MatchesCommittedDigests) {
  workloads::Workload W;
  for (workloads::Workload &C : workloads::fullSuite())
    if (C.Name == GetParam())
      W = C;
  ASSERT_EQ(W.Name, GetParam());

  SuiteRunner Runner;
  const ir::Program &Orig = Runner.originalOf(W);
  const profile::ProfileData &PD = Runner.profileOf(W);
  core::ToolOptions StreamOpts;
  StreamOpts.EnableStreams = true;
  ir::Program Adapted = core::PostPassTool(Orig, PD, Runner.options()).adapt();
  ir::Program Streams = core::PostPassTool(Orig, PD, StreamOpts).adapt();

  const sim::MachineConfig IO = sim::MachineConfig::inOrder();
  const sim::MachineConfig OOO = sim::MachineConfig::outOfOrder();
  expectDigest(W, "base-io", Orig, IO);
  expectDigest(W, "base-ooo", Orig, OOO);
  expectDigest(W, "ssp-io", Adapted, IO);
  expectDigest(W, "ssp-ooo", Adapted, OOO);
  expectDigest(W, "streams-io", Streams, IO);
  expectDigest(W, "streams-ooo", Streams, OOO);
  sim::MachineConfig Throttled = OOO;
  Throttled.EnableSSPThrottle = true;
  expectDigest(W, "ssp-ooo-throttle", Adapted, Throttled);
  // Sampled runs drain the pipeline at every interval boundary.
  sim::MachineConfig SampledIO = IO, SampledOOO = OOO;
  SampledIO.Sample = SampledOOO.Sample = sim::SamplingPlan::defaults();
  expectDigest(W, "ssp-io-sampled", Adapted, SampledIO);
  expectDigest(W, "ssp-ooo-sampled", Adapted, SampledOOO);
}

std::vector<std::string> suiteNames() {
  std::vector<std::string> Names;
  for (const workloads::Workload &W : workloads::fullSuite())
    Names.push_back(W.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(FullSuite, SimStatsGolden,
                         ::testing::ValuesIn(suiteNames()),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           for (char &C : N)
                             if (C == '.' || C == '-')
                               C = '_';
                           return N;
                         });

} // namespace
