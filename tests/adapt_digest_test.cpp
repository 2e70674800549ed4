//===- tests/adapt_digest_test.cpp - Committed adaptation digests ---------===//
//
// Pins the adaptation tool's complete output. For every program of
// workloads::fullSuite() plus a stress program, and for each of the four
// option variants the serving benchmark sends (default, streams,
// speculative dependences at 0.05, inner-loop unrolling by four), the
// rendered report text and the adapted binary's program text are folded
// into one FNV-1a digest and compared against the committed table below.
//
// Each variant is adapted twice: once through AnalysisCache's stand-alone
// constructor, and once over a ProgramAnalyses shared by all four
// variants of the program (the serving daemon's layering). Both must hit
// the committed digest. A change that is meant to move an adaptation
// updates the table: a failing case prints its replacement row.
//
//===----------------------------------------------------------------------===//

#include "ProfiledFixture.h"
#include "core/AnalysisCache.h"
#include "core/OptionTable.h"
#include "core/PostPassTool.h"
#include "core/ReportRender.h"
#include "support/Hash.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <memory>

using namespace ssp;
using namespace ssp::core;
using namespace ssp::workloads;

namespace {

struct Golden {
  const char *Workload;
  const char *Variant;
  uint64_t Digest;
};

// clang-format off
const Golden Table[] = {
    {"em3d", "default", 0x96e6efadf9a3084dULL},
    {"em3d", "streams", 0x96e6efadf9a3084dULL},
    {"em3d", "spec-deps", 0x96e6efadf9a3084dULL},
    {"em3d", "inner-unroll", 0x96e6efadf9a3084dULL},
    {"health", "default", 0x8db2cfb09ee3396cULL},
    {"health", "streams", 0x8db2cfb09ee3396cULL},
    {"health", "spec-deps", 0x8db2cfb09ee3396cULL},
    {"health", "inner-unroll", 0x8db2cfb09ee3396cULL},
    {"mst", "default", 0x46476f1f29e15bb5ULL},
    {"mst", "streams", 0x46476f1f29e15bb5ULL},
    {"mst", "spec-deps", 0x46476f1f29e15bb5ULL},
    {"mst", "inner-unroll", 0x00c190e3598b1d3bULL},
    {"treeadd.df", "default", 0x36d16ae89d0f7c4fULL},
    {"treeadd.df", "streams", 0x36d16ae89d0f7c4fULL},
    {"treeadd.df", "spec-deps", 0x36d16ae89d0f7c4fULL},
    {"treeadd.df", "inner-unroll", 0x36d16ae89d0f7c4fULL},
    {"treeadd.bf", "default", 0x890525e3b7ce29a5ULL},
    {"treeadd.bf", "streams", 0x8a4dc40cf40db6bfULL},
    {"treeadd.bf", "spec-deps", 0x890525e3b7ce29a5ULL},
    {"treeadd.bf", "inner-unroll", 0x890525e3b7ce29a5ULL},
    {"mcf", "default", 0x547248a15ece75c3ULL},
    {"mcf", "streams", 0x40ff6d05fa6d1dabULL},
    {"mcf", "spec-deps", 0xee021223ff0b4465ULL},
    {"mcf", "inner-unroll", 0x547248a15ece75c3ULL},
    {"vpr", "default", 0x3bf30698199b5688ULL},
    {"vpr", "streams", 0x3bf30698199b5688ULL},
    {"vpr", "spec-deps", 0xc82b69ed73c558f0ULL},
    {"vpr", "inner-unroll", 0x3bf30698199b5688ULL},
    {"hashjoin", "default", 0x3c2331575e2e7ff9ULL},
    {"hashjoin", "streams", 0xb8026daba1e7129cULL},
    {"hashjoin", "spec-deps", 0x3c2331575e2e7ff9ULL},
    {"hashjoin", "inner-unroll", 0x3c2331575e2e7ff9ULL},
    {"pagerank", "default", 0x06b3e89c11a433e9ULL},
    {"pagerank", "streams", 0xd1e0fa887bc8e674ULL},
    {"pagerank", "spec-deps", 0x06b3e89c11a433e9ULL},
    {"pagerank", "inner-unroll", 0x06b3e89c11a433e9ULL},
    {"oahash", "default", 0x738c53aa293be435ULL},
    {"oahash", "streams", 0x478016c6cf949ccbULL},
    {"oahash", "spec-deps", 0x738c53aa293be435ULL},
    {"oahash", "inner-unroll", 0x738c53aa293be435ULL},
    {"stress(32x8x2)", "default", 0x0dad22571052bc32ULL},
    {"stress(32x8x2)", "streams", 0x0dad22571052bc32ULL},
    {"stress(32x8x2)", "spec-deps", 0x0dad22571052bc32ULL},
    {"stress(32x8x2)", "inner-unroll", 0x1212c476871e5e64ULL},
};
// clang-format on

struct Variant {
  const char *Name;
  std::vector<std::pair<std::string, std::string>> Options;
};

const Variant Variants[] = {
    {"default", {}},
    {"streams", {{"streams", "1"}}},
    {"spec-deps", {{"spec-deps", "1"}, {"spec-threshold", "0.05"}}},
    {"inner-unroll", {{"inner-unroll", "4"}}},
};

ToolOptions optionsOf(const Variant &V) {
  ToolOptions TO;
  TO.FatalOnVerifyError = false;
  for (const auto &[Key, Value] : V.Options) {
    std::string Msg;
    EXPECT_TRUE(applyOption(TO, Key, Value, Msg)) << Msg;
  }
  return TO;
}

uint64_t digestOf(const ProfiledWorkload &PW, const ToolOptions &TO,
                  const AnalysisCache &AC) {
  PostPassTool Tool(PW.P, PW.PD, TO);
  AdaptationReport Rep;
  ir::Program Enhanced = Tool.adaptWith(&AC, &Rep);
  uint64_t H =
      support::hashString(renderReportText(PW.PD.BaselineCycles, Rep));
  H = support::hashValue(0, H); // Separates the two texts.
  return support::hashString(Enhanced.str(), H);
}

void expectDigest(const std::string &Workload, const Variant &V,
                  uint64_t D) {
  const Golden *G = nullptr;
  for (const Golden &Row : Table)
    if (Workload == Row.Workload && std::string(V.Name) == Row.Variant)
      G = &Row;
  char Row[128];
  std::snprintf(Row, sizeof(Row), "{\"%s\", \"%s\", 0x%016" PRIx64 "ULL},",
                Workload.c_str(), V.Name, D);
  if (!G)
    ADD_FAILURE() << "no committed digest; add the row\n  " << Row;
  else if (G->Digest != D)
    ADD_FAILURE() << "adaptation digest moved; new row\n  " << Row;
}

class AdaptDigest : public ::testing::TestWithParam<std::string> {};

TEST_P(AdaptDigest, MatchesCommittedDigests) {
  Workload W = makeStress(32, 8, 2);
  for (Workload &C : fullSuite())
    if (C.Name == GetParam())
      W = C;
  ASSERT_EQ(W.Name, GetParam());
  const ProfiledWorkload &PW = profiledWorkload(W);

  auto Shared = std::make_shared<const ProgramAnalyses>(PW.P, PW.PD);
  for (const Variant &V : Variants) {
    SCOPED_TRACE(V.Name);
    ToolOptions TO = optionsOf(V);
    AnalysisCache Own(PW.P, PW.PD, PostPassTool::sliceOptionsOf(TO),
                      PostPassTool::scheduleOptionsOf(TO),
                      PostPassTool::specDepOptionsOf(TO));
    expectDigest(W.Name, V, digestOf(PW, TO, Own));
    AnalysisCache OverShared(Shared, PostPassTool::sliceOptionsOf(TO),
                             PostPassTool::scheduleOptionsOf(TO),
                             PostPassTool::specDepOptionsOf(TO));
    expectDigest(W.Name, V, digestOf(PW, TO, OverShared));
  }
}

std::vector<std::string> programNames() {
  std::vector<std::string> Names;
  for (const Workload &W : fullSuite())
    Names.push_back(W.Name);
  Names.push_back(makeStress(32, 8, 2).Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(Corpus, AdaptDigest,
                         ::testing::ValuesIn(programNames()),
                         [](const auto &Info) {
                           std::string N = Info.param;
                           for (char &C : N)
                             if (!std::isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return N;
                         });

} // namespace
