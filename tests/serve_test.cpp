//===- tests/serve_test.cpp - AdaptService protocol and cache behavior ----===//
//
// End-to-end coverage of the adaptation-as-a-service engine: cache hits
// must be byte-identical to cold misses and to the one-shot library
// path, eviction must honor the byte budget, hash collisions must fall
// back to the full-key compare, responses must be deterministic for any
// --jobs, option states of one program must share its program layer, and
// malformed requests must produce located error responses without killing
// the service.
//
//===----------------------------------------------------------------------===//

#include "ProfiledFixture.h"
#include "core/AdaptService.h"
#include "core/OptionTable.h"
#include "core/PostPassTool.h"
#include "core/ReportRender.h"
#include "obs/Registry.h"
#include "profile/ProfileIO.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace ssp;
using namespace ssp::core;
using namespace ssp::workloads;

namespace {

/// Request/response framing helpers mirroring the protocol grammar in
/// core/AdaptService.h.
std::string frameRequest(const std::string &Id, const std::string &Prog,
                         const std::string &Prof,
                         const std::vector<std::string> &Options = {}) {
  std::string S = "request " + Id + "\n";
  S += "program " + std::to_string(Prog.size()) + "\n" + Prog + "\n";
  S += "profile " + std::to_string(Prof.size()) + "\n" + Prof + "\n";
  for (const std::string &O : Options)
    S += "option " + O + "\n";
  S += "end\n";
  return S;
}

std::string okResponse(const std::string &Id, const std::string &Report,
                       const std::string &Binary) {
  return "response " + Id + " ok\nreport " + std::to_string(Report.size()) +
         "\n" + Report + "\nbinary " + std::to_string(Binary.size()) + "\n" +
         Binary + "\nend\n";
}

/// The texts a client would send for workload \p W, plus the expected
/// one-shot result computed through the library path the `ssp-adapt`
/// tool uses.
struct Job {
  std::string Prog, Prof;     // Request payloads.
  std::string Report, Binary; // Expected response payloads.
};

Job makeJob(const Workload &W, const std::vector<std::string> &Options = {}) {
  const ProfiledWorkload &PW = profiledWorkload(W);
  Job J;
  J.Prog = PW.P.str();
  J.Prof = profile::writeProfileText(PW.PD);
  ToolOptions TO;
  TO.FatalOnVerifyError = false;
  for (const std::string &O : Options) {
    size_t Eq = O.find('=');
    std::string Msg;
    EXPECT_TRUE(applyOption(TO, O.substr(0, Eq), O.substr(Eq + 1), Msg))
        << Msg;
  }
  PostPassTool Tool(PW.P, PW.PD, TO);
  AdaptationReport Rep;
  ir::Program Enhanced = Tool.adapt(&Rep);
  J.Report = renderReportText(PW.PD.BaselineCycles, Rep);
  J.Binary = Enhanced.str();
  return J;
}

TEST(Serve, HitIsByteIdenticalToColdMissAndOneShot) {
  Job J = makeJob(makeMcf());
  AdaptService S(ServeOptions{});

  // Cold miss: the response carries exactly the one-shot library result.
  std::string Cold = S.processBatch(frameRequest("r1", J.Prog, J.Prof));
  EXPECT_EQ(Cold, okResponse("r1", J.Report, J.Binary));
  EXPECT_EQ(S.cache().stats().Misses, 1u);
  EXPECT_EQ(S.cache().stats().Hits, 0u);

  // Warm hit, across a flush boundary: identical bytes modulo the id.
  std::string Warm = S.processBatch(frameRequest("r2", J.Prog, J.Prof));
  EXPECT_EQ(Warm, okResponse("r2", J.Report, J.Binary));
  EXPECT_EQ(S.cache().stats().Hits, 1u);
  EXPECT_EQ(S.cache().stats().Misses, 1u);
  EXPECT_EQ(S.cache().size(), 1u);
}

TEST(Serve, OptionSpellingsShareOneCacheKey) {
  Job J = makeJob(makeTreeaddDF());
  AdaptService S(ServeOptions{});
  std::string A = S.processBatch(
      frameRequest("a", J.Prog, J.Prof, {"speculative=true"}));
  std::string B =
      S.processBatch(frameRequest("b", J.Prog, J.Prof, {"speculative=1"}));
  // Canonicalized options: the second spelling is a hit, not a second
  // entry, and serves the same payload bytes.
  EXPECT_EQ(S.cache().size(), 1u);
  EXPECT_EQ(S.cache().stats().Hits, 1u);
  EXPECT_EQ(A.substr(A.find('\n')), B.substr(B.find('\n')));
}

TEST(Serve, DistinctOptionsGetDistinctEntries) {
  Job J = makeJob(makeTreeaddBF());
  AdaptService S(ServeOptions{});
  S.processBatch(frameRequest("a", J.Prog, J.Prof));
  S.processBatch(frameRequest("b", J.Prog, J.Prof, {"max-loads=1"}));
  EXPECT_EQ(S.cache().size(), 2u);
  EXPECT_EQ(S.cache().stats().Misses, 2u);
}

TEST(Serve, OptionalPayloadNewlineSupportsCatFraming) {
  Job J = makeJob(makeEm3d());
  AdaptService S(ServeOptions{});
  // Shell framing: the payload's own trailing newline is the only one —
  // no separate frame terminator after the length-prefixed bytes.
  ASSERT_FALSE(J.Prog.empty());
  ASSERT_EQ(J.Prog.back(), '\n');
  std::string CatStyle = "request c\n";
  CatStyle += "program " + std::to_string(J.Prog.size()) + "\n" + J.Prog;
  CatStyle += "profile " + std::to_string(J.Prof.size()) + "\n" + J.Prof;
  CatStyle += "end\n";
  EXPECT_EQ(S.processBatch(CatStyle), okResponse("c", J.Report, J.Binary));
  // Explicit framing of the same content is a cache hit on the same key.
  EXPECT_EQ(S.processBatch(frameRequest("d", J.Prog, J.Prof)),
            okResponse("d", J.Report, J.Binary));
  EXPECT_EQ(S.cache().stats().Hits, 1u);
}

TEST(Serve, EvictionHonorsByteBudget) {
  Job A = makeJob(makeMcf());
  Job B = makeJob(makeHealth());
  // Budget sized to hold one adaptation but not two.
  uint64_t OneEntry = A.Prog.size() + A.Prof.size() + A.Report.size() +
                      A.Binary.size() + 1024;
  ServeOptions O;
  O.CacheBytes = OneEntry;
  AdaptService S(O);
  S.processBatch(frameRequest("a", A.Prog, A.Prof));
  EXPECT_EQ(S.cache().size(), 1u);
  S.processBatch(frameRequest("b", B.Prog, B.Prof));
  EXPECT_GE(S.cache().stats().Evictions, 1u);
  EXPECT_LE(S.cache().usedBytes(), O.CacheBytes);
  // The evicted key is truly gone: re-requesting it is a miss again, and
  // still byte-identical.
  EXPECT_EQ(S.processBatch(frameRequest("c", A.Prog, A.Prof)),
            okResponse("c", A.Report, A.Binary));
  EXPECT_EQ(S.cache().stats().Hits, 0u);
  EXPECT_EQ(S.cache().stats().Misses, 3u);
}

TEST(Serve, HashCollisionsFallBackToFullKeyCompare) {
  Job A = makeJob(makeMcf());
  Job B = makeJob(makeEm3d());
  AdaptService S(ServeOptions{});
  // Force every key into one bucket; correctness must now come entirely
  // from the full-key byte compare.
  S.cache().setHashFunction([](const ServeKey &) { return 42u; });
  EXPECT_EQ(S.processBatch(frameRequest("a1", A.Prog, A.Prof)),
            okResponse("a1", A.Report, A.Binary));
  EXPECT_EQ(S.processBatch(frameRequest("b1", B.Prog, B.Prof)),
            okResponse("b1", B.Report, B.Binary));
  EXPECT_EQ(S.processBatch(frameRequest("a2", A.Prog, A.Prof)),
            okResponse("a2", A.Report, A.Binary));
  EXPECT_EQ(S.processBatch(frameRequest("b2", B.Prog, B.Prof)),
            okResponse("b2", B.Report, B.Binary));
  EXPECT_EQ(S.cache().stats().Hits, 2u);
  EXPECT_EQ(S.cache().stats().Misses, 2u);
  EXPECT_GT(S.cache().stats().Collisions, 0u);
}

TEST(Serve, ResponsesAreDeterministicForAnyJobCount) {
  Job A = makeJob(makeMcf());
  Job B = makeJob(makeEm3d());
  Job C = makeJob(makeHealth());
  // One session mixing misses, a batch-duplicate, an option variant, a
  // mid-session flush, and post-flush hits.
  std::string Session;
  Session += frameRequest("m1", A.Prog, A.Prof);
  Session += frameRequest("m2", B.Prog, B.Prof);
  Session += frameRequest("dup", A.Prog, A.Prof);
  Session += frameRequest("opt", A.Prog, A.Prof, {"max-loads=1"});
  Session += "flush\n";
  Session += frameRequest("h1", A.Prog, A.Prof);
  Session += frameRequest("m3", C.Prog, C.Prof);

  std::string Expected;
  for (unsigned Jobs : {1u, 4u, 8u}) {
    SCOPED_TRACE(Jobs);
    ServeOptions O;
    O.Jobs = Jobs;
    AdaptService S(O);
    std::string Out = S.processBatch(Session);
    if (Expected.empty())
      Expected = Out;
    EXPECT_EQ(Out, Expected);
    EXPECT_EQ(S.cache().stats().Hits, 1u);   // h1 only.
    EXPECT_EQ(S.cache().stats().Misses, 5u); // m1 m2 dup opt m3.
    EXPECT_EQ(S.cache().size(), 4u);         // dup shares m1's entry.
  }
  // The duplicate's payload equals the first miss's payload.
  EXPECT_NE(Expected.find(okResponse("dup", A.Report, A.Binary)),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// Warm layers: option states of one program share its program layer.
//===----------------------------------------------------------------------===//

/// The four option variants of the serving benchmark. The first, third
/// and fourth share one analysis-option text; spec-deps has its own.
const std::vector<std::vector<std::string>> Variants = {
    {}, {"spec-deps=1", "spec-threshold=0.05"}, {"streams=1"},
    {"inner-unroll=4"}};

TEST(Serve, OptionVariantsShareOneProgramLayer) {
  std::vector<Job> Jobs;
  for (const std::vector<std::string> &V : Variants)
    Jobs.push_back(makeJob(makeMcf(), V));

  for (unsigned NumJobs : {1u, 4u}) {
    SCOPED_TRACE(NumJobs);
    ServeOptions O;
    O.Jobs = NumJobs;
    O.WarmPrograms = 1;

    // One batch: two option states over one program layer.
    {
      obs::Registry Reg;
      O.Metrics = &Reg;
      AdaptService S(O);
      std::string Session, Expected;
      for (size_t I = 0; I < Variants.size(); ++I) {
        std::string Id = "v" + std::to_string(I);
        Session += frameRequest(Id, Jobs[I].Prog, Jobs[I].Prof, Variants[I]);
        Expected += okResponse(Id, Jobs[I].Report, Jobs[I].Binary);
      }
      EXPECT_EQ(S.processBatch(Session), Expected);
      EXPECT_EQ(Reg.counter("serve.warm_builds"), 2u);
      EXPECT_EQ(Reg.counter("serve.program_builds"), 1u);
    }

    // One variant per flush, keeping one option state: the default
    // state is evicted by spec-deps', then rebuilt for streams over the
    // program layer spec-deps' state kept alive; inner-unroll reuses it.
    obs::Registry Reg;
    O.Metrics = &Reg;
    AdaptService S(O);
    for (size_t I = 0; I < Variants.size(); ++I) {
      SCOPED_TRACE(I);
      std::string Id = "f" + std::to_string(I);
      EXPECT_EQ(S.processBatch(frameRequest(Id, Jobs[I].Prog, Jobs[I].Prof,
                                            Variants[I])),
                okResponse(Id, Jobs[I].Report, Jobs[I].Binary));
    }
    EXPECT_EQ(Reg.counter("serve.warm_builds"), 3u);
    EXPECT_EQ(Reg.counter("serve.warm_hits"), 1u);
    EXPECT_EQ(Reg.counter("serve.program_builds"), 1u);
  }
}

//===----------------------------------------------------------------------===//
// Hardening: malformed input yields located error responses, and the
// service keeps answering afterwards.
//===----------------------------------------------------------------------===//

void expectErrorResponse(const std::string &Out, const std::string &Id,
                         const std::string &MsgSubstring) {
  EXPECT_NE(Out.find("response " + Id + " error\n"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find(MsgSubstring), std::string::npos) << Out;
}

TEST(Serve, MalformedFramingIsRejectedWithLocatedErrors) {
  Job J = makeJob(makeTreeaddDF());
  AdaptService S(ServeOptions{});
  struct Case {
    const char *Name;
    std::string Session;
    const char *Id;
    const char *Msg;
    bool Located = true; ///< Framing errors carry a "line N:" location.
  };
  const Case Cases[] = {
      {"junk top-level line", "hello world\n", "?",
       "expected 'request' or 'flush'"},
      {"request without id", "request\nend\n", "?",
       "'request' needs a single id token"},
      {"bad payload length", "request x\nprogram abc\nend\n", "x",
       "bad payload length"},
      {"truncated payload", "request x\nprogram 4096\nshort", "x",
       "truncated payload (got 5 of 4096 bytes)"},
      // A declared length far beyond the input must not be allocated up
      // front (std::length_error / std::bad_alloc).
      {"2^64-1 byte payload", "request x\nprogram 18446744073709551615\n",
       "x", "line 2: truncated payload (got 0 of 18446744073709551615 bytes)"},
      {"40 GB payload", "request x\nprogram 40000000000\nabc", "x",
       "truncated payload (got 3 of 40000000000 bytes)"},
      {"unknown section",
       "request x\nbogus section\nend\n", "x",
       "expected 'program', 'profile', 'option', or 'end'"},
      {"eof inside request", "request x\nprogram 3\nabc\n", "x",
       "unexpected end of input"},
      {"malformed option", "request x\noption cutoff\nend\n", "x",
       "malformed option (want KEY=VALUE)"},
      {"missing program", "request x\nend\n", "x",
       "missing program section", false},
      {"missing profile",
       "request x\nprogram " + std::to_string(J.Prog.size()) + "\n" +
           J.Prog + "\nend\n",
       "x", "missing profile section", false},
      {"duplicate section",
       "request x\nprogram 3\nabc\nprogram 3\nabc\nend\n", "x",
       "duplicate 'program' section"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::string Out = S.processBatch(C.Session);
    expectErrorResponse(Out, C.Id, C.Msg);
    if (C.Located) {
      EXPECT_NE(Out.find("line "), std::string::npos) << Out;
    }
  }
  // The service is still alive and fully functional.
  EXPECT_EQ(S.processBatch(frameRequest("ok", J.Prog, J.Prof)),
            okResponse("ok", J.Report, J.Binary));
}

TEST(Serve, BadRequestContentIsRejectedWithoutKillingTheBatch) {
  Job J = makeJob(makeTreeaddDF());
  Job Other = makeJob(makeEm3d());
  AdaptService S(ServeOptions{});
  struct Case {
    const char *Name;
    std::string Session;
    const char *Msg;
  };
  const Case Cases[] = {
      {"unparsable program",
       frameRequest("x", "garbage program text\n", J.Prof), "program: "},
      {"unparsable profile",
       frameRequest("x", J.Prog, "garbage profile text\n"),
       "profile: line 1"},
      {"profile/program mismatch",
       frameRequest("x", J.Prog, Other.Prof), "does not match program"},
      {"unknown option", frameRequest("x", J.Prog, J.Prof, {"bogus=1"}),
       "option bogus: unknown option"},
      {"out-of-range option",
       frameRequest("x", J.Prog, J.Prof, {"cutoff=2"}),
       "option cutoff: expected a fraction in [0, 1]"},
      {"bad option value",
       frameRequest("x", J.Prog, J.Prof, {"max-loads=many"}),
       "option max-loads: expected an integer in [1, 4096]"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    // The bad request rides in one batch with a good one; only the bad
    // one errors.
    std::string Out = S.processBatch(
        C.Session + frameRequest("good", Other.Prog, Other.Prof));
    expectErrorResponse(Out, "x", C.Msg);
    EXPECT_NE(Out.find(okResponse("good", Other.Report, Other.Binary)),
              std::string::npos);
  }
}

TEST(Serve, ResyncAfterFramingErrorAnswersNextRequest) {
  Job J = makeJob(makeTreeaddDF());
  AdaptService S(ServeOptions{});
  std::string Session = "request bad\nwat is this\nstray line\nend\n" +
                        frameRequest("after", J.Prog, J.Prof);
  std::string Out = S.processBatch(Session);
  expectErrorResponse(Out, "bad", "expected 'program'");
  EXPECT_NE(Out.find(okResponse("after", J.Report, J.Binary)),
            std::string::npos);
}

TEST(Serve, ErrorStateDoesNotPoisonWarmOrCacheState) {
  Job J = makeJob(makeMcf());
  AdaptService S(ServeOptions{});
  // A profile that parses but fails cross-validation leaves a sticky
  // warm-entry error; the same program with the right profile must still
  // be served from a fresh warm entry.
  Job Other = makeJob(makeEm3d());
  std::string Bad =
      S.processBatch(frameRequest("x", J.Prog, Other.Prof));
  expectErrorResponse(Bad, "x", "does not match program");
  EXPECT_EQ(S.processBatch(frameRequest("y", J.Prog, J.Prof)),
            okResponse("y", J.Report, J.Binary));
  // And the failed request was not cached as a success.
  EXPECT_EQ(S.cache().size(), 1u);
}

TEST(Serve, FailedProgramLayerIsNeverShared) {
  Job Other = makeJob(makeEm3d());
  obs::Registry Reg;
  ServeOptions O;
  O.Metrics = &Reg;
  AdaptService S(O);

  // A profile that fails cross-validation errors under every variant;
  // the variants of one batch share the one failed program layer.
  std::string Session;
  for (size_t I = 0; I < Variants.size(); ++I)
    Session += frameRequest("x" + std::to_string(I), makeJob(makeMcf()).Prog,
                            Other.Prof, Variants[I]);
  std::string Out = S.processBatch(Session);
  for (size_t I = 0; I < Variants.size(); ++I)
    expectErrorResponse(Out, "x" + std::to_string(I),
                        "does not match program");
  EXPECT_EQ(Reg.counter("serve.program_builds"), 1u);

  // A new option state for the same texts does not attach to the failed
  // layer: the texts are parsed again, and fail again.
  Out = S.processBatch(frameRequest("y", makeJob(makeMcf()).Prog, Other.Prof,
                                    {"slice-max=32"}));
  expectErrorResponse(Out, "y", "does not match program");
  EXPECT_EQ(Reg.counter("serve.program_builds"), 2u);
  EXPECT_EQ(S.cache().size(), 0u);

  // The same program with its own profile is served normally under every
  // variant, from one fresh program layer.
  Session.clear();
  std::string Expected;
  for (size_t I = 0; I < Variants.size(); ++I) {
    Job J = makeJob(makeMcf(), Variants[I]);
    std::string Id = "ok" + std::to_string(I);
    Session += frameRequest(Id, J.Prog, J.Prof, Variants[I]);
    Expected += okResponse(Id, J.Report, J.Binary);
  }
  EXPECT_EQ(S.processBatch(Session), Expected);
  EXPECT_EQ(Reg.counter("serve.program_builds"), 3u);
}

} // namespace
