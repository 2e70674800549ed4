//===- core/AdaptService.h - The adaptation-as-a-service engine -----------===//
//
// Part of the ssp-postpass project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine behind `tools/ssp-adaptd`: a persistent service that reads
/// a stream of adaptation requests, executes them batched across one
/// process-wide ThreadPool, memoizes finished adaptations in a
/// content-addressed ServeCache, and keeps analyses warm across requests
/// in two layers: one program layer per (program, profile) text pair
/// (parsed Program + DataImage + ProfileData + ProgramAnalyses), shared by
/// the option states (AnalysisCache) of every analysis-option text seen
/// for it.
///
/// ## Protocol (stdin-batch)
///
/// Client -> daemon, line-framed with length-prefixed payloads:
///
///   session  := (request | junk)* ["flush\n" ...]      (EOF = final flush)
///   request  := "request " ID "\n" section* "end\n"
///   section  := "program " N "\n" <N bytes> ["\n"]     (.ssp text)
///             | "profile " N "\n" <N bytes> ["\n"]     (.sspprof text)
///             | "option " KEY "=" VALUE "\n"           (core/OptionTable.h)
///
/// The newline after a length-prefixed payload is optional — it is
/// consumed when present, so `cat file` framing (where the file's own
/// trailing newline is inside N) and explicit `<bytes>\n` framing both
/// work.
///
/// `flush` executes every request accumulated since the last flush and
/// writes the responses, in request order:
///
///   response := "response " ID " ok\n"
///               "report " N "\n" <N bytes> "\n"
///               "binary " N "\n" <N bytes> "\n" "end\n"
///             | "response " ID " error\n"
///               "message " N "\n" <N bytes> "\n" "end\n"
///
/// The `report` payload is byte-identical to one-shot `ssp-adapt`
/// console output and `binary` to its `--emit` program text, for any
/// `--jobs` and any cache hit/miss interleaving (hits are invisible in
/// response bytes; only the serve.* counters tell them apart).
///
/// ## Hardening
///
/// Malformed input never kills the daemon: framing errors, truncated
/// payloads, unparsable programs/profiles, and bad options each turn
/// into an `error` response with a located "line N:" message (session-
/// absolute for framing, payload-relative for program/profile text).
/// After a framing error inside a request the reader resynchronizes by
/// skipping to the next lone `end` line.
///
//===----------------------------------------------------------------------===//

#ifndef SSP_CORE_ADAPTSERVICE_H
#define SSP_CORE_ADAPTSERVICE_H

#include "core/ServeCache.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <iosfwd>
#include <list>
#include <memory>
#include <string>
#include <vector>

namespace ssp::obs {
class Registry;
}

namespace ssp::core {

struct ServeOptions {
  /// Worker threads of the process-wide pool (0 = hardware concurrency).
  /// Requests pipeline across the pool, layered over each request's
  /// per-delinquent-load fan-out; responses are identical for any value.
  unsigned Jobs = 0;

  /// Byte budget of the content-addressed result cache (keys + payloads).
  uint64_t CacheBytes = 64ull << 20;

  /// How many warm (program, profile, analysis-options) analysis states
  /// to keep alive across requests. Program layers are not counted: each
  /// lives as long as one of these states refers to it.
  unsigned WarmPrograms = 8;

  /// Optional metrics sink: serve.* counters, per-stage timers, and the
  /// forwarded adapt.*/verify.* stage timings. Null disables collection.
  obs::Registry *Metrics = nullptr;
};

class AdaptService {
public:
  explicit AdaptService(const ServeOptions &Opts);
  ~AdaptService();

  AdaptService(const AdaptService &) = delete;
  AdaptService &operator=(const AdaptService &) = delete;

  /// Runs the protocol loop: reads requests from \p In until EOF,
  /// executing and responding on every `flush` (and at EOF). Returns the
  /// number of requests answered. The cache and warm state persist
  /// across calls — a second session starts warm.
  uint64_t serve(std::istream &In, std::ostream &Out);

  /// Convenience for tests and the bench: one session over strings.
  std::string processBatch(const std::string &Session);

  /// Flushes latency percentiles (serve.latency_p50_us/p95/p99) into the
  /// metrics registry; call once before rendering metrics.
  void flushLatencyMetrics();

  ServeCache &cache() { return Cache; }
  support::ThreadPool &pool() { return Pool; }

private:
  struct Request;
  struct WarmProgram;
  struct WarmEntry;

  void executeBatch(std::vector<Request> &Batch, std::ostream &Out);
  WarmEntry *findWarm(const std::string &ProgramText,
                      const std::string &ProfileText,
                      const std::string &AnalysisOpts);

  ServeOptions Opts;
  support::ThreadPool Pool;
  ServeCache Cache;
  /// Warm option states, most recently used first. Each holds its
  /// program layer (the parsed texts and their option-free analyses)
  /// through a shared_ptr, so a result-cache miss on a known program skips
  /// parsing and analysis, and a new option state for a resident program
  /// skips parsing and the program analyses.
  std::list<std::unique_ptr<WarmEntry>> Warm;
  std::vector<double> LatencyUs; ///< Per-request execution wall times.
  uint64_t Served = 0;
};

} // namespace ssp::core

#endif // SSP_CORE_ADAPTSERVICE_H
