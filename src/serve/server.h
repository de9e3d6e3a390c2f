// The decomposition service: request handling (protocol-independent,
// unit-testable) and the socket serve loop behind tools/hypertree_serve.
//
// A request is one JSON object; `op` selects the action:
//
//   {"op":"decompose","instance":"<HyperBench text>","budget_seconds":5}
//   {"op":"ping"}       liveness probe
//   {"op":"stats"}      cache/counter snapshot
//   {"op":"shutdown"}   acknowledge, then stop the serve loop
//
// A decompose answer reports where it came from (`source`): "memory"
// (DecompCache instance entry), "disk" (persistent store), or
// "solved" (portfolio run on a cold miss). All three produce
// byte-identical `witness` text for the same instance — see
// serve/cache_store.h. Only exactly-solved instances are cached; a
// budget-exhausted solve returns status "timeout" with the anytime
// bounds and best witness found, and the next request retries.

#ifndef HYPERTREE_SERVE_SERVER_H_
#define HYPERTREE_SERVE_SERVER_H_

#include <string>

#include "search/decomp_cache.h"
#include "serve/cache_store.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace hypertree::serve {

/// Server configuration (tools/hypertree_serve flags map 1:1).
struct ServerOptions {
  int port = 7411;               // 0: ephemeral (reported by ServeLoop)
  std::string cache_dir;         // empty: no disk level
  long long cache_max_bytes = 0;  // disk-store size cap; 0: uncapped
  std::string metrics_path;      // empty: no NDJSON metrics file
  double default_budget_seconds = 10.0;  // per-request solve budget
  int threads = 0;               // portfolio racing threads; 0: hardware
  long max_requests = 0;         // stop after this many requests; 0: run on
};

/// Protocol-independent request handler plus the two cache levels.
/// Thread-compatible: external synchronization required if multiple
/// threads call Handle concurrently (the serve loop is single-threaded;
/// solves parallelize internally).
class DecompositionService {
 public:
  explicit DecompositionService(const ServerOptions& options);

  /// Handles one request document and returns the response document.
  /// Never throws; malformed requests produce {"status":"error",...}.
  /// `cancel` aborts an in-flight solve (the response degrades to
  /// status "timeout" with anytime bounds).
  Json Handle(const Json& request, const CancellationToken& cancel);

  /// One NDJSON metrics record for a handled (request, response) pair:
  /// op/status/source/key/width/wall_ms/solve_ms plus the memory level's
  /// entry count and counters. `seq` is the 0-based request ordinal.
  Json MetricsRecord(long seq, const Json& response) const;

  DecompCache& cache() { return cache_; }
  const PersistentCacheStore& store() const { return store_; }

 private:
  Json HandleDecompose(const Json& request, const CancellationToken& cancel);
  Json HandleStats() const;

  ServerOptions options_;
  DecompCache cache_;
  PersistentCacheStore store_;
};

/// Runs the accept/dispatch loop on an already-bound listening socket
/// until a shutdown request arrives, `stop` is cancelled, or
/// `options.max_requests` answers have been sent. Single-threaded;
/// connections are served one at a time (solves use the portfolio's
/// thread pool internally). Appends one NDJSON metrics record per
/// request to `options.metrics_path` when set. Does not close
/// `listen_fd`. Returns 0 on clean shutdown, 1 on listener failure.
int ServeLoop(int listen_fd, DecompositionService& service,
              const ServerOptions& options, const CancellationToken& stop);

/// Binds 127.0.0.1:options.port and runs ServeLoop with SIGINT/SIGTERM
/// mapped onto `stop` cancellation. Returns a process exit code.
int RunServer(const ServerOptions& options);

}  // namespace hypertree::serve

#endif  // HYPERTREE_SERVE_SERVER_H_
