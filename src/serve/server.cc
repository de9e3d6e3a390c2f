#include "serve/server.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "ghd/ghw_from_ordering.h"
#include "hypergraph/parser.h"
#include "io/ghd_format.h"
#include "ordering/ordering.h"
#include "portfolio/portfolio.h"
#include "serve/instance_hash.h"
#include "serve/protocol.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace hypertree::serve {

namespace {

Json ErrorResponse(const std::string& message) {
  metrics::GetCounter("serve.errors").Increment();
  Json resp = Json::Object();
  resp.Set("status", "error");
  resp.Set("error", message);
  return resp;
}

}  // namespace

DecompositionService::DecompositionService(const ServerOptions& options)
    : options_(options), store_(options.cache_dir, options.cache_max_bytes) {}

Json DecompositionService::Handle(const Json& request,
                                  const CancellationToken& cancel) {
  metrics::GetCounter("serve.requests").Increment();
  if (!request.is_object()) return ErrorResponse("request is not an object");
  const Json* op = request.Find("op");
  if (op == nullptr) return ErrorResponse("missing field: op");
  const std::string& name = op->AsString();
  if (name == "ping") {
    Json resp = Json::Object();
    resp.Set("status", "ok");
    resp.Set("op", "ping");
    return resp;
  }
  if (name == "stats") return HandleStats();
  if (name == "decompose") return HandleDecompose(request, cancel);
  return ErrorResponse("unknown op: " + name);
}

Json DecompositionService::HandleDecompose(const Json& request,
                                           const CancellationToken& cancel) {
  Timer wall;
  const Json* instance = request.Find("instance");
  if (instance == nullptr || instance->AsString().empty()) {
    return ErrorResponse("missing field: instance");
  }
  std::string parse_error;
  std::optional<Hypergraph> parsed =
      ReadHypergraphFromString(instance->AsString(), &parse_error);
  if (!parsed.has_value()) {
    return ErrorResponse("cannot parse instance: " + parse_error);
  }
  if (parsed->NumEdges() == 0) {
    return ErrorResponse("instance has no hyperedges");
  }

  NormalizedInstance norm = NormalizeInstance(*parsed);

  std::string source;
  std::string witness;
  WitnessMeta meta;
  double solve_ms = 0.0;
  bool have_witness = false;

  // Level 1: in-memory instance entries.
  int packed = 0;
  std::shared_ptr<const CachedSubtree> subtree;
  if (cache_.LookupInstance(norm.key_bits, &packed, &subtree) ==
      DecompCache::Outcome::kPositive) {
    source = "memory";
    meta = UnpackMeta(packed);
    witness = CanonicalWitnessText(*subtree, norm.hypergraph);
    have_witness = true;
    metrics::GetCounter("serve.hits_memory").Increment();
  }

  // Level 2: persistent content-addressed store.
  if (!have_witness && store_.enabled()) {
    std::string load_error;
    std::optional<StoredWitness> stored =
        store_.Load(norm.key, norm.canonical_text, &load_error);
    if (!load_error.empty()) {
      // A damaged or mismatched entry: re-solved below like a miss.
      metrics::GetCounter("serve.store_load_failures").Increment();
      std::fprintf(stderr, "hypertree_serve: %s\n", load_error.c_str());
    }
    if (stored.has_value()) {
      source = "disk";
      meta = stored->meta;
      witness = stored->witness_text;
      have_witness = true;
      metrics::GetCounter("serve.hits_disk").Increment();
      // Promote into memory so the next hit skips the disk round trip.
      // The stored text was generated from the canonical subtree, so the
      // round trip re-derives it bit-for-bit.
      std::optional<GeneralizedHypertreeDecomposition> ghd =
          ReadGhdFromString(stored->witness_text);
      if (ghd.has_value()) {
        cache_.InsertInstance(
            norm.key_bits, PackMeta(stored->meta),
            std::make_shared<CachedSubtree>(SubtreeFromGhd(*ghd)));
      }
    }
  }

  // Miss: race the portfolio under the request budget.
  if (!have_witness) {
    double budget = options_.default_budget_seconds;
    if (const Json* b = request.Find("budget_seconds")) {
      budget = b->AsDouble(budget);
    }
    PortfolioOptions popts;
    popts.time_limit_seconds = budget;
    popts.threads = options_.threads;
    popts.cancel = cancel;
    Timer solve_timer;
    PortfolioResult solved = PortfolioGhw(norm.hypergraph, popts);
    solve_ms = solve_timer.ElapsedMillis();
    source = "solved";
    meta.width = solved.result.upper_bound;
    meta.lower_bound = solved.result.lower_bound;
    meta.exact = solved.result.exact;
    if (IsValidOrdering(solved.result.best_ordering,
                        norm.hypergraph.NumVertices())) {
      GhwEvaluator eval(norm.hypergraph);
      auto canonical = std::make_shared<CachedSubtree>(SubtreeFromGhd(
          eval.BuildGhd(solved.result.best_ordering, CoverMode::kExact)));
      witness = CanonicalWitnessText(*canonical, norm.hypergraph);
      have_witness = true;
      if (meta.exact) {
        cache_.InsertInstance(norm.key_bits, PackMeta(meta),
                              std::move(canonical));
        StoredWitness to_store;
        to_store.witness_text = witness;
        to_store.meta = meta;
        to_store.vertices = norm.hypergraph.NumVertices();
        to_store.edges = norm.hypergraph.NumEdges();
        to_store.solver = "portfolio";
        std::string store_error;
        if (!store_.Store(norm.key, norm.canonical_text, to_store,
                          &store_error)) {
          metrics::GetCounter("serve.store_failures").Increment();
          std::fprintf(stderr, "hypertree_serve: %s\n", store_error.c_str());
        }
      }
    }
    metrics::GetCounter(meta.exact ? "serve.misses_solved"
                                   : "serve.timeouts")
        .Increment();
  }

  Json resp = Json::Object();
  resp.Set("status", meta.exact || source != "solved" ? "ok" : "timeout");
  resp.Set("op", "decompose");
  resp.Set("key", norm.key);
  resp.Set("source", source);
  resp.Set("width", meta.width);
  resp.Set("exact", meta.exact);
  resp.Set("lower_bound", meta.lower_bound);
  resp.Set("vertices", norm.hypergraph.NumVertices());
  resp.Set("edges", norm.hypergraph.NumEdges());
  resp.Set("solve_ms", solve_ms);
  resp.Set("wall_ms", wall.ElapsedMillis());
  if (have_witness) resp.Set("witness", witness);
  return resp;
}

Json DecompositionService::HandleStats() const {
  DecompCacheStats stats = cache_.stats();
  Json resp = Json::Object();
  resp.Set("status", "ok");
  resp.Set("op", "stats");
  resp.Set("mem_entries", static_cast<long>(cache_.NumEntries()));
  resp.Set("cache_hits", stats.hits);
  resp.Set("cache_misses", stats.misses);
  resp.Set("cache_inserts", stats.inserts);
  resp.Set("disk_enabled", store_.enabled());
  if (store_.enabled()) {
    resp.Set("disk_bytes", store_.DiskUsageBytes());
    resp.Set("disk_max_bytes", store_.max_bytes());
  }
  return resp;
}

Json DecompositionService::MetricsRecord(long seq, const Json& response) const {
  Json record = Json::Object();
  record.Set("seq", seq);
  for (const char* field :
       {"op", "status", "source", "key", "width", "exact", "solve_ms",
        "wall_ms"}) {
    if (const Json* value = response.Find(field)) record.Set(field, *value);
  }
  record.Set("mem_entries", static_cast<long>(cache_.NumEntries()));
  DecompCacheStats stats = cache_.stats();
  record.Set("cache_hits", stats.hits);
  record.Set("cache_misses", stats.misses);
  record.Set("cache_inserts", stats.inserts);
  return record;
}

int ServeLoop(int listen_fd, DecompositionService& service,
              const ServerOptions& options, const CancellationToken& stop) {
  std::ofstream metrics_out;
  if (!options.metrics_path.empty()) {
    metrics_out.open(options.metrics_path, std::ios::app);
    if (!metrics_out) {
      std::fprintf(stderr, "hypertree_serve: cannot open metrics file %s\n",
                   options.metrics_path.c_str());
      return 1;
    }
  }
  long handled = 0;
  bool shutdown = false;
  auto done = [&] {
    return shutdown || stop.Cancelled() ||
           (options.max_requests > 0 && handled >= options.max_requests);
  };
  while (!done()) {
    // Poll with a short timeout so stop-cancellation (signals) is
    // noticed without a pending connection.
    pollfd pfd{listen_fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "hypertree_serve: poll failed\n");
      return 1;
    }
    if (ready == 0) continue;
    int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      std::fprintf(stderr, "hypertree_serve: accept failed\n");
      return 1;
    }
    std::string body;
    while (!done()) {
      std::string frame_error;
      int got = ReadFrame(conn, &body, &frame_error);
      if (got == 0) break;  // client closed cleanly
      if (got < 0) {
        std::fprintf(stderr, "hypertree_serve: %s\n", frame_error.c_str());
        break;
      }
      Json response;
      std::string parse_error;
      std::optional<Json> request = Json::Parse(body, &parse_error);
      if (!request.has_value() || !request->is_object()) {
        response = ErrorResponse("malformed request: " + parse_error);
      } else if (const Json* op = request->Find("op");
                 op != nullptr && op->AsString() == "shutdown") {
        shutdown = true;
        response = Json::Object();
        response.Set("status", "ok");
        response.Set("op", "shutdown");
      } else {
        response = service.Handle(*request, stop);
      }
      if (metrics_out.is_open()) {
        metrics_out << service.MetricsRecord(handled, response).Dump()
                    << "\n";
        metrics_out.flush();
      }
      ++handled;
      std::string write_error;
      if (!WriteFrame(conn, response.Dump(), &write_error)) {
        std::fprintf(stderr, "hypertree_serve: %s\n", write_error.c_str());
        break;
      }
      if (shutdown) break;
    }
    ::close(conn);
  }
  return 0;
}

namespace {

// The signal handler flips the serve loop's stop token. Cancel() is one
// relaxed atomic store through a pre-resolved pointer, which is safe in
// handler context.
CancellationToken* g_signal_stop = nullptr;

extern "C" void ServeSignalHandler(int) {
  if (g_signal_stop != nullptr) g_signal_stop->Cancel();
}

}  // namespace

int RunServer(const ServerOptions& options) {
  std::string error;
  int bound_port = 0;
  int listen_fd = ListenLoopback(options.port, &bound_port, &error);
  if (listen_fd < 0) {
    std::fprintf(stderr, "hypertree_serve: %s\n", error.c_str());
    return 1;
  }
  DecompositionService service(options);
  static CancellationToken stop;
  g_signal_stop = &stop;
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  std::printf("hypertree_serve: listening on 127.0.0.1:%d\n", bound_port);
  std::fflush(stdout);
  int rc = ServeLoop(listen_fd, service, options, stop);
  ::close(listen_fd);
  return rc;
}

}  // namespace hypertree::serve
