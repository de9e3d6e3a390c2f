// The `serve` workload: serve::DecompositionService behind ServeLoop on
// an ephemeral loopback port, one client connection, a seeded request
// stream of memory hits, disk hits and misses. See README.md.
//
// The stream runs in epochs of kEpochBlocks blocks. Each epoch starts a
// fresh service instance over the same store directory, so its memory
// level is empty while the pre-filled instances stay on disk: the disk
// hits of every epoch are first touches of them, and the stream never
// runs out of them however long the run.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "common.h"
#include "hypergraph/generators.h"
#include "hypergraph/parser.h"
#include "io/ghd_format.h"
#include "serve/cache_store.h"
#include "serve/instance_hash.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {

using hypertree::CancellationToken;
using hypertree::Hypergraph;
using hypertree::Json;
using hypertree::Rng;
namespace serve = hypertree::serve;

namespace {

constexpr double kBudgetSeconds = 30.0;
// Per block of 20 requests: 13 memory hits, 3 disk hits, 4 misses, in a
// seeded order within the block.
constexpr int kBlock = 20;
constexpr int kMemPerBlock = 13;
constexpr int kDiskPerBlock = 3;
constexpr int kEpochBlocks = 25;
constexpr long kEpochRequests = kBlock * kEpochBlocks;
// Instances stored before the run: enough for the disk hits of an epoch.
constexpr int kPrefill = kDiskPerBlock * kEpochBlocks + 10;
constexpr int kWarmupRequests = 100;
constexpr int kCountedRequests = 100;
// Seed of the instance sequence (pre-filled instances, then the misses):
// fixed, so every run solves the same instances; the workload seed
// renames them and orders the stream.
constexpr uint64_t kInstanceSeed = 1;

enum Kind { kMemory = 0, kDisk = 1, kMiss = 2 };
const char* const kSourceOf[] = {"memory", "disk", "solved"};

// A fresh cyclic instance the portfolio proves optimal in about ten
// milliseconds, long enough to outweigh a request's thread hand-offs.
Hypergraph FreshInstance(Rng* rng) {
  return hypertree::RandomHypergraph(20, 26, 2, 4, rng->Next());
}

// An instance the store holds, as the server parsed its first
// presentation (later copies rename its vertices but keep this order),
// with the witness bytes every later answer for it must repeat.
struct Stored {
  Hypergraph h;
  std::string key;
  std::string witness;
};

struct Request {
  Kind kind = kMiss;
  int id = -1;  // index into stored_; -1 for a miss
  std::string text;
};

class ServeWorkload : public Workload {
 public:
  explicit ServeWorkload(const Options& options) : options_(options) {}
  ~ServeWorkload() override { Shutdown(); }

  bool Setup(uint64_t seed, std::string* error) override {
    rng_ = Rng(seed);
    instances_ = Rng(kInstanceSeed);
    store_dir_ = options_.work_dir + "/store";
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
    std::filesystem::create_directories(store_dir_, ec);
    sopts_.port = 0;
    sopts_.cache_dir = store_dir_;
    sopts_.threads = kProgramThreads;
    sopts_.default_budget_seconds = kBudgetSeconds;

    // Pre-fill the store through a first service instance.
    {
      serve::DecompositionService prefiller(sopts_);
      CancellationToken never;
      for (int i = 0; i < kPrefill; ++i) {
        std::string text = RenamedText(FreshInstance(&instances_), &rng_);
        Hypergraph h = *hypertree::ReadHypergraphFromString(text);
        Json req = Json::Object();
        req.Set("op", "decompose");
        req.Set("instance", text);
        Json resp = prefiller.Handle(req, never);
        const Json* status = resp.Find("status");
        const Json* key = resp.Find("key");
        const Json* witness = resp.Find("witness");
        if (status == nullptr || status->AsString() != "ok" ||
            key == nullptr || witness == nullptr) {
          *error = "pre-fill failed: " + resp.Dump();
          return false;
        }
        stored_.push_back({std::move(h), key->AsString(), witness->AsString()});
      }
    }
    listen_fd_ = serve::ListenLoopback(0, &port_, error);
    if (listen_fd_ < 0) return false;
    for (int i = 0; i < kWarmupRequests; ++i) {
      OpOutcome o = Send(nullptr);
      if (!o.ok) {
        *error = "warm-up request failed its check: " + last_error_;
        return false;
      }
    }
    return true;
  }

  bool CountedPass(Digest* digest, std::string* error) override {
    for (const Stored& s : stored_) {
      digest->Add(s.key);
      digest->Add(s.witness);
    }
    for (int i = 0; i < kCountedRequests; ++i) {
      OpOutcome o = Send(nullptr);
      if (!o.ok) {
        *error = "request failed its check: " + last_error_;
        return false;
      }
      const Stored& s = stored_[last_id_];
      digest->Add(o.kind);
      digest->Add(s.key);
      digest->Add(s.witness);
    }
    return true;
  }

  OpOutcome Run(long, Tracer* tracer) override { return Send(tracer); }

  std::vector<std::string> KindNames() const override {
    return {"memory_hit", "disk_hit", "miss"};
  }
  bool IsHitKind(int kind) const override { return kind != kMiss; }

  void WindowMetrics(const Tracer& tracer, Metrics* out) const override {
    auto mean = [&tracer, out](const char* span, const char* metric) {
      long calls = 0;
      double ms = tracer.TotalMs(span, &calls);
      if (calls > 0) (*out)[metric] = ms / calls;
    };
    mean("hypergraph.parse", "hypergraph.parse_ms");
    mean("serve.hash", "serve.hash_ms");
    mean("serve.store_load", "serve.store_load_ms");
    mean("serve.store_write", "serve.store_write_ms");
    mean("serve.witness", "serve.witness_ms");
    double requests = window_.requests;
    (*out)["serve.requests"] = requests;
    if (requests > 0) {
      (*out)["serve.mem_hit_frac"] = window_.memory / requests;
      (*out)["serve.disk_hit_frac"] = window_.disk / requests;
      (*out)["serve.frame_ms"] = window_.frame_ms / requests;
    }
    if (window_.misses > 0) {
      (*out)["portfolio.race_ms"] = window_.solve_ms / window_.misses;
    }
  }

  void StartWindow() override { window_ = {}; }

  void Shutdown() override {
    StopService();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    if (!store_dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(store_dir_, ec);
      store_dir_.clear();
    }
  }

 private:
  struct Reply {
    std::string status;
    std::string source;
    std::string key;
    std::string witness;
    long width = 0;
    double handler_ms = 0;
    double solve_ms = 0;
    double rtt_ms = 0;
  };

  // Starts a service instance with an empty memory level over the store,
  // its serve loop, and the client connection.
  bool StartService(std::string* error) {
    service_ = std::make_unique<serve::DecompositionService>(sopts_);
    stop_ = CancellationToken();
    server_ = std::thread([this] {
      serve::ServeLoop(listen_fd_, *service_, sopts_, stop_);
    });
    client_fd_ = serve::ConnectLoopback(port_, error);
    if (client_fd_ < 0) return false;
    int one = 1;
    ::setsockopt(client_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  void StopService() {
    if (client_fd_ >= 0) {
      std::string ignored;
      serve::WriteFrame(client_fd_, "{\"op\":\"shutdown\"}", &ignored);
      serve::ReadFrame(client_fd_, &ignored, &ignored);
      ::close(client_fd_);
      client_fd_ = -1;
    }
    stop_.Cancel();
    if (server_.joinable()) server_.join();
    service_.reset();
  }

  // The next request of the stream. Requests [e * kEpochRequests,
  // (e + 1) * kEpochRequests) form epoch e; the first one restarts the
  // service. Memory hits rename an instance already in this service's
  // memory level (names only, so its key cannot change), disk hits touch
  // a pre-filled instance for the first time this epoch, misses are
  // fresh. The client forgets an epoch's misses when the next one starts,
  // so what it holds does not grow with the run's throughput.
  Request NextRequest() {
    if (sent_ % kEpochRequests == 0) {
      StopService();
      std::string error;
      if (!StartService(&error)) {
        std::fprintf(stderr, "perfbench: cannot start the service: %s\n",
                     error.c_str());
      }
      stored_.erase(stored_.begin() + kPrefill, stored_.end());
      in_memory_.clear();
      cold_.clear();
      for (int id = 0; id < static_cast<int>(stored_.size()); ++id) {
        cold_.push_back(id);
      }
      rng_.Shuffle(&cold_);
    }
    if (sent_ % kBlock == 0) {
      block_.clear();
      for (int k = 0; k < kBlock; ++k) {
        block_.push_back(k < kMemPerBlock                  ? kMemory
                         : k < kMemPerBlock + kDiskPerBlock ? kDisk
                                                             : kMiss);
      }
      rng_.Shuffle(&block_);
    }
    Kind kind = block_[sent_ % kBlock];
    ++sent_;
    if (kind == kMemory && in_memory_.empty()) kind = kDisk;
    if (kind == kDisk && cold_.empty()) kind = kMiss;
    Request r;
    r.kind = kind;
    if (kind == kMemory) {
      r.id = in_memory_[rng_.UniformInt(static_cast<int>(in_memory_.size()))];
      r.text = RenamedText(stored_[r.id].h, &rng_, /*reorder=*/false);
    } else if (kind == kDisk) {
      r.id = cold_.back();
      cold_.pop_back();
      r.text = RenamedText(stored_[r.id].h, &rng_, /*reorder=*/false);
    } else {
      r.text = RenamedText(FreshInstance(&instances_), &rng_);
      fresh_ = *hypertree::ReadHypergraphFromString(r.text);
    }
    return r;
  }

  // One decompose round trip on the client connection.
  bool Call(const std::string& text, Reply* reply, std::string* error) {
    Json req = Json::Object();
    req.Set("op", "decompose");
    req.Set("instance", text);
    std::string body = req.Dump();
    std::string answer;
    int64_t t0 = NowNs();
    if (!serve::WriteFrame(client_fd_, body, error)) return false;
    // The server writes a frame's header and body in two write(2) calls
    // without TCP_NODELAY, so its body waits for the client's ACK of the
    // header; acknowledging at once keeps delayed ACKs (~40 ms each way)
    // out of every round trip. See README.md.
    int one = 1;
    ::setsockopt(client_fd_, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    if (serve::ReadFrame(client_fd_, &answer, error) != 1) {
      if (error->empty()) *error = "connection closed";
      return false;
    }
    reply->rtt_ms = static_cast<double>(NowNs() - t0) / 1e6;
    std::optional<Json> resp = Json::Parse(answer, error);
    if (!resp.has_value()) return false;
    auto str = [&resp](const char* field) {
      const Json* v = resp->Find(field);
      return v != nullptr ? v->AsString() : std::string();
    };
    reply->status = str("status");
    reply->source = str("source");
    reply->key = str("key");
    reply->witness = str("witness");
    if (const Json* v = resp->Find("width")) reply->width = v->AsInt();
    if (const Json* v = resp->Find("wall_ms")) reply->handler_ms = v->AsDouble();
    if (const Json* v = resp->Find("solve_ms")) reply->solve_ms = v->AsDouble();
    return true;
  }

  // Sends the next request and checks the reply: the source the cache
  // state predicts, the key, and witness bytes identical to every earlier
  // answer for the same instance. A miss must carry a new key and a
  // valid GHD of the canonical instance at the reported width; it is
  // stored from then on. `tracer` may be null (untimed requests).
  OpOutcome Send(Tracer* tracer) {
    Request r = NextRequest();
    OpOutcome out;
    out.kind = r.kind;
    Reply reply;
    last_error_.clear();
    if (!Call(r.text, &reply, &last_error_)) return out;
    out.latency_ms = reply.rtt_ms;
    bool ok = reply.status == "ok" && reply.source == kSourceOf[r.kind];
    if (ok && r.kind == kMiss) {
      serve::NormalizedInstance norm = serve::NormalizeInstance(fresh_);
      ok = reply.key == norm.key && ValidWitness(norm.hypergraph, reply);
      if (ok) {
        r.id = static_cast<int>(stored_.size());
        stored_.push_back({std::move(fresh_), reply.key, reply.witness});
      }
    } else if (ok) {
      ok = reply.key == stored_[r.id].key &&
           reply.witness == stored_[r.id].witness;
    }
    if (!ok && last_error_.empty()) {
      last_error_ = "status=" + reply.status + " source=" + reply.source +
                    " (expected " + kSourceOf[r.kind] + ")";
    }
    if (ok && r.kind != kMemory) in_memory_.push_back(r.id);
    last_id_ = r.id;
    out.ok = ok;
    if (!ok) out.error = last_error_;
    if (ok && tracer != nullptr && tracer->enabled()) Replay(r, reply, tracer);
    return out;
  }

  static bool ValidWitness(const Hypergraph& canonical, const Reply& reply) {
    auto ghd = hypertree::ReadGhdFromString(reply.witness);
    return ghd.has_value() && ghd->IsValidFor(canonical) &&
           ghd->Width() == reply.width;
  }

  // Traced run only: the handler runs inside the library, which has no
  // spans of its own, so the client re-runs the layer calls the handler
  // made for this request and times them: parse, hash, and the cache
  // level that answered (memory probe + witness text, disk load, or the
  // store write after a solve). The round trip minus the handler's own
  // wall time is the framing and socket cost.
  void Replay(const Request& r, const Reply& reply, Tracer* tracer) {
    ++window_.requests;
    window_.frame_ms += std::max(0.0, reply.rtt_ms - reply.handler_ms);
    std::optional<Hypergraph> h;
    {
      auto span = tracer->Open("hypergraph.parse");
      h = hypertree::ReadHypergraphFromString(r.text);
    }
    serve::NormalizedInstance norm;
    {
      auto span = tracer->Open("serve.hash");
      norm = serve::NormalizeInstance(*h);
    }
    if (r.kind == kMemory) {
      ++window_.memory;
      auto span = tracer->Open("serve.witness");
      std::shared_ptr<const hypertree::CachedSubtree> subtree;
      if (service_->cache().LookupInstance(norm.key_bits, nullptr,
                                           &subtree) ==
          hypertree::DecompCache::Outcome::kPositive) {
        serve::CanonicalWitnessText(*subtree, norm.hypergraph);
      }
    } else if (r.kind == kDisk) {
      ++window_.disk;
      auto span = tracer->Open("serve.store_load");
      service_->store().Load(norm.key, norm.canonical_text);
    } else {
      ++window_.misses;
      window_.solve_ms += reply.solve_ms;
      serve::StoredWitness stored;
      stored.witness_text = reply.witness;
      stored.meta.width = static_cast<int>(reply.width);
      stored.meta.lower_bound = static_cast<int>(reply.width);
      stored.meta.exact = true;
      stored.vertices = norm.hypergraph.NumVertices();
      stored.edges = norm.hypergraph.NumEdges();
      stored.solver = "portfolio";
      auto span = tracer->Open("serve.store_write");
      service_->store().Store(norm.key, norm.canonical_text, stored);
    }
  }

  struct Window {
    long requests = 0;
    long memory = 0;
    long disk = 0;
    long misses = 0;
    double frame_ms = 0;
    double solve_ms = 0;
  };

  Options options_;
  serve::ServerOptions sopts_;
  std::string store_dir_;
  Rng rng_;        // names and stream order, from the workload seed
  Rng instances_;  // the instance sequence, from kInstanceSeed
  std::vector<Stored> stored_;  // pre-filled, then this epoch's misses
  std::vector<int> in_memory_;  // stored_ ids in this epoch's memory level
  std::vector<int> cold_;       // stored_ ids not touched this epoch
  std::vector<Kind> block_;
  Hypergraph fresh_;  // the instance of the pending miss
  long sent_ = 0;
  int last_id_ = -1;
  std::string last_error_;
  Window window_;
  std::unique_ptr<serve::DecompositionService> service_;
  CancellationToken stop_;
  int listen_fd_ = -1;
  int port_ = 0;
  int client_fd_ = -1;
  std::thread server_;  // declared last: joined before the members it uses
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload(const Options& options) {
  return std::make_unique<ServeWorkload>(options);
}

}  // namespace perfbench
