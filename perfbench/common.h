// Shared pieces of perfbench: the span tracer, the
// deterministic digest, registry counter deltas, HyperBench text
// rendering, and the interface every workload implements.
//
// perfbench runs one workload per process (see main.cc). Spans are
// recorded only by the benchmark's own code around calls into the library's
// public functions; the library itself is not instrumented.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "util/rng.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded span: a named interval, the span that encloses it, and the
/// operation it belongs to.
struct Span {
  const char* name;  // "<layer>.<phase>", a string literal
  int64_t start_ns;
  int64_t end_ns;
  int parent;  // index into the span list; -1 for an operation's root
  long op;     // operation ordinal; all spans of one operation share it
};

/// In-memory span recorder for the client thread. Disabled tracers record
/// nothing and cost one branch per span.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_op(long op) { op_ = op; }

  /// Opens a span that closes when the returned scope is destroyed.
  Scope Open(const char* name) { return Scope(this, name); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration and call count of spans named `name`.
  double TotalMs(const std::string& name, long* calls = nullptr) const;

  /// Writes the spans as Chrome trace-event JSON (one "X" event each).
  bool WriteChromeTrace(const std::string& path) const;

  /// Prints per-layer and per-span self time (duration minus the part
  /// covered by child spans) and call counts.
  void PrintSelfTime() const;

 private:
  bool enabled_ = false;
  long op_ = 0;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// Sums the time one operation spends inside library calls, so that the
/// benchmark's own input rendering and output checks stay out of the
/// operation's latency.
class CallClock {
 public:
  class Scope {
   public:
    explicit Scope(CallClock* clock) : clock_(clock), start_(NowNs()) {}
    ~Scope() { clock_->ns_ += NowNs() - start_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    CallClock* clock_;
    int64_t start_;
  };

  /// Times the enclosing block until the returned scope is destroyed.
  Scope Time() { return Scope(this); }
  double ms() const { return static_cast<double>(ns_) / 1e6; }

 private:
  int64_t ns_ = 0;
};

/// FNV-1a over the deterministic fields of a run, so two runs of one
/// seed can be compared exactly.
class Digest {
 public:
  void Add(const std::string& s);
  void Add(long long v);
  std::string Hex() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Registry counters: a snapshot and the per-name delta between two.
using Counters = std::map<std::string, long>;
Counters SnapshotCounters();
long Delta(const Counters& before, const Counters& after,
           const std::string& name);
/// Sum of the deltas of every counter whose name starts with `prefix`.
long DeltaPrefix(const Counters& before, const Counters& after,
                 const std::string& prefix);

/// HyperBench text of `h` under a seeded renaming of its vertices. With
/// `reorder`, edge order and member order are shuffled too, so the parser
/// interns the vertices in a new order; without it the text differs only
/// in names, which every canonical relabeling maps back to one key.
std::string RenamedText(const hypertree::Hypergraph& h, hypertree::Rng* rng,
                        bool reorder = true);

/// Metric values keyed by name, filled by the workloads.
using Metrics = std::map<std::string, double>;

/// Outcome of one operation of the measured stream.
struct OpOutcome {
  bool ok = false;
  int kind = 0;  // index into Workload::KindNames()
  // Time spent in the library's calls (a client round trip for serve),
  // without the benchmark's input rendering and output checks.
  double latency_ms = 0;
  std::string error;  // why the check failed
};

/// A benchmark workload. Lifecycle: Setup (timed as setup_s, repeated),
/// References and CountedPass (checks and the deterministic digest,
/// untimed), then Run for every operation of the measured window.
class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds the inputs from `seed`, starts pools or services and runs the
  /// warm-up operations. Returns false with `*error` on failure.
  virtual bool Setup(uint64_t seed, std::string* error) = 0;

  /// Computes references by independent routes (outside the counted
  /// pass, so their work stays out of its registry deltas).
  virtual bool References(std::string* error) {
    (void)error;
    return true;
  }

  /// Runs one fixed batch of operations, checks each against its
  /// reference and records what the measured operations must reproduce.
  /// Feeds every deterministic field into `digest`.
  virtual bool CountedPass(Digest* digest, std::string* error) = 0;

  /// Runs operation `i` of the seeded stream and checks its output.
  virtual OpOutcome Run(long i, Tracer* tracer) = 0;

  /// Operation types, for the per-type counts.
  virtual std::vector<std::string> KindNames() const = 0;

  /// True for the operation types that make up hit_p50_ms; the others
  /// make up miss_p50_ms.
  virtual bool IsHitKind(int kind) const = 0;

  /// The workload's own count metrics of the counted pass (main.cc adds
  /// the registry deltas).
  virtual void PassMetrics(Metrics* out) const { (void)out; }

  /// Time metrics of the traced window.
  virtual void WindowMetrics(const Tracer& tracer, Metrics* out) const = 0;

  /// Called when the traced window starts, to reset window accumulators.
  virtual void StartWindow() {}

  /// Stops services and joins threads. Safe to call twice.
  virtual void Shutdown() {}
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
