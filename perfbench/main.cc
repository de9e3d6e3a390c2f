// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload decompose|answer|serve --seed N --seconds S
//             --trace 0|1
//
// One process runs one workload: set-up (repeated kSetups times; the
// median is setup_s), an untimed counted pass that checks every distinct
// operation against an independent reference and prints the
// deterministic digest, then a closed loop with one client for --seconds.
// An operation's latency covers its library calls only; ops_per_s is the
// operation count over the summed latencies.
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 the first half of the window runs
// untraced and the second half traced, and the JSON carries the
// per-layer metrics plus the tracing overhead. See README.md.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "kernels/kernels.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return false;
    std::string flag = argv[i];
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Linear interpolation between closest ranks of sorted `v`.
double Percentile(const std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Per-layer metrics, in print order, with units. Every workload reports
// all of them; a layer a workload bypasses reports 0.
const std::vector<std::pair<const char*, const char*>>& LayerMetricUnits() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"hypergraph.parse_ms", "ms"},
      {"hypergraph.index_build_ms", "ms"},
      {"portfolio.prologue_ms", "ms"},
      {"portfolio.race_ms", "ms"},
      {"portfolio.cancel_latency_ms", "ms"},
      {"portfolio.races", "count"},
      {"portfolio.proved_frac", "ratio"},
      {"portfolio.all_nodes", "count"},
      {"portfolio.wasted_nodes_frac", "ratio"},
      {"portfolio.engines_cancelled", "count"},
      {"search.winner_nodes", "count"},
      {"search.nodes_per_ms", "1/ms"},
      {"decomp_cache.lookups", "count"},
      {"decomp_cache.hit_frac", "ratio"},
      {"kernels.calls", "count"},
      {"kernels.rows", "count"},
      {"csp.materialize_ms", "ms"},
      {"csp.reduce_ms", "ms"},
      {"csp.count_ms", "ms"},
      {"csp.rows_joined", "count"},
      {"csp.rows_semijoin_dropped", "count"},
      {"csp.probe_collisions", "count"},
      {"csp.morsels", "count"},
      {"csp.morsel_skip_frac", "ratio"},
      {"csp.spill_bytes", "bytes"},
      {"csp.spill_partitions", "count"},
      {"csp.rows_per_s", "1/s"},
      {"cq.answer_ms", "ms"},
      {"cq.intermediate_tuples", "count"},
      {"cq.answer_rows", "count"},
      {"serve.requests", "count"},
      {"serve.hash_ms", "ms"},
      {"serve.mem_hit_frac", "ratio"},
      {"serve.disk_hit_frac", "ratio"},
      {"serve.store_load_ms", "ms"},
      {"serve.store_write_ms", "ms"},
      {"serve.witness_ms", "ms"},
      {"serve.frame_ms", "ms"},
      {"thread_pool.busy_frac", "ratio"},
      {"trace.ops", "count"},
      {"trace.spans", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return units;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Count metrics every workload shares, from the registry deltas of the
// counted pass.
void CommonPassMetrics(const Counters& b, const Counters& a, Metrics* m) {
  (*m)["kernels.calls"] = DeltaPrefix(b, a, "kernels.calls.");
  (*m)["kernels.rows"] = DeltaPrefix(b, a, "kernels.rows.");
  (*m)["csp.rows_joined"] = Delta(b, a, "relation.rows_joined");
  (*m)["csp.rows_semijoin_dropped"] =
      Delta(b, a, "relation.rows_semijoin_dropped");
  (*m)["csp.probe_collisions"] = Delta(b, a, "relation.probe_collisions");
  double skipped = Delta(b, a, "relation.morsels.skipped");
  double morsels = skipped + Delta(b, a, "relation.morsels.processed");
  (*m)["csp.morsels"] = morsels;
  (*m)["csp.morsel_skip_frac"] = Ratio(skipped, morsels);
  (*m)["csp.spill_bytes"] = Delta(b, a, "relation.spill.bytes");
  (*m)["csp.spill_partitions"] = Delta(b, a, "relation.spill.partitions");
  double races = Delta(b, a, "portfolio.races");
  (*m)["portfolio.races"] = races;
  (*m)["portfolio.proved_frac"] = Ratio(Delta(b, a, "portfolio.proofs"), races);
  (*m)["portfolio.engines_cancelled"] =
      Delta(b, a, "portfolio.engines_cancelled");
  double hits = Delta(b, a, "decomp_cache.hits");
  double lookups = hits + Delta(b, a, "decomp_cache.misses");
  (*m)["decomp_cache.lookups"] = lookups;
  (*m)["decomp_cache.hit_frac"] = Ratio(hits, lookups);
}

struct Window {
  std::vector<double> latency_ms;
  std::vector<int> kind;
  long failed = 0;
  double wall_s = 0;  // the whole loop, checks and input rendering included
  double busy_s = 0;  // the operations' latencies summed
};

// Closed loop with one client: the next operation starts when the
// previous one has returned and been checked.
void RunWindow(Workload* w, Tracer* tracer, double seconds, long* next_op,
               Window* out) {
  int64_t start = NowNs();
  int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  int64_t now = start;
  while (now < deadline) {
    long i = (*next_op)++;
    tracer->set_op(i);
    OpOutcome o;
    {
      auto span = tracer->Open("op");
      o = w->Run(i, tracer);
    }
    now = NowNs();
    out->latency_ms.push_back(o.latency_ms);
    out->busy_s += o.latency_ms / 1e3;
    out->kind.push_back(o.kind);
    if (!o.ok && ++out->failed <= 5) {
      std::fprintf(stderr, "perfbench: operation %ld failed: %s\n", i,
                   o.error.c_str());
    }
  }
  out->wall_s = static_cast<double>(now - start) / 1e9;
}

void PrintResult(bool correct, long attempted, long failed,
                 const std::vector<std::pair<std::string, std::string>>& names,
                 const Metrics& m) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < names.size(); ++i) {
    auto it = m.find(names[i].first);
    double v = it == m.end() ? 0.0 : it->second;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", names[i].first.c_str(), v,
                  names[i].second.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload decompose|answer|serve --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  std::map<std::string, std::function<std::unique_ptr<Workload>(
                            const Options&)>>
      factories = {{"decompose", MakeDecomposeWorkload},
                   {"answer", MakeAnswerWorkload},
                   {"serve", MakeServeWorkload}};
  auto factory = factories.find(args.workload);
  if (factory == factories.end()) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  // Everything the run writes (spill files, the serve store, the trace)
  // stays under .bench_build in the checkout.
  Options options;
  options.work_dir = ".bench_build/run-" + args.workload + "-" +
                     std::to_string(static_cast<long>(::getpid()));
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir + "/spill", ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 options.work_dir.c_str());
    return 1;
  }
  ::setenv("HYPERTREE_SPILL_DIR", (options.work_dir + "/spill").c_str(), 1);

  std::printf(
      "env: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"program_threads\": %d, "
      "\"kernel_backend\": \"%s\", \"build_type\": \"%s\", "
      "\"compiler\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      kProgramThreads, hypertree::kernels::BackendName(
                    hypertree::kernels::ActiveBackend()),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);

  // Set-up, kSetups times on fresh workload objects; the last one runs.
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  std::string error;
  for (int k = 0; k < kSetups; ++k) {
    if (w != nullptr) w->Shutdown();
    w = factory->second(options);
    int64_t t0 = NowNs();
    if (!w->Setup(args.seed, &error)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
      w->Shutdown();
      std::filesystem::remove_all(options.work_dir, ec);
      return 1;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // Counted pass: references, checks and the deterministic digest.
  Digest digest;
  int64_t pass_t0 = NowNs();
  bool pass_ok = w->References(&error);
  Counters pass_before = SnapshotCounters();
  pass_ok = pass_ok && w->CountedPass(&digest, &error);
  double pass_s = static_cast<double>(NowNs() - pass_t0) / 1e9;
  Counters pass_after = SnapshotCounters();
  if (!pass_ok) std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  std::printf("digest: %s (references and counted pass %.2f s)\n",
              digest.Hex().c_str(), pass_s);

  // Measured window.
  Tracer tracer;
  long next_op = 0;
  Window untraced;
  Window traced;
  Counters window_before;
  Counters window_after;
  if (pass_ok) {
    if (!args.trace) {
      RunWindow(w.get(), &tracer, args.seconds, &next_op, &untraced);
    } else {
      RunWindow(w.get(), &tracer, args.seconds / 2, &next_op, &untraced);
      w->StartWindow();
      tracer.set_enabled(true);
      window_before = SnapshotCounters();
      RunWindow(w.get(), &tracer, args.seconds / 2, &next_op, &traced);
      window_after = SnapshotCounters();
      tracer.set_enabled(false);
    }
  }
  w->Shutdown();

  Window all = untraced;
  all.latency_ms.insert(all.latency_ms.end(), traced.latency_ms.begin(),
                        traced.latency_ms.end());
  all.kind.insert(all.kind.end(), traced.kind.begin(), traced.kind.end());
  all.failed += traced.failed;
  long attempted = static_cast<long>(all.latency_ms.size());
  long failed = all.failed + (pass_ok ? 0 : 1);
  if (!pass_ok) attempted += 1;

  // Operation counts per type.
  std::vector<std::string> kinds = w->KindNames();
  std::vector<long> per_kind(kinds.size(), 0);
  for (int k : all.kind) ++per_kind[k];
  std::printf("ops:");
  for (size_t k = 0; k < kinds.size(); ++k) {
    std::printf(" %s=%ld", kinds[k].c_str(), per_kind[k]);
  }
  std::printf(" total=%ld failed=%ld failed_frac=%.6f\n", attempted, failed,
              Ratio(failed, attempted));

  Metrics m;
  std::vector<std::pair<std::string, std::string>> names;
  if (!args.trace) {
    std::vector<double> lat = untraced.latency_ms;
    std::vector<double> hit;
    std::vector<double> miss;
    for (size_t i = 0; i < lat.size(); ++i) {
      (w->IsHitKind(untraced.kind[i]) ? hit : miss).push_back(lat[i]);
    }
    std::sort(lat.begin(), lat.end());
    std::sort(hit.begin(), hit.end());
    std::sort(miss.begin(), miss.end());
    double p95 = Percentile(lat, 0.95);
    long beyond = static_cast<long>(
        lat.end() - std::upper_bound(lat.begin(), lat.end(), p95));
    m["setup_s"] = Median(setup_s);
    m["ops_per_s"] = Ratio(static_cast<double>(lat.size()), untraced.busy_s);
    m["p50_ms"] = Percentile(lat, 0.5);
    m["p95_ms"] = p95;
    m["peak_rss_mb"] = PeakRssMb();
    m["hit_p50_ms"] = Percentile(hit, 0.5);
    m["miss_p50_ms"] = Percentile(miss, 0.5);
    std::printf("setup_s = %.6f s (median of %d:", m["setup_s"], kSetups);
    for (double s : setup_s) std::printf(" %.3f", s);
    std::printf(")\n");
    std::printf(
        "ops_per_s = %.4f ops/s (%zu ops in %.3f s of calls, %.3f s of "
        "loop, 1 client)\n",
        m["ops_per_s"], lat.size(), untraced.busy_s, untraced.wall_s);
    std::printf("p50_ms = %.6f ms (n=%zu)\n", m["p50_ms"], lat.size());
    std::printf("p95_ms = %.6f ms (n=%zu, beyond=%ld)\n", p95, lat.size(),
                beyond);
    std::printf("peak_rss_mb = %.3f MB\n", m["peak_rss_mb"]);
    std::printf("failed_frac = %.6f ratio (%ld of %ld)\n",
                Ratio(failed, attempted), failed, attempted);
    std::printf("hit_p50_ms = %.6f ms (n=%zu)\n", m["hit_p50_ms"], hit.size());
    std::printf("miss_p50_ms = %.6f ms (n=%zu)\n", m["miss_p50_ms"],
                miss.size());
    names = {{"setup_s", "s"},         {"ops_per_s", "ops/s"},
             {"p50_ms", "ms"},         {"p95_ms", "ms"},
             {"peak_rss_mb", "MB"},    {"hit_p50_ms", "ms"},
             {"miss_p50_ms", "ms"}};
  } else {
    for (const auto& [name, unit] : LayerMetricUnits()) m[name] = 0.0;
    CommonPassMetrics(pass_before, pass_after, &m);
    w->PassMetrics(&m);
    double window_ns = traced.wall_s * 1e9;
    m["thread_pool.busy_frac"] =
        Ratio(Delta(window_before, window_after, "thread_pool.busy_wall_ns"),
              kProgramThreads * window_ns);
    double csp_ms = tracer.TotalMs("csp.materialize") +
                    tracer.TotalMs("csp.reduce") + tracer.TotalMs("csp.count") +
                    tracer.TotalMs("cq.answer");
    m["csp.rows_per_s"] =
        Ratio(Delta(window_before, window_after, "relation.rows_joined"),
              csp_ms / 1e3);
    w->WindowMetrics(tracer, &m);
    double untraced_rate =
        Ratio(static_cast<double>(untraced.latency_ms.size()), untraced.wall_s);
    double traced_rate =
        Ratio(static_cast<double>(traced.latency_ms.size()), traced.wall_s);
    m["trace.ops"] = static_cast<double>(traced.latency_ms.size());
    m["trace.spans"] = static_cast<double>(tracer.spans().size());
    m["trace.overhead_frac"] = Ratio(untraced_rate, traced_rate) - 1.0;
    std::printf("tracing overhead: untraced %.4f ops/s, traced %.4f ops/s\n",
                untraced_rate, traced_rate);
    tracer.PrintSelfTime();
    std::filesystem::create_directories(".bench_build/trace", ec);
    std::string trace_path = ".bench_build/trace/" + args.workload + "-seed" +
                             std::to_string(args.seed) + ".json";
    if (tracer.WriteChromeTrace(trace_path)) {
      std::printf("trace: %zu spans -> %s\n", tracer.spans().size(),
                  trace_path.c_str());
    }
    for (const auto& [name, unit] : LayerMetricUnits()) {
      std::printf("%s = %.6f %s\n", name, m[name], unit);
      names.emplace_back(name, unit);
    }
  }
  std::filesystem::remove_all(options.work_dir, ec);
  std::fflush(stdout);
  PrintResult(pass_ok && failed == 0, attempted, failed, names, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
