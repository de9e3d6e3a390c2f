#include "common.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/metrics.h"

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name)
    : tracer_(tracer), index_(-1) {
  if (!tracer_->enabled_) return;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, NowNs(), 0, tracer_->open_, tracer_->op_});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& s = tracer_->spans_[index_];
  s.end_ns = NowNs();
  tracer_->open_ = s.parent;
}

double Tracer::TotalMs(const std::string& name, long* calls) const {
  int64_t ns = 0;
  long n = 0;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    ns += s.end_ns - s.start_ns;
    ++n;
  }
  if (calls != nullptr) *calls = n;
  return static_cast<double>(ns) / 1e6;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"op\":%ld,\"parent\":%d}}%s\n",
                  s.name, static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.op,
                  s.parent, i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

void Tracer::PrintSelfTime() const {
  // Direct children cover disjoint sub-intervals of their parent (one
  // client thread), so self time is the duration minus the children's.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Agg {
    long calls = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Agg> by_span;
  std::map<std::string, Agg> by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    int64_t total = s.end_ns - s.start_ns;
    int64_t self = total - child_ns[i];
    std::string name = s.name;
    for (Agg* a : {&by_span[name], &by_layer[name.substr(0, name.find('.'))]}) {
      ++a->calls;
      a->total_ns += total;
      a->self_ns += self;
    }
  }
  auto print = [](const char* title, const std::map<std::string, Agg>& m) {
    std::printf("%s\n", title);
    for (const auto& [name, a] : m) {
      std::printf("  %-26s calls=%-7ld total_ms=%-11.3f self_ms=%.3f\n",
                  name.c_str(), a.calls, a.total_ns / 1e6, a.self_ns / 1e6);
    }
  };
  print("self time by layer (traced window):", by_layer);
  print("self time by span (traced window):", by_span);
}

void Digest::Add(const std::string& s) {
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  h_ ^= 0xff;  // field separator
  h_ *= 0x100000001b3ULL;
}

void Digest::Add(long long v) { Add(std::to_string(v)); }

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

Counters SnapshotCounters() {
  Counters out;
  for (const auto& [name, value] :
       hypertree::metrics::Registry::Global().Snapshot(
           /*include_zero=*/true)) {
    out[name] = value;
  }
  return out;
}

long Delta(const Counters& before, const Counters& after,
           const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

long DeltaPrefix(const Counters& before, const Counters& after,
                 const std::string& prefix) {
  long sum = 0;
  for (auto it = after.lower_bound(prefix);
       it != after.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    sum += Delta(before, after, it->first);
  }
  return sum;
}

std::string RenamedText(const hypertree::Hypergraph& h, hypertree::Rng* rng,
                        bool reorder) {
  std::vector<int> vname(h.NumVertices());
  for (int v = 0; v < h.NumVertices(); ++v) vname[v] = v;
  rng->Shuffle(&vname);
  std::vector<int> order(h.NumEdges());
  for (int e = 0; e < h.NumEdges(); ++e) order[e] = e;
  if (reorder) rng->Shuffle(&order);
  std::ostringstream out;
  for (size_t i = 0; i < order.size(); ++i) {
    std::vector<int> members = h.EdgeVertices(order[i]);
    if (reorder) rng->Shuffle(&members);
    out << "r" << i << "(";
    for (size_t j = 0; j < members.size(); ++j) {
      out << (j ? "," : "") << "v" << vname[members[j]];
    }
    out << (i + 1 < order.size() ? "),\n" : ").\n");
  }
  return out.str();
}

}  // namespace perfbench
