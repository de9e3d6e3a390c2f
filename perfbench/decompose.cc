// The `decompose` workload: parse -> features/router -> portfolio race ->
// witness, one instance per operation, over a seeded mix of HyperBench-
// style instance families. See README.md for the mix and its sizing.

#include <algorithm>
#include <memory>
#include <optional>

#include "common.h"
#include "ghd/ghw_from_ordering.h"
#include "hypergraph/generators.h"
#include "hypergraph/incidence_index.h"
#include "hypergraph/parser.h"
#include "ordering/ordering.h"
#include "portfolio/portfolio.h"
#include "workloads.h"

namespace perfbench {

using hypertree::GeneralizedHypertreeDecomposition;
using hypertree::GhwEvaluator;
using hypertree::Hypergraph;
using hypertree::IncidenceIndex;
using hypertree::PortfolioGhw;
using hypertree::PortfolioOptions;
using hypertree::PortfolioResult;
using hypertree::Rng;

namespace {

// The fixed node budget of every race, and a wall-clock backstop far
// above any race so that budgets, not the clock, end races (results stay
// deterministic).
constexpr long kMaxNodes = 8000;
constexpr double kTimeLimitSeconds = 60.0;
constexpr int kWarmupOps = 16;
// Seed of the generator seeds: fixed, so every run decomposes the same
// instances and the workload seed only renames them and orders the
// stream.
constexpr uint64_t kShapeSeed = 1;

// The bundled instances in the mix (data/grid3d_3.hg always exhausts its
// budget and is left out).
const char* const kDataFiles[] = {
    "acyclic_18.hg", "adder_8.hg",    "bridge_8.hg",  "circuit_40.hg",
    "clique_8.hg",   "cycle_10_3.hg", "grid2d_4.hg",  "random_25_30.hg",
};

// What a repeated operation on one instance must reproduce.
struct Expected {
  int width = 0;
  int lower_bound = 0;
  bool exact = false;
  int winner = -1;
  long winner_nodes = 0;
};

struct Item {
  std::string name;
  std::string text;
  Expected expected;
};

class DecomposeWorkload : public Workload {
 public:
  explicit DecomposeWorkload(const Options&) {}

  bool Setup(uint64_t seed, std::string* error) override {
    Rng rng(seed);
    std::vector<std::pair<std::string, Hypergraph>> mix;
    for (const char* file : kDataFiles) {
      std::string path = std::string("data/") + file;
      std::string parse_error;
      auto h = hypertree::ReadHypergraphFile(path, &parse_error);
      if (!h.has_value()) {
        *error = "cannot read " + path + ": " + parse_error;
        return false;
      }
      mix.emplace_back(file, std::move(*h));
    }
    // Generated families at fixed sizes and fixed generator seeds.
    Rng shapes(kShapeSeed);
    auto add = [&mix](int copies, const std::string& name, auto make) {
      for (int i = 0; i < copies; ++i) mix.emplace_back(name, make());
    };
    add(64, "circuit_8_28", [&shapes] {
      return hypertree::CircuitHypergraph(8, 28, shapes.Next());
    });
    add(8, "random_20_24", [&shapes] {
      return hypertree::RandomHypergraph(20, 24, 2, 4, shapes.Next());
    });
    add(4, "grid2d_5", [] { return hypertree::Grid2DHypergraph(5); });
    // The prologue settles bridge_50, cycle_120_3 and the small instances;
    // bridge_50 makes up most of them, so that hit_p50_ms falls inside its
    // cluster rather than on the edge between two families.
    add(17, "bridge_50", [] { return hypertree::BridgeHypergraph(50); });
    add(1, "cycle_120_3", [] { return hypertree::CycleHypergraph(120, 3); });
    add(2, "adder_10", [] { return hypertree::AdderHypergraph(10); });
    // The workload seed renames the vertices of every instance. Edge and
    // member order stay, so the parser builds the same hypergraph and
    // every seed does the same search work.
    items_.clear();
    for (auto& [name, h] : mix) {
      items_.push_back({name, RenamedText(h, &rng, /*reorder=*/false), {}});
    }
    // The measured stream visits the pool in seeded order, pass after
    // pass (a fresh permutation each pass).
    order_.clear();
    for (int pass = 0; pass < 64; ++pass) {
      std::vector<int> perm(items_.size());
      for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
      rng.Shuffle(&perm);
      order_.insert(order_.end(), perm.begin(), perm.end());
    }
    // Warm-up: the first kWarmupOps instances of the mix (the data files
    // and the first circuits), the same families for every seed.
    Tracer off;
    for (int i = 0; i < kWarmupOps; ++i) {
      const Item& item = items_[i];
      Outcome o;
      if (!Decompose(item.text, &off, &o)) {
        *error = "warm-up failed on " + item.name + ": " + o.why;
        return false;
      }
    }
    return true;
  }

  bool CountedPass(Digest* digest, std::string* error) override {
    Tracer off;
    for (Item& item : items_) {
      Outcome o;
      if (!Decompose(item.text, &off, &o)) {
        *error = "decompose check failed on " + item.name + ": " + o.why;
        return false;
      }
      item.expected = o.expected;
      pass_winner_nodes_ += o.expected.winner_nodes;
      pass_all_nodes_ += o.all_nodes;
      pass_loser_nodes_ += o.all_nodes - o.expected.winner_nodes;
      digest->Add(item.name);
      digest->Add(o.expected.width);
      digest->Add(o.expected.lower_bound);
      digest->Add(o.expected.exact ? 1 : 0);
      digest->Add(o.winner_name);
      digest->Add(o.expected.winner_nodes);
    }
    return true;
  }

  OpOutcome Run(long i, Tracer* tracer) override {
    const Item& item = items_[order_[i % order_.size()]];
    Outcome o;
    bool ok = Decompose(item.text, tracer, &o);
    const Expected& e = item.expected;
    if (ok && (o.expected.width != e.width ||
               o.expected.lower_bound != e.lower_bound ||
               o.expected.exact != e.exact || o.expected.winner != e.winner ||
               o.expected.winner_nodes != e.winner_nodes)) {
      ok = false;
      o.why = "result differs from the counted pass";
    }
    if (tracer->enabled()) {
      if (o.raced) {
        ++window_.races;
        window_.prologue_ms += o.prologue_ms;
        window_.race_ms += o.race_ms;
        window_.nodes += o.all_nodes;
        if (o.cancel_latency_ms >= 0) {
          ++window_.cancels;
          window_.cancel_latency_ms += o.cancel_latency_ms;
        }
      }
    }
    OpOutcome out;
    out.ok = ok;
    out.kind = o.raced ? 1 : 0;
    out.latency_ms = o.latency_ms;
    if (!ok) out.error = item.name + ": " + o.why;
    return out;
  }

  std::vector<std::string> KindNames() const override {
    return {"prologue_decided", "raced"};
  }
  bool IsHitKind(int kind) const override { return kind == 0; }

  void PassMetrics(Metrics* out) const override {
    (*out)["search.winner_nodes"] = static_cast<double>(pass_winner_nodes_);
    (*out)["portfolio.wasted_nodes_frac"] =
        pass_all_nodes_ > 0
            ? static_cast<double>(pass_loser_nodes_) / pass_all_nodes_
            : 0.0;
    (*out)["portfolio.all_nodes"] = static_cast<double>(pass_all_nodes_);
  }

  void WindowMetrics(const Tracer& tracer, Metrics* out) const override {
    long parses = 0;
    long builds = 0;
    double parse_ms = tracer.TotalMs("hypergraph.parse", &parses);
    double build_ms = tracer.TotalMs("hypergraph.index_build", &builds);
    if (parses > 0) (*out)["hypergraph.parse_ms"] = parse_ms / parses;
    if (builds > 0) (*out)["hypergraph.index_build_ms"] = build_ms / builds;
    if (window_.races > 0) {
      (*out)["portfolio.prologue_ms"] = window_.prologue_ms / window_.races;
      (*out)["portfolio.race_ms"] = window_.race_ms / window_.races;
    }
    if (window_.cancels > 0) {
      (*out)["portfolio.cancel_latency_ms"] =
          window_.cancel_latency_ms / window_.cancels;
    }
    if (window_.race_ms > 0) {
      (*out)["search.nodes_per_ms"] = window_.nodes / window_.race_ms;
    }
  }

  void StartWindow() override { window_ = {}; }

 private:
  struct Outcome {
    Expected expected;
    std::string winner_name;
    std::string why;
    bool raced = false;
    double prologue_ms = 0;
    double race_ms = 0;
    double cancel_latency_ms = -1;
    long all_nodes = 0;
    double latency_ms = 0;  // parse and race; the witness check excluded
  };

  // One operation. Returns false (with o->why) when the witness does not
  // check out.
  bool Decompose(const std::string& text, Tracer* tracer, Outcome* o) {
    CallClock clock;
    std::optional<Hypergraph> h;
    {
      auto span = tracer->Open("hypergraph.parse");
      auto timed = clock.Time();
      h = hypertree::ReadHypergraphFromString(text, &o->why);
    }
    if (!h.has_value()) return false;
    PortfolioOptions popts;
    popts.threads = kProgramThreads;
    popts.max_nodes = kMaxNodes;
    popts.time_limit_seconds = kTimeLimitSeconds;
    PortfolioResult pr;
    {
      auto span = tracer->Open("portfolio.race");
      auto timed = clock.Time();
      pr = PortfolioGhw(*h, popts);
    }
    o->latency_ms = clock.ms();
    Expected& e = o->expected;
    e.width = pr.result.upper_bound;
    e.lower_bound = pr.result.lower_bound;
    e.exact = pr.result.exact;
    e.winner = pr.winner;
    o->winner_name = pr.winner_name;
    o->raced = pr.winner_name != "prologue";
    o->prologue_ms = pr.prologue_seconds * 1e3;
    o->race_ms = (pr.result.seconds - pr.prologue_seconds) * 1e3;
    o->cancel_latency_ms = pr.cancel_latency_seconds * 1e3;
    long all = 0;
    for (const auto& engine : pr.engines) all += engine.nodes;
    o->all_nodes = all;
    e.winner_nodes = pr.winner >= 0 ? pr.engines[pr.winner].nodes : 0;

    auto span = tracer->Open("ghd.witness");
    if (!hypertree::IsValidOrdering(pr.result.best_ordering,
                                    h->NumVertices())) {
      o->why = "witness is not an ordering";
      return false;
    }
    std::unique_ptr<IncidenceIndex> index;
    {
      auto build = tracer->Open("hypergraph.index_build");
      index = std::make_unique<IncidenceIndex>(*h);
    }
    GhwEvaluator eval(*h, index.get());
    GeneralizedHypertreeDecomposition ghd =
        eval.BuildGhd(pr.result.best_ordering, hypertree::CoverMode::kExact);
    if (!ghd.IsValidFor(*h, &o->why)) return false;
    if (ghd.Width() != e.width) {
      o->why = "witness width differs from the reported width";
      return false;
    }
    if (e.lower_bound > e.width) {
      o->why = "lower bound above width";
      return false;
    }
    return true;
  }

  struct Window {
    long races = 0;
    long cancels = 0;
    double prologue_ms = 0;
    double race_ms = 0;
    double cancel_latency_ms = 0;
    double nodes = 0;
  };

  std::vector<Item> items_;
  std::vector<int> order_;
  long pass_winner_nodes_ = 0;
  long pass_all_nodes_ = 0;
  long pass_loser_nodes_ = 0;
  Window window_;
};

}  // namespace

std::unique_ptr<Workload> MakeDecomposeWorkload(const Options& options) {
  return std::make_unique<DecomposeWorkload>(options);
}

}  // namespace perfbench
