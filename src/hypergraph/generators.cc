#include "hypergraph/generators.h"

#include <algorithm>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace hypertree {

Hypergraph AdderHypergraph(int bits) {
  HT_CHECK(bits >= 1);
  // Gate-level N-bit ripple-carry adder: each full adder is five gates
  //   t1 = a XOR b,  s = t1 XOR cin,  t2 = a AND b,
  //   t3 = t1 AND cin,  cout = t2 OR t3,
  // each contributing a ternary constraint scope. The gate sharing of
  // {a, b} and {t1, cin} makes every bit block cyclic (ghw 2), matching
  // the benchmark library's adder family.
  // Layout per bit i: a=6i, b=6i+1, s=6i+2, t1=6i+3, t2=6i+4, t3=6i+5;
  // carries c_i = 6*bits + i.
  int n = 6 * bits + bits + 1;
  Hypergraph h(n);
  auto a = [](int i) { return 6 * i; };
  auto b = [](int i) { return 6 * i + 1; };
  auto s = [](int i) { return 6 * i + 2; };
  auto t1 = [](int i) { return 6 * i + 3; };
  auto t2 = [](int i) { return 6 * i + 4; };
  auto t3 = [](int i) { return 6 * i + 5; };
  auto c = [bits](int i) { return 6 * bits + i; };
  for (int i = 0; i < bits; ++i) {
    std::string is = std::to_string(i);
    h.SetVertexName(a(i), "a" + is);
    h.SetVertexName(b(i), "b" + is);
    h.SetVertexName(s(i), "s" + is);
    h.SetVertexName(t1(i), "t1_" + is);
    h.SetVertexName(t2(i), "t2_" + is);
    h.SetVertexName(t3(i), "t3_" + is);
  }
  for (int i = 0; i <= bits; ++i) {
    h.SetVertexName(c(i), std::string("c").append(std::to_string(i)));
  }
  for (int i = 0; i < bits; ++i) {
    std::string is = std::to_string(i);
    h.AddEdge({a(i), b(i), t1(i)}, "xor1_" + is);
    h.AddEdge({t1(i), c(i), s(i)}, "xor2_" + is);
    h.AddEdge({a(i), b(i), t2(i)}, "and1_" + is);
    h.AddEdge({t1(i), c(i), t3(i)}, "and2_" + is);
    h.AddEdge({t2(i), t3(i), c(i + 1)}, "or_" + is);
  }
  h.set_name("adder_" + std::to_string(bits));
  return h;
}

Hypergraph BridgeHypergraph(int blocks) {
  HT_CHECK(blocks >= 1);
  // Each block k has 4 fresh vertices forming a bridged 4-cycle; block k's
  // exit vertex is block k+1's entry vertex.
  // Vertices per block: entry e_k (shared), plus t_k (top), b_k (bottom),
  // exit e_{k+1}.
  int n = 3 * blocks + 1;
  Hypergraph h(n);
  auto entry = [](int k) { return 3 * k; };
  auto top = [](int k) { return 3 * k + 1; };
  auto bot = [](int k) { return 3 * k + 2; };
  for (int k = 0; k < blocks; ++k) {
    int e0 = entry(k), t = top(k), bo = bot(k), e1 = entry(k + 1);
    std::string ks = std::to_string(k);
    h.AddEdge({e0, t}, "up" + ks);
    h.AddEdge({e0, bo}, "down" + ks);
    h.AddEdge({t, e1}, "upexit" + ks);
    h.AddEdge({bo, e1}, "downexit" + ks);
    h.AddEdge({t, bo}, "bridge" + ks);
  }
  h.set_name("bridge_" + std::to_string(blocks));
  return h;
}

Hypergraph CliqueHypergraph(int n) {
  HT_CHECK(n >= 2);
  Hypergraph h(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      h.AddEdge({u, v});
    }
  }
  h.set_name("clique_" + std::to_string(n));
  return h;
}

Hypergraph Grid2DHypergraph(int n) {
  HT_CHECK(n >= 1);
  Hypergraph h(n * n);
  auto id = [n](int r, int c) { return r * n + c; };
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      if (r + 1 < n) h.AddEdge({id(r, c), id(r + 1, c)});
      if (c + 1 < n) h.AddEdge({id(r, c), id(r, c + 1)});
    }
  }
  h.set_name("grid2d_" + std::to_string(n));
  return h;
}

Hypergraph Grid3DHypergraph(int n) {
  HT_CHECK(n >= 1);
  Hypergraph h(n * n * n);
  auto id = [n](int x, int y, int z) { return (x * n + y) * n + z; };
  for (int x = 0; x < n; ++x) {
    for (int y = 0; y < n; ++y) {
      for (int z = 0; z < n; ++z) {
        if (x + 1 < n) h.AddEdge({id(x, y, z), id(x + 1, y, z)});
        if (y + 1 < n) h.AddEdge({id(x, y, z), id(x, y + 1, z)});
        if (z + 1 < n) h.AddEdge({id(x, y, z), id(x, y, z + 1)});
      }
    }
  }
  h.set_name("grid3d_" + std::to_string(n));
  return h;
}

Hypergraph CycleHypergraph(int n, int arity) {
  HT_CHECK(n >= 3 && arity >= 2 && arity <= n);
  Hypergraph h(n);
  for (int start = 0; start < n; ++start) {
    std::vector<int> vs(arity);
    for (int i = 0; i < arity; ++i) vs[i] = (start + i) % n;
    h.AddEdge(vs);
  }
  h.set_name("cycle_" + std::to_string(n) + "_r" + std::to_string(arity));
  return h;
}

Hypergraph RandomHypergraph(int n, int m, int min_arity, int max_arity,
                            uint64_t seed) {
  HT_CHECK(n >= 1 && m >= 1);
  HT_CHECK(1 <= min_arity && min_arity <= max_arity && max_arity <= n);
  Rng rng(seed);
  std::vector<std::vector<int>> edges(m);
  std::vector<int> occurrences(n, 0);
  for (int e = 0; e < m; ++e) {
    int arity = rng.UniformRange(min_arity, max_arity);
    // Sample `arity` distinct vertices.
    Bitset used(n);
    while (static_cast<int>(edges[e].size()) < arity) {
      int v = rng.UniformInt(n);
      if (!used.Test(v)) {
        used.Set(v);
        edges[e].push_back(v);
        ++occurrences[v];
      }
    }
  }
  // Decomposition algorithms require every vertex to occur in some edge
  // (uncovered vertices have uncoverable bags). Swap each uncovered vertex
  // into an edge in place of a multiply-covered one.
  long total_slots = 0;
  for (const auto& e : edges) total_slots += static_cast<long>(e.size());
  HT_CHECK_MSG(total_slots >= n,
               "m * arity too small to cover all %d vertices", n);
  for (int v = 0; v < n; ++v) {
    while (occurrences[v] == 0) {
      int e = rng.UniformInt(m);
      for (int& u : edges[e]) {
        if (occurrences[u] >= 2 &&
            std::find(edges[e].begin(), edges[e].end(), v) ==
                edges[e].end()) {
          --occurrences[u];
          u = v;
          ++occurrences[v];
          break;
        }
      }
    }
  }
  Hypergraph h(n);
  for (const auto& vs : edges) h.AddEdge(vs);
  h.set_name("randomcsp_n" + std::to_string(n) + "_m" + std::to_string(m));
  return h;
}

Hypergraph RandomAcyclicHypergraph(int num_edges, int max_arity,
                                   uint64_t seed) {
  HT_CHECK(num_edges >= 1 && max_arity >= 2);
  Rng rng(seed);
  // Build edges along a random tree; each child edge shares a nonempty
  // random subset of its parent's vertices and adds fresh vertices, which
  // makes the result trivially alpha-acyclic (the tree is a join tree).
  std::vector<std::vector<int>> edges;
  int next_vertex = 0;
  {
    int arity = rng.UniformRange(2, max_arity);
    std::vector<int> root(arity);
    for (int i = 0; i < arity; ++i) root[i] = next_vertex++;
    edges.push_back(root);
  }
  for (int e = 1; e < num_edges; ++e) {
    const std::vector<int>& parent =
        edges[rng.UniformInt(static_cast<int>(edges.size()))];
    // Edges can outgrow max_arity by one vertex per generation (see the
    // fresh-vertex guarantee below), so clamp the shared-subset size to
    // keep [shared, max_arity] a valid draw range.
    int shared = rng.UniformRange(
        1, std::min(static_cast<int>(parent.size()), max_arity));
    std::vector<int> vs = parent;
    rng.Shuffle(&vs);
    vs.resize(shared);
    int arity = rng.UniformRange(shared, max_arity);
    // Guarantee at least one fresh vertex so edges are not pure subsets
    // (subsets are fine but fresh vertices grow the instance).
    int fresh = std::max(1, arity - shared);
    for (int i = 0; i < fresh; ++i) vs.push_back(next_vertex++);
    edges.push_back(vs);
  }
  Hypergraph h(next_vertex);
  for (const auto& vs : edges) h.AddEdge(vs);
  h.set_name("acyclic_m" + std::to_string(num_edges));
  return h;
}

Hypergraph CircuitHypergraph(int inputs, int gates, uint64_t seed) {
  HT_CHECK(inputs >= 1 && gates >= inputs);
  Rng rng(seed);
  int n = inputs + gates;
  Hypergraph h(n);
  for (int i = 0; i < inputs; ++i) h.SetVertexName(i, "in" + std::to_string(i));
  for (int g = 0; g < gates; ++g) {
    int out = inputs + g;
    h.SetVertexName(out, std::string("g").append(std::to_string(g)));
    int fanin = rng.UniformRange(1, 3);
    std::vector<int> vs = {out};
    Bitset used(n);
    used.Set(out);
    // The first `inputs` gates consume one primary input each so that no
    // signal is left outside every constraint.
    if (g < inputs) {
      vs.push_back(g);
      used.Set(g);
    }
    for (int i = 0; i < fanin; ++i) {
      // Prefer recent signals to mimic circuit locality.
      int lo = std::max(0, out - 12);
      int v = rng.UniformRange(lo, out - 1);
      if (!used.Test(v) && static_cast<int>(vs.size()) < 4) {
        used.Set(v);
        vs.push_back(v);
      }
    }
    h.AddEdge(vs, "gate" + std::to_string(g));
  }
  h.set_name("circuit_i" + std::to_string(inputs) + "_g" +
             std::to_string(gates));
  return h;
}

}  // namespace hypertree
