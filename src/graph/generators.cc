#include "graph/generators.h"

#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace hypertree {

Graph GridGraph(int rows, int cols) {
  HT_CHECK(rows >= 1 && cols >= 1);
  Graph g(rows * cols);
  auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (r + 1 < rows) g.AddEdge(id(r, c), id(r + 1, c));
      if (c + 1 < cols) g.AddEdge(id(r, c), id(r, c + 1));
    }
  }
  g.set_name("grid" + std::to_string(rows) + "x" + std::to_string(cols));
  return g;
}

Graph QueensGraph(int n) {
  HT_CHECK(n >= 1);
  Graph g(n * n);
  auto id = [n](int r, int c) { return r * n + c; };
  for (int r1 = 0; r1 < n; ++r1) {
    for (int c1 = 0; c1 < n; ++c1) {
      for (int r2 = r1; r2 < n; ++r2) {
        for (int c2 = 0; c2 < n; ++c2) {
          if (r2 == r1 && c2 <= c1) continue;
          bool attack = (r1 == r2) || (c1 == c2) ||
                        (r2 - r1 == c2 - c1) || (r2 - r1 == c1 - c2);
          if (attack) g.AddEdge(id(r1, c1), id(r2, c2));
        }
      }
    }
  }
  g.set_name("queen" + std::to_string(n) + "_" + std::to_string(n));
  return g;
}

Graph MycielskiGraph(int k) {
  HT_CHECK(k >= 2);
  // Start with K_2 and iterate the Mycielskian.
  std::vector<std::pair<int, int>> edges = {{0, 1}};
  int n = 2;
  for (int step = 2; step < k; ++step) {
    // Mycielskian: vertices v_0..v_{n-1}, shadows u_0..u_{n-1}, apex w.
    std::vector<std::pair<int, int>> next = edges;
    for (auto [a, b] : edges) {
      next.emplace_back(a, n + b);
      next.emplace_back(b, n + a);
    }
    int apex = 2 * n;
    for (int i = 0; i < n; ++i) next.emplace_back(n + i, apex);
    edges = std::move(next);
    n = 2 * n + 1;
  }
  Graph g(n);
  for (auto [a, b] : edges) g.AddEdge(a, b);
  g.set_name("myciel" + std::to_string(k));
  return g;
}

Graph CompleteGraph(int n) {
  Graph g(n);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v) g.AddEdge(u, v);
  g.set_name(std::string("K").append(std::to_string(n)));
  return g;
}

Graph CycleGraph(int n) {
  HT_CHECK(n >= 3);
  Graph g(n);
  for (int v = 0; v < n; ++v) g.AddEdge(v, (v + 1) % n);
  g.set_name(std::string("C").append(std::to_string(n)));
  return g;
}

Graph PathGraph(int n) {
  HT_CHECK(n >= 1);
  Graph g(n);
  for (int v = 0; v + 1 < n; ++v) g.AddEdge(v, v + 1);
  g.set_name(std::string("P").append(std::to_string(n)));
  return g;
}

Graph RandomGraph(int n, int m, uint64_t seed) {
  HT_CHECK(n >= 0);
  HT_CHECK(m <= static_cast<long long>(n) * (n - 1) / 2);
  Graph g(n);
  Rng rng(seed);
  while (g.NumEdges() < m) {
    int u = rng.UniformInt(n);
    int v = rng.UniformInt(n);
    if (u != v) g.AddEdge(u, v);
  }
  g.set_name("random_n" + std::to_string(n) + "_m" + std::to_string(m));
  return g;
}

Graph RandomKTree(int n, int k, double keep, uint64_t seed) {
  HT_CHECK(n >= k + 1);
  Rng rng(seed);
  // Build the full k-tree: start from K_{k+1}; each new vertex is joined to
  // the vertices of a random existing k-clique.
  std::vector<std::vector<int>> cliques;  // k-cliques available for expansion
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u <= k; ++u)
    for (int v = u + 1; v <= k; ++v) edges.emplace_back(u, v);
  {
    // All k-subsets of the initial K_{k+1}.
    for (int skip = 0; skip <= k; ++skip) {
      std::vector<int> c;
      for (int v = 0; v <= k; ++v)
        if (v != skip) c.push_back(v);
      cliques.push_back(c);
    }
  }
  for (int v = k + 1; v < n; ++v) {
    // Copy: pushing new cliques below may reallocate the vector.
    const std::vector<int> base =
        cliques[rng.UniformInt(static_cast<int>(cliques.size()))];
    for (int u : base) edges.emplace_back(u, v);
    // New k-cliques: base with one vertex replaced by v.
    for (int skip = 0; skip < k; ++skip) {
      std::vector<int> c = base;
      c[skip] = v;
      cliques.push_back(std::move(c));
    }
  }
  Graph g(n);
  for (auto [a, b] : edges) {
    if (keep >= 1.0 || rng.Bernoulli(keep)) g.AddEdge(a, b);
  }
  g.set_name("ktree_n" + std::to_string(n) + "_k" + std::to_string(k));
  return g;
}

}  // namespace hypertree
