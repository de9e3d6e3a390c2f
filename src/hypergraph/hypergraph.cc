#include "hypergraph/hypergraph.h"

#include <algorithm>

#include "hypergraph/incidence_index.h"
#include "util/check.h"

namespace hypertree {

Hypergraph::Hypergraph(int n) : n_(n), incident_(n), vertex_names_(n) {
  for (int v = 0; v < n; ++v) {
    vertex_names_[v] = std::string("x").append(std::to_string(v));
  }
}

int Hypergraph::AddEdge(const std::vector<int>& vertices, std::string name) {
  Bitset b(n_);
  for (int v : vertices) {
    HT_CHECK(v >= 0 && v < n_);
    b.Set(v);
  }
  return AddEdgeBits(b, std::move(name));
}

int Hypergraph::AddEdgeBits(const Bitset& vertices, std::string name) {
  HT_CHECK(vertices.size() == n_);
  HT_CHECK_MSG(vertices.Any(), "empty hyperedge");
  int id = static_cast<int>(edges_.size());
  edges_.push_back(vertices);
  for (int v = vertices.First(); v >= 0; v = vertices.Next(v)) {
    incident_[v].push_back(id);
  }
  edge_names_.push_back(name.empty()
                            ? std::string("e").append(std::to_string(id))
                            : std::move(name));
  return id;
}

int Hypergraph::MaxEdgeSize() const {
  int r = 0;
  for (const Bitset& e : edges_) r = std::max(r, e.Count());
  return r;
}

Graph Hypergraph::PrimalGraph() const {
  Graph g(n_);
  for (const Bitset& e : edges_) {
    for (int u = e.First(); u >= 0; u = e.Next(u)) {
      for (int v = e.Next(u); v >= 0; v = e.Next(v)) {
        g.AddEdge(u, v);
      }
    }
  }
  g.set_name(name_.empty() ? "primal" : name_ + "_primal");
  return g;
}

Graph Hypergraph::DualGraph() const {
  int m = NumEdges();
  Graph g(m);
  // The index's intersection-graph rows are exactly the dual adjacency;
  // reading them replaces the O(m^2) pairwise Intersects scans.
  IncidenceIndex index(*this);
  for (int a = 0; a < m; ++a) {
    const Bitset& row = index.EdgeNeighbors(a);
    for (int b = row.Next(a); b >= 0; b = row.Next(b)) g.AddEdge(a, b);
  }
  g.set_name(name_.empty() ? "dual" : name_ + "_dual");
  return g;
}

Hypergraph Hypergraph::InducedSubhypergraph(
    const Bitset& keep, std::vector<int>* edge_origin) const {
  HT_CHECK(keep.size() == n_);
  Hypergraph sub(n_);
  for (int v = 0; v < n_; ++v) sub.vertex_names_[v] = vertex_names_[v];
  if (edge_origin != nullptr) edge_origin->clear();
  for (int e = 0; e < NumEdges(); ++e) {
    Bitset restricted = edges_[e] & keep;
    if (restricted.None()) continue;
    sub.AddEdgeBits(restricted, edge_names_[e]);
    if (edge_origin != nullptr) edge_origin->push_back(e);
  }
  sub.set_name(name_);
  return sub;
}

Hypergraph HypergraphFromGraph(const Graph& g) {
  Hypergraph h(g.NumVertices());
  for (auto [u, v] : g.Edges()) h.AddEdge({u, v});
  h.set_name(g.name());
  return h;
}

}  // namespace hypertree
