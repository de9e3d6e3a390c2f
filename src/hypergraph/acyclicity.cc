#include "hypergraph/acyclicity.h"

#include <functional>
#include <vector>

#include "hypergraph/incidence_index.h"
#include "util/bitset.h"
#include "util/check.h"

namespace hypertree {

namespace {

// Runs GYO reduction. Returns true if the hypergraph reduces to nothing
// (alpha-acyclic); fills parent pointers when `parent` is non-null.
//
// Both rules run off the incidence index: rule 1 locates the unique live
// edge of a degree-1 vertex through its incidence row, and rule 2 finds
// containers of rest[e] as the AND of the incidence rows of e's live
// vertices — a live edge f appears in that intersection iff
// rest[e] ⊆ rest[f] (a vertex live in e can never have been dropped from
// a live f that originally contains it, because dropping needs
// occurrence count 1 while e still counts). Parent selection (lowest
// container id) is bit-identical to the old O(m^2) subset scan.
bool GyoReduce(const Hypergraph& h, const IncidenceIndex& index,
               std::vector<int>* parent) {
  int n = h.NumVertices();
  int m = h.NumEdges();
  std::vector<Bitset> rest;  // live part of each edge
  rest.reserve(m);
  for (int e = 0; e < m; ++e) rest.push_back(h.EdgeBits(e));
  Bitset live(m);
  live.SetAll();
  if (parent != nullptr) parent->assign(m, -1);

  // occurrence counts per vertex over live edges (all edges are live and
  // whole at this point, so each count is one incidence-row popcount)
  std::vector<int> occ(n, 0);
  for (int v = 0; v < n; ++v) occ[v] = index.VertexEdges(v).Count();

  Bitset scratch(m);
  bool changed = true;
  int live_edges = m;
  while (changed) {
    changed = false;
    // Rule 1: drop vertices occurring in at most one live edge.
    for (int v = 0; v < n; ++v) {
      if (occ[v] != 1) continue;
      scratch.AssignAnd(index.VertexEdges(v), live);
      for (int e = scratch.First(); e >= 0; e = scratch.Next(e)) {
        if (rest[e].Test(v)) {
          rest[e].Reset(v);
          occ[v] = 0;
          changed = true;
          break;
        }
      }
    }
    // Rule 2: drop edges whose live part is empty or contained in another
    // live edge.
    for (int e = 0; e < m; ++e) {
      if (!live.Test(e)) continue;
      if (rest[e].None()) {
        live.Reset(e);
        --live_edges;
        changed = true;
        continue;
      }
      scratch = live;
      for (int v = rest[e].First(); v >= 0; v = rest[e].Next(v)) {
        scratch &= index.VertexEdges(v);
      }
      scratch.Reset(e);
      int f = scratch.First();
      if (f >= 0) {
        live.Reset(e);
        --live_edges;
        if (parent != nullptr) (*parent)[e] = f;
        for (int v = rest[e].First(); v >= 0; v = rest[e].Next(v)) --occ[v];
        changed = true;
      }
    }
  }
  return live_edges == 0;
}

}  // namespace

bool IsAlphaAcyclic(const Hypergraph& h) {
  if (h.NumEdges() == 0) return true;
  IncidenceIndex index(h);
  return GyoReduce(h, index, nullptr);
}

bool IsAlphaAcyclic(const IncidenceIndex& index) {
  if (index.NumEdges() == 0) return true;
  return GyoReduce(index.hypergraph(), index, nullptr);
}

std::optional<JoinTree> BuildJoinTree(const Hypergraph& h) {
  if (h.NumEdges() == 0) return JoinTree{};
  std::vector<int> parent;
  IncidenceIndex index(h);
  if (!GyoReduce(h, index, &parent)) return std::nullopt;
  // Stitch multiple roots (disconnected components / the final emptied
  // edges) under the first root.
  JoinTree jt;
  jt.parent = std::move(parent);
  for (int e = 0; e < h.NumEdges(); ++e) {
    if (jt.parent[e] == -1) {
      if (jt.root == -1) {
        jt.root = e;
      } else {
        jt.parent[e] = jt.root;
      }
    }
  }
  return jt;
}

bool IsBergeAcyclic(const Hypergraph& h) {
  // The incidence graph has n + m nodes and sum(|e|) edges; it is a
  // forest iff within each connected component #edges = #nodes - 1.
  // Union-find over vertex-nodes and edge-nodes: a cycle is detected the
  // moment an incidence edge joins two already-connected nodes.
  int n = h.NumVertices();
  int m = h.NumEdges();
  std::vector<int> parent(n + m);
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (int e = 0; e < m; ++e) {
    for (int v = h.EdgeBits(e).First(); v >= 0; v = h.EdgeBits(e).Next(v)) {
      int a = find(v);
      int b = find(n + e);
      if (a == b) return false;  // cycle in the incidence graph
      parent[a] = b;
    }
  }
  return true;
}

bool IsBetaAcyclic(const Hypergraph& h) {
  int n = h.NumVertices();
  int m = h.NumEdges();
  std::vector<Bitset> rest;
  rest.reserve(m);
  for (int e = 0; e < m; ++e) rest.push_back(h.EdgeBits(e));
  Bitset live_vertices(n);
  for (int e = 0; e < m; ++e) live_vertices |= rest[e];

  auto is_nest_point = [&](int v) {
    // Edges (restricted to live vertices) containing v must form a chain
    // under inclusion.
    std::vector<const Bitset*> containing;
    for (const Bitset& e : rest) {
      if (e.Test(v)) containing.push_back(&e);
    }
    for (size_t i = 0; i < containing.size(); ++i) {
      for (size_t j = i + 1; j < containing.size(); ++j) {
        if (!containing[i]->IsSubsetOf(*containing[j]) &&
            !containing[j]->IsSubsetOf(*containing[i])) {
          return false;
        }
      }
    }
    return true;
  };

  bool changed = true;
  while (changed && live_vertices.Any()) {
    changed = false;
    for (int v = live_vertices.First(); v >= 0; v = live_vertices.Next(v)) {
      if (is_nest_point(v)) {
        for (Bitset& e : rest) e.Reset(v);
        live_vertices.Reset(v);
        changed = true;
        break;
      }
    }
  }
  return live_vertices.None();
}

bool ValidateJoinTree(const Hypergraph& h, const JoinTree& jt) {
  int m = h.NumEdges();
  if (static_cast<int>(jt.parent.size()) != m) return false;
  if (m == 0) return true;
  if (jt.root < 0 || jt.root >= m) return false;
  // Tree shape: exactly one root, parent pointers acyclic.
  int roots = 0;
  for (int e = 0; e < m; ++e) {
    if (jt.parent[e] == -1) ++roots;
    if (jt.parent[e] == e) return false;
  }
  if (roots != 1 || jt.parent[jt.root] != -1) return false;
  // Acyclic parent chains (walk with step limit).
  for (int e = 0; e < m; ++e) {
    int cur = e, steps = 0;
    while (cur != -1) {
      cur = jt.parent[cur];
      if (++steps > m) return false;
    }
  }
  // Connectedness: for each vertex, the nodes containing it must induce a
  // connected subtree; in a tree this holds iff (#nodes containing v) - 1
  // equals the number of tree edges whose both endpoints contain v.
  for (int v = 0; v < h.NumVertices(); ++v) {
    int nodes = 0, links = 0;
    for (int e = 0; e < m; ++e) {
      if (!h.EdgeBits(e).Test(v)) continue;
      ++nodes;
      int p = jt.parent[e];
      if (p != -1 && h.EdgeBits(p).Test(v)) ++links;
    }
    if (nodes > 0 && links != nodes - 1) return false;
  }
  return true;
}

}  // namespace hypertree
