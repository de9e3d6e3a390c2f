#include "io/dot.h"

#include <string>
#include <vector>

namespace hypertree {

namespace {

std::string BagLabel(const Hypergraph* h, const Bitset& bag) {
  std::string label;
  for (int v = bag.First(); v >= 0; v = bag.Next(v)) {
    if (!label.empty()) label += ", ";
    label += h != nullptr ? h->VertexName(v)
                          : std::string("v").append(std::to_string(v));
  }
  return "{" + label + "}";
}

std::string LambdaLabel(const Hypergraph& h, const std::vector<int>& lambda) {
  std::string label;
  for (int e : lambda) {
    if (!label.empty()) label += ", ";
    label += h.EdgeName(e);
  }
  return "{" + label + "}";
}

}  // namespace

void WriteDot(const Graph& g, std::ostream& out) {
  out << "graph \"" << g.name() << "\" {\n";
  for (int v = 0; v < g.NumVertices(); ++v) {
    out << "  v" << v << ";\n";
  }
  for (auto [u, v] : g.Edges()) {
    out << "  v" << u << " -- v" << v << ";\n";
  }
  out << "}\n";
}

void WriteDot(const Hypergraph& h, std::ostream& out) {
  out << "graph \"" << h.name() << "\" {\n";
  for (int v = 0; v < h.NumVertices(); ++v) {
    out << "  v" << v << " [label=\"" << h.VertexName(v)
        << "\", shape=circle];\n";
  }
  for (int e = 0; e < h.NumEdges(); ++e) {
    out << "  e" << e << " [label=\"" << h.EdgeName(e)
        << "\", shape=box];\n";
    for (int v : h.EdgeVertices(e)) {
      out << "  e" << e << " -- v" << v << ";\n";
    }
  }
  out << "}\n";
}

void WriteDot(const TreeDecomposition& td, std::ostream& out) {
  out << "graph tree_decomposition {\n  node [shape=box];\n";
  for (int p = 0; p < td.NumNodes(); ++p) {
    out << "  b" << p << " [label=\"" << BagLabel(nullptr, td.Bag(p))
        << "\"];\n";
  }
  for (auto [a, b] : td.TreeEdges()) {
    out << "  b" << a << " -- b" << b << ";\n";
  }
  out << "}\n";
}

void WriteDot(const GeneralizedHypertreeDecomposition& ghd,
              const Hypergraph& h, std::ostream& out) {
  out << "graph ghd {\n  node [shape=box];\n";
  for (int p = 0; p < ghd.NumNodes(); ++p) {
    out << "  b" << p << " [label=\"chi=" << BagLabel(&h, ghd.td().Bag(p))
        << "\\nlambda=" << LambdaLabel(h, ghd.Lambda(p)) << "\"];\n";
  }
  for (auto [a, b] : ghd.td().TreeEdges()) {
    out << "  b" << a << " -- b" << b << ";\n";
  }
  out << "}\n";
}

void WriteDot(const HypertreeDecomposition& hd, const Hypergraph& h,
              std::ostream& out) {
  out << "graph hd {\n  node [shape=box];\n";
  for (int p = 0; p < hd.NumNodes(); ++p) {
    out << "  b" << p << " [label=\"chi=" << BagLabel(&h, hd.Chi(p))
        << "\\nlambda=" << LambdaLabel(h, hd.Lambda(p)) << "\"];\n";
  }
  for (int p = 0; p < hd.NumNodes(); ++p) {
    if (hd.Parent(p) != -1) {
      out << "  b" << hd.Parent(p) << " -- b" << p << ";\n";
    }
  }
  out << "}\n";
}

}  // namespace hypertree
