// hypertree_generate: emit benchmark instances.
//
//   hypertree_generate --family=NAME [params] [--format=hg|col|gr|dot]
//
//   Hypergraph families: adder, bridge, clique, grid2d, grid3d, cycle,
//                        random, acyclic, circuit   (--n, --m, --arity,
//                        --seed as applicable)
//   Graph families:      queens, myciel, grid, randomgraph, ktree
//
// Output goes to stdout (HyperBench format for hypergraphs, DIMACS .col /
// PACE .gr for graphs).
//
// An unknown flag is an error: the tool names it, prints its usage and
// exits 2.

#include <cstdio>
#include <iostream>
#include <string>

#include "graph/dimacs.h"
#include "graph/generators.h"
#include "hypergraph/generators.h"
#include "hypergraph/parser.h"
#include "io/dot.h"
#include "td/pace.h"
#include "util/flags.h"

using namespace hypertree;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: hypertree_generate --family=F [--n=N] [--m=M] [--arity=A]\n"
      "       [--seed=S] [--format=hg|col|gr|dot]\n"
      "families: adder bridge clique grid2d grid3d cycle random acyclic\n"
      "          circuit queens myciel grid randomgraph ktree\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = Flags::Parse(argc, argv);
  if (!flags.CheckKnown(
          {"help", "family", "n", "m", "arity", "seed", "format"}) ||
      flags.Has("help")) {
    return Usage();
  }
  std::string family = flags.GetString("family");
  int n = static_cast<int>(flags.GetInt("n", 5));
  int m = static_cast<int>(flags.GetInt("m", 2 * n));
  int arity = static_cast<int>(flags.GetInt("arity", 3));
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  std::string format = flags.GetString("format", "");

  std::optional<Hypergraph> h;
  std::optional<Graph> g;
  if (family == "adder") {
    h = AdderHypergraph(n);
  } else if (family == "bridge") {
    h = BridgeHypergraph(n);
  } else if (family == "clique") {
    h = CliqueHypergraph(n);
  } else if (family == "grid2d") {
    h = Grid2DHypergraph(n);
  } else if (family == "grid3d") {
    h = Grid3DHypergraph(n);
  } else if (family == "cycle") {
    h = CycleHypergraph(n, arity);
  } else if (family == "random") {
    h = RandomHypergraph(n, m, 2, arity, seed);
  } else if (family == "acyclic") {
    h = RandomAcyclicHypergraph(m, arity, seed);
  } else if (family == "circuit") {
    h = CircuitHypergraph(std::max(1, n / 5), n, seed);
  } else if (family == "queens") {
    g = QueensGraph(n);
  } else if (family == "myciel") {
    g = MycielskiGraph(n);
  } else if (family == "grid") {
    g = GridGraph(n, n);
  } else if (family == "randomgraph") {
    g = RandomGraph(n, m, seed);
  } else if (family == "ktree") {
    g = RandomKTree(n, arity, 1.0, seed);
  } else {
    return Usage();
  }

  if (h.has_value()) {
    if (format.empty() || format == "hg") {
      WriteHypergraph(*h, std::cout);
    } else if (format == "dot") {
      WriteDot(*h, std::cout);
    } else if (format == "col") {
      WriteDimacsGraph(h->PrimalGraph(), std::cout);
    } else if (format == "gr") {
      WritePaceGraph(h->PrimalGraph(), std::cout);
    } else {
      return Usage();
    }
  } else {
    if (format.empty() || format == "col") {
      WriteDimacsGraph(*g, std::cout);
    } else if (format == "gr") {
      WritePaceGraph(*g, std::cout);
    } else if (format == "dot") {
      WriteDot(*g, std::cout);
    } else if (format == "hg") {
      WriteHypergraph(HypergraphFromGraph(*g), std::cout);
    } else {
      return Usage();
    }
  }
  return 0;
}
