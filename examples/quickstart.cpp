// Quickstart: build a small graph, detect communities sequentially and in
// parallel, and print what the library found.
//
//   ./quickstart [--ranks 4]
//
// The graph is the classic "two weighted triangles with a weak bridge":
// both engines must put each triangle in its own community.
#include <iostream>

#include "common/cli.hpp"
#include "core/louvain_par.hpp"
#include "graph/csr.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition_utils.hpp"
#include "seq/louvain_seq.hpp"

int main(int argc, char** argv) {
  plv::Cli cli(argc, argv);
  const int ranks = static_cast<int>(cli.get_int("ranks", 4));

  // 1. Describe the graph as an undirected weighted edge list.
  plv::graph::EdgeList edges;
  edges.add(0, 1, 5.0);
  edges.add(1, 2, 5.0);
  edges.add(0, 2, 5.0);
  edges.add(3, 4, 5.0);
  edges.add(4, 5, 5.0);
  edges.add(3, 5, 5.0);
  edges.add(2, 3, 0.5);  // weak bridge between the triangles

  // 2. Sequential Louvain (the baseline).
  const auto g = plv::graph::Csr::from_edges(edges);
  const plv::LouvainResult seq = plv::seq::louvain(g);
  std::cout << "sequential: Q = " << seq.final_modularity << ", communities = "
            << plv::metrics::count_communities(seq.final_labels) << '\n';

  // 3. Parallel Louvain on `ranks` ranks (threads exchanging messages).
  plv::core::ParOptions opts;
  opts.nranks = ranks;
  const plv::Result par = plv::louvain(plv::GraphSource::from_edges(edges, 0), opts);
  std::cout << "parallel (" << ranks << " ranks): Q = " << par.final_modularity
            << ", communities = "
            << plv::metrics::count_communities(par.final_labels) << ", levels = "
            << par.num_levels() << '\n';

  // 4. Inspect the assignment.
  std::cout << "vertex -> community:";
  for (plv::vid_t v = 0; v < par.final_labels.size(); ++v) {
    std::cout << ' ' << v << ":" << par.final_labels[v];
  }
  std::cout << '\n';

  const bool ok = par.final_labels[0] == par.final_labels[2] &&
                  par.final_labels[3] == par.final_labels[5] &&
                  par.final_labels[0] != par.final_labels[3];
  std::cout << (ok ? "OK: triangles separated as expected\n"
                   : "UNEXPECTED: triangles not separated\n");
  return ok ? 0 : 1;
}
