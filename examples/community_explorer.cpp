// Community explorer: run the full hierarchy on a file or a generated LFR
// graph and dump per-level statistics plus quality-vs-ground-truth.
//
//   ./community_explorer --graph path.txt            # SNAP-style edge list
//   ./community_explorer --n 5000 --mu 0.4 --ranks 4 # generated LFR
//   ./community_explorer --n 5000 --save-communities out.txt
//
// Mirrors the paper's evaluation workflow: hierarchy depth, modularity
// per level, evolution ratio, community size distribution, and (for LFR)
// NMI against the planted communities.
#include <iostream>

#include <fstream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/hierarchy.hpp"
#include "core/louvain_par.hpp"
#include "gen/lfr.hpp"
#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "metrics/partition_utils.hpp"
#include "metrics/quality.hpp"
#include "metrics/similarity.hpp"
#include "seq/louvain_seq.hpp"

int main(int argc, char** argv) {
  plv::Cli cli(argc, argv);
  const int ranks = static_cast<int>(cli.get_int("ranks", 4));

  plv::graph::EdgeList edges;
  std::vector<plv::vid_t> ground_truth;
  if (cli.has("graph")) {
    edges = plv::graph::load_edge_list_text(cli.get_string("graph", ""));
    std::cout << "loaded " << edges.size() << " edges from "
              << cli.get_string("graph", "") << '\n';
  } else {
    plv::gen::LfrParams p;
    p.n = static_cast<plv::vid_t>(cli.get_int("n", 5000));
    p.mu = cli.get_double("mu", 0.4);
    p.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    const auto g = plv::gen::lfr(p);
    edges = g.edges;
    ground_truth = g.ground_truth;
    std::cout << "generated LFR: n=" << p.n << " mu=" << p.mu << " edges="
              << edges.size() << " planted communities=" << g.num_communities << '\n';
  }

  {
    const auto csr = plv::graph::Csr::from_edges(edges);
    const auto stats = plv::graph::graph_stats(csr);
    std::cout << "graph stats: n=" << stats.vertices << " m=" << stats.undirected_edges
              << " avg-deg=" << stats.avg_degree << " max-deg=" << stats.max_degree
              << " isolated=" << stats.isolated_vertices
              << " power-law gamma~=" << plv::graph::degree_powerlaw_exponent(csr)
              << '\n';
  }

  plv::core::ParOptions opts;
  opts.nranks = ranks;
  opts.refine.resolution = cli.get_double("resolution", 1.0);
  const plv::Result result = plv::louvain(plv::GraphSource::from_edges(edges, 0), opts);

  plv::TextTable table({"level", "vertices", "communities", "modularity",
                        "evolution-ratio", "inner-iters", "seconds"});
  for (std::size_t l = 0; l < result.num_levels(); ++l) {
    const auto& level = result.levels[l];
    table.row()
        .add(l)
        .add(static_cast<std::uint64_t>(level.num_vertices))
        .add(static_cast<std::uint64_t>(level.num_communities))
        .add(level.modularity)
        .add(static_cast<double>(level.num_communities) /
             static_cast<double>(level.num_vertices))
        .add(level.trace.moved_fraction.size())
        .add(level.seconds);
  }
  table.print();

  std::cout << "\nfinal: Q=" << result.final_modularity << " communities="
            << plv::metrics::count_communities(result.final_labels) << '\n';

  const auto dist = plv::metrics::size_distribution_log2(result.final_labels);
  std::cout << "community size distribution (log2 bins):\n";
  for (std::size_t b = 0; b < dist.size(); ++b) {
    if (dist[b] > 0) {
      std::cout << "  [" << (1ULL << b) << ", " << (1ULL << (b + 1)) << "): "
                << dist[b] << '\n';
    }
  }

  if (!ground_truth.empty()) {
    const auto s = plv::metrics::similarity(result.final_labels, ground_truth);
    std::cout << "vs planted communities: NMI=" << s.nmi << " F=" << s.f_measure
              << " NVD=" << s.nvd << " ARI=" << s.adjusted_rand_index << '\n';
  }

  {
    const auto csr = plv::graph::Csr::from_edges(edges);
    std::cout << "coverage=" << plv::metrics::coverage(csr, result.final_labels)
              << " mean-conductance="
              << plv::metrics::conductance(csr, result.final_labels).mean << '\n';
  }

  if (cli.has("save-communities")) {
    const auto path = cli.get_string("save-communities", "communities.txt");
    plv::graph::save_communities(result.final_labels, path);
    std::cout << "wrote " << path << '\n';
  }
  if (cli.has("save-tree")) {
    const auto path = cli.get_string("save-tree", "tree.txt");
    const plv::core::Hierarchy hierarchy(result);
    std::ofstream os(path);
    hierarchy.write_tree(os);
    std::cout << "wrote Blondel-format hierarchy tree to " << path << '\n';
  }
  return 0;
}
