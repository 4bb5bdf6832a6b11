// Fig. 4 — Convergence and Detection Quality with Social Networks.
//
// Compares, per outer-loop iteration (hierarchy level), the modularity
// (4a) and evolution ratio (4b) of three engines on the social-graph
// stand-ins: the sequential baseline, the parallel algorithm with the
// convergence heuristic, and the naive parallel algorithm without it.
// The paper's headline shape: heuristic ≈ sequential (occasionally
// better), naive converges slowly with low modularity.
#include <iostream>

#include "common/table.hpp"
#include "core/louvain_par.hpp"
#include "graph/csr.hpp"
#include "seq/louvain_seq.hpp"
#include "util.hpp"

int main() {
  plv::bench::banner(
      "Fig. 4: modularity (a) and evolution ratio (b) per outer iteration",
      "Real graphs (Amazon..Wikipedia) replaced by LFR stand-ins, see DESIGN.md.");

  plv::TextTable table({"graph", "engine", "outer-iter", "modularity",
                        "evolution-ratio"});
  plv::TextTable summary({"graph", "engine", "final Q", "levels", "communities"});

  for (const auto& graph : plv::bench::social_standins()) {
    const auto csr = plv::graph::Csr::from_edges(graph.edges, graph.n);

    struct Run {
      const char* engine;
      std::vector<double> q;
      std::vector<double> evo;
      double final_q;
      std::size_t levels;
      std::size_t communities;
    };
    std::vector<Run> runs;

    {
      const auto r = plv::seq::louvain(csr);
      Run run{"sequential", {}, {}, r.final_modularity, r.num_levels(), 0};
      double n_prev = static_cast<double>(graph.n);
      for (const auto& level : r.levels) {
        run.q.push_back(level.modularity);
        run.evo.push_back(static_cast<double>(level.num_communities) / n_prev);
        n_prev = static_cast<double>(level.num_communities);
      }
      run.communities = r.levels.empty() ? graph.n : r.levels.back().num_communities;
      runs.push_back(std::move(run));
    }
    for (bool heuristic : {true, false}) {
      plv::core::ParOptions opts;
      opts.nranks = 4;
      if (!heuristic) {
        opts.refine.threshold = plv::core::ThresholdModel::kNone;
        opts.refine.max_inner_iterations = 24;  // naive may oscillate; cap it
      }
      const auto r = plv::louvain(plv::GraphSource::from_edges(graph.edges, graph.n), opts);
      Run run{heuristic ? "parallel+heuristic" : "parallel-naive", {}, {},
              r.final_modularity, r.num_levels(), 0};
      double n_prev = static_cast<double>(graph.n);
      for (const auto& level : r.levels) {
        run.q.push_back(level.modularity);
        run.evo.push_back(static_cast<double>(level.num_communities) / n_prev);
        n_prev = static_cast<double>(level.num_communities);
      }
      run.communities = r.levels.empty() ? graph.n : r.levels.back().num_communities;
      runs.push_back(std::move(run));
    }

    for (const Run& run : runs) {
      for (std::size_t l = 0; l < run.q.size(); ++l) {
        table.row().add(graph.name).add(run.engine).add(l + 1).add(run.q[l]).add(
            run.evo[l]);
      }
      summary.row()
          .add(graph.name)
          .add(run.engine)
          .add(run.final_q)
          .add(run.levels)
          .add(run.communities);
    }
  }

  table.print();
  std::cout << "\nsummary (compare: heuristic tracks sequential; naive lags):\n";
  summary.print();
  return 0;
}
