// Ablation — the convergence heuristic's parameters (DESIGN.md item 3).
//
// Sweeps the threshold model and its (p1, p2) parameters on a fixed LFR
// graph and reports final modularity, inner iterations spent, and total
// vertex moves. Answers: how sensitive is the heuristic to its fitted
// constants, and what does the literal Eq. 7 formula do compared to the
// decaying interpretation?
#include <iostream>
#include <numeric>

#include "common/table.hpp"
#include "core/louvain_par.hpp"
#include "gen/lfr.hpp"
#include "util.hpp"

namespace {

struct RunStats {
  double q;
  std::size_t levels;
  std::size_t inner_iters;
  double total_moved;
};

RunStats run(const plv::graph::EdgeList& edges, plv::vid_t n,
             plv::core::ThresholdModel model, double p1, double p2) {
  plv::core::ParOptions opts;
  opts.nranks = 4;
  opts.refine.threshold = model;
  opts.refine.p1 = p1;
  opts.refine.p2 = p2;
  const auto r = plv::louvain(plv::GraphSource::from_edges(edges, n), opts);
  RunStats s{r.final_modularity, r.num_levels(), 0, 0.0};
  for (const auto& level : r.levels) {
    s.inner_iters += level.trace.moved_fraction.size();
    s.total_moved += std::accumulate(level.trace.moved_fraction.begin(),
                                     level.trace.moved_fraction.end(), 0.0);
  }
  return s;
}

}  // namespace

int main() {
  plv::bench::banner("Ablation: threshold model and (p1, p2) sensitivity",
                     "LFR n=8000 mu=0.4; kNone = naive parallel baseline.");

  plv::gen::LfrParams p;
  p.n = 8000;
  p.mu = 0.4;
  p.seed = 55;
  const auto g = plv::gen::lfr(p);

  plv::TextTable table({"model", "p1", "p2", "final Q", "levels", "inner-iters",
                        "sum moved-fraction"});
  using TM = plv::core::ThresholdModel;

  for (double p1 : {0.01, 0.03, 0.1}) {
    for (double p2 : {0.2, 0.3, 0.5}) {
      const auto s = run(g.edges, p.n, TM::kPaperEq7, p1, p2);
      table.row().add("eq7 (default model)").add(p1, 2).add(p2, 2).add(s.q).add(
          s.levels).add(s.inner_iters).add(s.total_moved);
    }
  }
  for (double p1 : {1.0, 1.4}) {
    for (double p2 : {2.5, 4.0}) {
      const auto s = run(g.edges, p.n, TM::kExponentialDecay, p1, p2);
      table.row().add("decay-to-zero").add(p1, 2).add(p2, 2).add(s.q).add(s.levels).add(
          s.inner_iters).add(s.total_moved);
    }
  }
  {
    const auto s = run(g.edges, p.n, TM::kNone, 0, 0);
    table.row().add("none (naive)").add("-").add("-").add(s.q).add(s.levels).add(
        s.inner_iters).add(s.total_moved);
  }
  table.print();

  std::cout << "\nreading: Eq. 7 is robust across (p1, p2) — similar final Q with\n"
               "fewer total moves than the naive variant. The decay-to-zero rows\n"
               "show why Eq. 7's floor matters: without it the inner loop freezes\n"
               "early and Q lands visibly lower (DESIGN.md, substitution table).\n";
  return 0;
}
