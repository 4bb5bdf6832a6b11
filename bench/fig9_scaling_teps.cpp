// Fig. 9 — Scaling Analysis (TEPS).
//
// (a) weak scaling: constant per-rank work — R-MAT (2^16 vertices, 2^20
//     edges per rank; paper: 2^20/2^24 per BG/Q node) and BTER with GCC
//     0.15 vs 0.55 (paper: 2^22 vertices/node on P7-IH);
// (b/c) strong scaling: fixed graph, growing rank count.
//
// TEPS = input edges / time to finish the first level (paper Section
// V-E). Hardware gate: one core — the TEPS columns show the harness and
// the trend in communication volume; absolute scaling needs real ranks.
#include <iostream>
#include <cmath>

#include "common/table.hpp"
#include "core/louvain_par.hpp"
#include "gen/bter.hpp"
#include "gen/rmat.hpp"
#include "util.hpp"

namespace {

double first_level_seconds(const plv::Result& r) {
  return r.levels.empty() ? 0.0 : r.levels.front().seconds;
}

}  // namespace

int main() {
  plv::bench::banner("Fig. 9: weak scaling (a) and strong scaling (b, c), TEPS",
                     "Scaled: ranks 1..8, weak: 2^13 vertices/rank (paper: 8192 BG/Q nodes).");

  // --- (a) weak scaling: per-rank work constant (2^13 vertices / 2^16
  // edges per rank, the paper's 2^20 / 2^24 shrunk to container scale).
  // Each rank generates its own R-MAT slice via the distributed ingestion
  // path — the same no-global-edge-list setup as the paper's 138 G-edge
  // runs.
  std::cout << "(a) weak scaling\n";
  std::string transport;  // stamped by the first run
  plv::TextTable weak({"workload", "ranks", "edges", "first-level-s", "TEPS", "Q",
                       "records-sent/rank"});
  for (int ranks : {1, 2, 4, 8}) {
    plv::gen::RmatParams rp;
    rp.scale = 13 + static_cast<unsigned>(std::log2(ranks));
    rp.edge_factor = 8;
    rp.seed = 9;
    const std::uint64_t total = static_cast<std::uint64_t>(rp.edge_factor) << rp.scale;
    plv::core::ParOptions opts;
    opts.nranks = ranks;
    const plv::EdgeSliceFn slice = [&](int rank, int nranks) {
      const std::uint64_t per = total / static_cast<std::uint64_t>(nranks);
      const std::uint64_t first = per * static_cast<std::uint64_t>(rank);
      return plv::gen::rmat_slice(rp, first, rank == nranks - 1 ? total - first : per);
    };
    const auto r =
        plv::louvain(plv::GraphSource::from_stream(slice, 1u << rp.scale), opts);
    transport = r.transport;
    const double s = first_level_seconds(r);
    weak.row()
        .add("R-MAT (streamed)")
        .add(ranks)
        .add(total)
        .add(s)
        .add(s > 0 ? static_cast<double>(total) / s : 0.0, 0)
        .add(r.final_modularity)
        .add(r.traffic.records_sent / static_cast<std::uint64_t>(ranks));
  }
  for (double gcc : {0.15, 0.55}) {
    for (int ranks : {1, 2, 4, 8}) {
      plv::gen::BterParams bp;
      bp.n = static_cast<plv::vid_t>(6000 * ranks);  // vertices grow with ranks
      bp.gcc_target = gcc;
      bp.seed = 10;
      const auto g = plv::gen::bter(bp);
      plv::core::ParOptions opts;
      opts.nranks = ranks;
      const auto r = plv::louvain(plv::GraphSource::from_edges(g.edges, bp.n), opts);
      const double s = first_level_seconds(r);
      weak.row()
          .add("BTER gcc=" + std::to_string(gcc).substr(0, 4))
          .add(ranks)
          .add(g.edges.size())
          .add(s)
          .add(s > 0 ? static_cast<double>(g.edges.size()) / s : 0.0, 0)
          .add(r.final_modularity)
          .add(r.traffic.records_sent / static_cast<std::uint64_t>(ranks));
    }
  }
  weak.print();
  std::cout << "(paper shape: higher GCC => higher modularity and slightly higher\n"
               " TEPS; check the Q column ordering between gcc=0.15 and 0.55)\n\n";

  // --- (b/c) strong scaling: fixed graph. ----------------------------------
  std::cout << "(b/c) strong scaling\n";
  plv::TextTable strong({"workload", "ranks", "first-level-s", "TEPS", "records-sent"});
  plv::gen::RmatParams rp;
  rp.scale = 15;
  rp.edge_factor = 8;
  rp.seed = 11;
  const auto rmat_edges = plv::gen::rmat(rp);
  plv::gen::BterParams bp;
  bp.n = 25000;
  bp.gcc_target = 0.5;
  bp.seed = 12;
  const auto bter_graph = plv::gen::bter(bp);

  for (int ranks : {1, 2, 4, 8}) {
    plv::core::ParOptions opts;
    opts.nranks = ranks;
    {
      const auto r =
          plv::louvain(plv::GraphSource::from_edges(rmat_edges, 1u << rp.scale), opts);
      const double s = first_level_seconds(r);
      strong.row()
          .add("R-MAT scale 15")
          .add(ranks)
          .add(s)
          .add(s > 0 ? static_cast<double>(rmat_edges.size()) / s : 0.0, 0)
          .add(r.traffic.records_sent);
    }
    {
      const auto r =
          plv::louvain(plv::GraphSource::from_edges(bter_graph.edges, bp.n), opts);
      const double s = first_level_seconds(r);
      strong.row()
          .add("BTER n=25k")
          .add(ranks)
          .add(s)
          .add(s > 0 ? static_cast<double>(bter_graph.edges.size()) / s : 0.0, 0)
          .add(r.traffic.records_sent);
    }
  }
  strong.print();
  std::cout << "\ntransport: " << transport << "\n";
  std::cout << "\n(single-core container: TEPS cannot grow with ranks here; on real\n"
               " hardware the paper reaches 1.54 GTEPS on 8192 BG/Q nodes)\n";
  return 0;
}
