// Ablation — 1-D partition kind inside the full algorithm (DESIGN.md
// item 2).
//
// The paper fixes cyclic ownership; this ablation measures block ownership
// against it on the end-to-end run: wall time, modularity and message
// volume. (The engine's tables are sorted rows with no hash function or
// load factor to vary; the paper's hash study is bench/fig6_hash_behavior.)
#include <iostream>

#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/louvain_par.hpp"
#include "gen/rmat.hpp"
#include "util.hpp"

int main() {
  plv::bench::banner("Ablation: partition kind",
                     "R-MAT scale 13 (skewed degrees stress the 1D split).");

  plv::gen::RmatParams rp;
  rp.scale = 13;
  rp.edge_factor = 8;
  rp.seed = 77;
  const auto edges = plv::gen::rmat(rp);
  const plv::vid_t n = 1u << rp.scale;

  plv::TextTable table({"partition", "seconds", "Q", "records-sent"});
  using PK = plv::graph::PartitionKind;

  for (PK part : {PK::kCyclic, PK::kBlock}) {
    plv::core::ParOptions opts;
    opts.nranks = 4;
    opts.partition = part;
    plv::WallTimer t;
    const auto r = plv::louvain(plv::GraphSource::from_edges(edges, n), opts);
    table.row()
        .add(part == PK::kCyclic ? "cyclic" : "block")
        .add(t.seconds())
        .add(r.final_modularity)
        .add(r.traffic.records_sent);
  }
  table.print();
  std::cout << "\nreading: cyclic vs block may differ slightly in Q (different\n"
               "tie-break exposure); time and records show the load balance.\n";
  return 0;
}
