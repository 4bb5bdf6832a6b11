// plouvain_cli — a subcommand-driven front end over the whole library,
// the "downstream user" entry point:
//
//   plouvain_cli gen    --kind lfr|bter|rmat|er [params] --out g.txt
//   plouvain_cli stats  --graph g.txt
//   plouvain_cli detect --graph g.txt [--engine par|seq|lp] [--ranks N]
//                       [--resolution G] [--out communities.txt] [--tree t.txt]
//
// Run with no arguments for usage.
#include <fstream>
#include <iostream>
#include <memory>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "core/hierarchy.hpp"
#include "core/louvain_par.hpp"
#include "gen/bter.hpp"
#include "gen/er.hpp"
#include "gen/lfr.hpp"
#include "gen/rmat.hpp"
#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "metrics/clustering.hpp"
#include "metrics/modularity.hpp"
#include "metrics/partition_utils.hpp"
#include "metrics/quality.hpp"
#include "pml/transport_tcp.hpp"
#include "seq/label_prop.hpp"
#include "seq/louvain_seq.hpp"


namespace {

int usage() {
  std::cout <<
      "plouvain_cli <command> [options]\n"
      "  gen    --kind lfr|bter|rmat|er --out FILE\n"
      "         lfr:  --n N --mu F --seed S [--gt FILE]\n"
      "         bter: --n N --gcc F --seed S\n"
      "         rmat: --scale K --edge-factor E --seed S\n"
      "         er:   --n N --m M --seed S\n"
      "  stats  --graph FILE\n"
      "  detect --graph FILE [--engine par|seq|lp] [--ranks N]\n"
      "         [--transport thread|proc|tcp|hybrid] [--resolution G]\n"
      "         [--heuristics] [--hosts host:port,...] [--rank R]\n"
      "         [--ranks-per-proc N] [--validate] [--out FILE]\n"
      "         [--tree FILE] [--warm FILE]\n"
      "Multi-host tcp: run the same command on every host with the same\n"
      "--hosts list (one host:port per rank, entry index = rank) and that\n"
      "host's --rank R; each invocation is one rank of the fleet. With\n"
      "--transport tcp and no --hosts, a single invocation runs the whole\n"
      "fleet over 127.0.0.1 (the loopback self-test). Only rank 0 prints\n"
      "the detect metrics in a multi-host run.\n"
      "Hybrid transport: --transport hybrid nests thread ranks inside\n"
      "forked processes (--ranks-per-proc N consecutive ranks per process,\n"
      "default 2) and runs the collectives hierarchically over the\n"
      "two-tier topology.\n"
      "The PLV_TRANSPORT environment variable overrides --transport,\n"
      "PLV_HOSTS/PLV_RANK override --hosts/--rank, PLV_RANKS_PER_PROC\n"
      "overrides --ranks-per-proc, and PLV_VALIDATE (or PLV_PARANOID)\n"
      "overrides --validate.\n";
  return 2;
}

plv::graph::EdgeList load(const plv::Cli& cli) {
  const auto path = cli.get_string("graph", "");
  if (path.empty()) throw std::runtime_error("missing --graph");
  return plv::graph::load_edge_list_text(path);
}

plv::core::ParOptions par_opts(const plv::Cli& cli) {
  plv::core::ParOptions opts;
  opts.nranks = static_cast<int>(cli.get_int("ranks", 4));
  // --heuristics switches the whole convergence-heuristic bundle on
  // (active-vertex scheduling, min-label ties, vertex-following, threshold
  // scaling — RefinePlan::heuristics()); the default keeps every heuristic
  // off, i.e. the paper-faithful Eq. 7 refine loop.
  if (cli.get_bool("heuristics", false)) opts.refine = plv::core::RefinePlan::heuristics();
  opts.refine.resolution = cli.get_double("resolution", 1.0);
  opts.transport = plv::pml::parse_transport_kind(cli.get_string("transport", "thread"));
  // --validate turns the pml protocol checker on even in optimized
  // builds; Debug builds default to on regardless (PLV_VALIDATE=0 turns
  // it off either way — the env wins inside the core front doors).
  opts.validate_transport = cli.get_bool("validate", opts.validate_transport);
  // Multi-host tcp launcher: --hosts names every rank's endpoint, --rank
  // says which one this process is. A host list implies the rank count.
  if (cli.has("hosts")) {
    opts.hosts = plv::pml::parse_host_list(cli.get_string("hosts", ""));
    opts.nranks = static_cast<int>(opts.hosts.size());
  }
  opts.tcp_rank = static_cast<int>(cli.get_int("rank", -1));
  // Hybrid group shape: N consecutive ranks share one forked process
  // (0 keeps the PLV_RANKS_PER_PROC / built-in default).
  opts.ranks_per_proc = static_cast<int>(cli.get_int("ranks-per-proc", 0));
  return opts;
}

/// In a multi-host tcp run every rank computes the full result; only rank
/// 0 should narrate it (the others' stdout is usually a remote log).
bool is_silent_rank(const plv::core::ParOptions& opts) {
  return opts.transport == plv::pml::TransportKind::kTcp && opts.tcp_rank > 0;
}

int cmd_gen(const plv::Cli& cli) {
  const auto kind = cli.get_string("kind", "lfr");
  const auto out = cli.get_string("out", "graph.txt");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  plv::graph::EdgeList edges;
  if (kind == "lfr") {
    plv::gen::LfrParams p;
    p.n = static_cast<plv::vid_t>(cli.get_int("n", 10000));
    p.mu = cli.get_double("mu", 0.3);
    p.seed = seed;
    const auto g = plv::gen::lfr(p);
    edges = g.edges;
    if (cli.has("gt")) {
      plv::graph::save_communities(g.ground_truth, cli.get_string("gt", "gt.txt"));
    }
  } else if (kind == "bter") {
    plv::gen::BterParams p;
    p.n = static_cast<plv::vid_t>(cli.get_int("n", 10000));
    p.gcc_target = cli.get_double("gcc", 0.5);
    p.seed = seed;
    edges = plv::gen::bter(p).edges;
  } else if (kind == "rmat") {
    plv::gen::RmatParams p;
    p.scale = static_cast<unsigned>(cli.get_int("scale", 14));
    p.edge_factor = static_cast<unsigned>(cli.get_int("edge-factor", 16));
    p.seed = seed;
    edges = plv::gen::rmat(p);
  } else if (kind == "er") {
    plv::gen::ErParams p;
    p.n = static_cast<plv::vid_t>(cli.get_int("n", 10000));
    p.m = static_cast<std::uint64_t>(cli.get_int("m", 80000));
    p.seed = seed;
    edges = plv::gen::erdos_renyi(p);
  } else {
    std::cerr << "unknown --kind " << kind << '\n';
    return 2;
  }
  plv::graph::save_edge_list_text(edges, out);
  std::cout << "wrote " << edges.size() << " edges to " << out << '\n';
  return 0;
}

int cmd_stats(const plv::Cli& cli) {
  const auto edges = load(cli);
  const auto g = plv::graph::Csr::from_edges(edges);
  const auto s = plv::graph::graph_stats(g);
  std::cout << "vertices        " << s.vertices << '\n'
            << "edges           " << s.undirected_edges << '\n'
            << "total weight    " << s.total_weight << '\n'
            << "avg degree      " << s.avg_degree << '\n'
            << "max degree      " << s.max_degree << '\n'
            << "isolated        " << s.isolated_vertices << '\n'
            << "self loops      " << s.self_loops << '\n'
            << "powerlaw gamma  " << plv::graph::degree_powerlaw_exponent(g) << '\n'
            << "global CC       " << plv::metrics::global_clustering_coefficient(g)
            << '\n';
  return 0;
}

int cmd_detect(const plv::Cli& cli) {
  const auto edges = load(cli);
  const auto engine = cli.get_string("engine", "par");
  const auto g = plv::graph::Csr::from_edges(edges);
  plv::WallTimer t;
  std::vector<plv::vid_t> labels;
  std::unique_ptr<plv::core::Hierarchy> hierarchy;
  bool quiet = false;
  if (engine == "seq") {
    plv::seq::SeqOptions opts;
    opts.resolution = cli.get_double("resolution", 1.0);
    const auto r = plv::seq::louvain(g, opts);
    labels = r.final_labels;
    hierarchy = std::make_unique<plv::core::Hierarchy>(r);
  } else if (engine == "lp") {
    labels = plv::seq::label_propagation(g).labels;
  } else if (engine == "par") {
    const auto opts = par_opts(cli);
    std::vector<plv::vid_t> seed_labels;
    plv::Result r;
    if (cli.has("warm")) {
      seed_labels = plv::graph::load_communities(cli.get_string("warm", ""));
      r = plv::louvain(plv::GraphSource::from_edges_warm(edges, seed_labels), opts);
    } else {
      r = plv::louvain(plv::GraphSource::from_edges(edges), opts);
    }
    labels = r.final_labels;
    quiet = is_silent_rank(opts);
    if (!quiet) std::cout << "transport    " << r.transport << '\n';
    hierarchy = std::make_unique<plv::core::Hierarchy>(r);
  } else {
    std::cerr << "unknown --engine " << engine << '\n';
    return 2;
  }
  const double seconds = t.seconds();

  if (!quiet) {
    std::cout << "engine       " << engine << '\n'
              << "seconds      " << seconds << '\n'
              << "communities  " << plv::metrics::count_communities(labels) << '\n'
              << "modularity   "
              << plv::metrics::modularity(g, labels,
                                          cli.get_double("resolution", 1.0))
              << '\n'
              << "coverage     " << plv::metrics::coverage(g, labels) << '\n'
              << "mean phi     " << plv::metrics::conductance(g, labels).mean
              << '\n';
    if (hierarchy) std::cout << "levels       " << hierarchy->num_levels() << '\n';
  }

  if (cli.has("out")) {
    plv::graph::save_communities(labels, cli.get_string("out", "communities.txt"));
  }
  if (cli.has("tree") && hierarchy) {
    std::ofstream os(cli.get_string("tree", "tree.txt"));
    hierarchy->write_tree(os);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  plv::Cli cli(argc - 1, argv + 1);
  try {
    if (command == "gen") return cmd_gen(cli);
    if (command == "stats") return cmd_stats(cli);
    if (command == "detect") return cmd_detect(cli);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
