// perfbench — the repo's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--gen-seed <n>] [--out-dir <dir>]
//
// Workloads (see README.md for why each was chosen):
//   bter60k-r4        closed loop of cold plv::louvain solves, Fig. 8 BTER
//                     graph, 4 ranks;
//   lfr20k-r1         closed loop of cold solves, BM_FrontierAB LFR graph,
//                     1 rank;
//   stream-lfr20k-r4  plv::Session on the LFR graph, 4 ranks, one client
//                     applying 0.1% churn batches back to back; a run sets
//                     up five sessions in turn, one per segment.
//
// The graph is generated, written as a text edge list (untimed) and loaded
// back through graph::load_edge_list_text: the engine only ever sees the
// loaded edges. Every solve and apply is checked (see check_solve and
// check_snapshot); a failed check counts into `failed` and makes the
// process exit non-zero. --trace 0 reports the end-to-end metrics; --trace
// 1 records spans around every call into the engine's layers, runs the
// layer probes and reports the per-layer metrics. The last line of stdout
// is the JSON result, unless the publish gate refused the run or it aborted
// (then the exit code is non-zero and no result is printed).
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/louvain.hpp"
#include "common/random.hpp"
#include "core/options.hpp"
#include "core/session.hpp"
#include "gen/bter.hpp"
#include "gen/lfr.hpp"
#include "graph/csr.hpp"
#include "graph/io.hpp"
#include "metrics/modularity.hpp"
#include "pml/transport.hpp"
#include "pml/transport_check.hpp"
#include "probes.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

enum class GraphKind { kBter, kLfr };

struct Workload {
  const char* name;
  GraphKind graph;
  plv::vid_t n;
  int nranks;
  bool stream;
  std::uint64_t gen_seed;  // the reference input's generator seed
};

constexpr Workload kWorkloads[] = {
    {"bter60k-r4", GraphKind::kBter, 60000, 4, false, 8},
    {"lfr20k-r1", GraphKind::kLfr, 20000, 1, false, 71},
    {"stream-lfr20k-r4", GraphKind::kLfr, 20000, 4, true, 71},
};

constexpr int kStreamSetupReps = 5;  // Session segments per stream run
constexpr std::size_t kBatchPermille = 1;  // 0.1% of the edges per apply
constexpr double kQTolerance = 1e-9;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::optional<std::uint64_t> gen_seed;
  std::string out_dir{".bench_build/perfbench-out"};
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <bter60k-r4|lfr20k-r1|stream-lfr20k-r4>"
               " --seed <n> --seconds <s> --trace <0|1> [--gen-seed <n>] [--out-dir <dir>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") a.workload = value;
      else if (flag == "--seed") a.seed = std::stoull(value);
      else if (flag == "--seconds") a.seconds = std::stod(value);
      else if (flag == "--trace") a.trace = std::stoi(value) != 0;
      else if (flag == "--gen-seed") a.gen_seed = std::stoull(value);
      else if (flag == "--out-dir") a.out_dir = value;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

// ---------------------------------------------------------------------------
// Run stamp and publish gate (the rules of bench/bench_context.hpp, plus
// assert-enabled builds).

std::vector<std::pair<std::string, std::string>> run_stamp(const Args& a,
                                                           std::uint64_t gen_seed) {
  char host[256] = {};
  if (gethostname(host, sizeof host - 1) != 0) std::strcpy(host, "unknown");
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef NDEBUG
  const char* asserts = "off";
#else
  const char* asserts = "on";
#endif
  return {
      {"workload", a.workload},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"host", host},
      {"compiler", compiler},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"asserts", asserts},
      {"transport", plv::pml::transport_kind_name(
                        plv::pml::resolve_transport(plv::pml::TransportKind::kThread))},
      {"validation", plv::pml::resolve_validate(false) ? "on" : "off"},
      {"sanitizer", plv::pml::active_sanitizer_name()},
      {"gen_seed", std::to_string(gen_seed)},
      {"churn_seed", std::to_string(a.seed)},
      {"trace", a.trace ? "1" : "0"},
  };
}

/// Why this process must not publish numbers, or empty when it may.
std::string publish_refusal(const std::vector<std::pair<std::string, std::string>>& stamp) {
  std::map<std::string, std::string> s(stamp.begin(), stamp.end());
  if (s["asserts"] != "off") return "asserts are enabled (build without NDEBUG)";
  if (s["sanitizer"] != "none") return "built with sanitizer " + s["sanitizer"];
  if (s["validation"] != "off") return "ValidatingTransport is on (PLV_VALIDATE/PLV_PARANOID)";
  if (s["transport"] != "thread") return "PLV_TRANSPORT selects " + s["transport"];
  return {};
}

// ---------------------------------------------------------------------------
// Inputs.

plv::graph::EdgeList generate(const Workload& w, std::uint64_t seed) {
  if (w.graph == GraphKind::kBter) {
    plv::gen::BterParams p;
    p.n = w.n;
    p.d_min = 4;
    p.d_max = 128;
    p.gcc_target = 0.4;
    p.seed = seed;
    return plv::gen::bter(p).edges;
  }
  return plv::gen::lfr({.n = w.n, .mu = 0.3, .seed = seed}).edges;
}

/// The next churn batch: retract the previous batch's inserts, insert `k`
/// fresh uniform random edges (the bench/micro_streaming.cpp generator).
plv::EdgeDelta next_batch(plv::Xoshiro256& rng, std::vector<plv::Edge>& pending, std::size_t k,
                          plv::vid_t n) {
  plv::EdgeDelta delta;
  for (const plv::Edge& e : pending) delta.removals.add(e.u, e.v, e.w);
  pending.clear();
  for (std::size_t i = 0; i < k; ++i) {
    const auto u = static_cast<plv::vid_t>(rng.next_below(n));
    auto v = static_cast<plv::vid_t>(rng.next_below(n));
    while (v == u) v = static_cast<plv::vid_t>(rng.next_below(n));
    delta.inserts.add(u, v, 1.0);
    pending.push_back(plv::Edge{u, v, 1.0});
  }
  return delta;
}

plv::core::ParOptions engine_options(const Workload& w) {
  plv::core::ParOptions opts;
  opts.nranks = w.nranks;
  opts.transport = plv::pml::TransportKind::kThread;
  opts.validate_transport = false;
  opts.streaming = plv::core::StreamingPlan::fast();  // ignored by one-shot solves
  return opts;
}

// ---------------------------------------------------------------------------
// Output checks.

std::uint64_t labels_hash(const std::vector<plv::vid_t>& labels) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const plv::vid_t l : labels) {
    h ^= l;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Empty when `labels` is a dense labelling 0..k-1 of exactly n vertices.
std::string dense_error(const std::vector<plv::vid_t>& labels, plv::vid_t n) {
  if (labels.size() != n) {
    return "labels sized " + std::to_string(labels.size()) + ", want " + std::to_string(n);
  }
  std::vector<char> used(labels.size(), 0);
  for (const plv::vid_t l : labels) {
    if (l >= labels.size()) return "label " + std::to_string(l) + " out of range";
    used[l] = 1;
  }
  std::size_t k = 0;
  while (k < used.size() && used[k]) ++k;
  for (std::size_t c = k; c < used.size(); ++c) {
    if (used[c]) return "labels not dense: " + std::to_string(k) + " unused, " +
                        std::to_string(c) + " used";
  }
  return {};
}

std::string q_error(const plv::graph::Csr& g, const std::vector<plv::vid_t>& labels,
                    double reported) {
  const double q = plv::metrics::modularity(g, labels);
  if (std::abs(q - reported) > kQTolerance) {
    std::ostringstream msg;
    msg.precision(12);
    msg << "reported Q " << reported << " != recomputed Q " << q;
    return msg.str();
  }
  return {};
}

std::string check_solve(const plv::Result& r, const plv::graph::Csr& g, plv::vid_t n,
                        std::optional<std::uint64_t>& first_hash) {
  if (auto e = dense_error(r.final_labels, n); !e.empty()) return e;
  if (r.levels.empty()) return "no levels";
  if (r.labels_at_level(r.levels.size() - 1) != r.final_labels) {
    return "labels_at_level(last) differs from final_labels";
  }
  if (auto e = q_error(g, r.final_labels, r.final_modularity); !e.empty()) return e;
  const std::uint64_t h = labels_hash(r.final_labels);
  if (!first_hash) first_hash = h;
  if (h != *first_hash) return "final labels differ from the run's first solve";
  return {};
}

std::string check_snapshot(const plv::LabelSnapshot& s, std::uint64_t applies,
                           const plv::graph::EdgeList& mirror, plv::vid_t n) {
  if (s.epoch != applies) {
    return "snapshot epoch " + std::to_string(s.epoch) + " after " + std::to_string(applies) +
           " applies";
  }
  if (s.labels.size() != n) return "snapshot labels sized " + std::to_string(s.labels.size());
  return q_error(plv::graph::Csr::from_edges(mirror, n), s.labels, s.modularity);
}

// ---------------------------------------------------------------------------
// Metric bookkeeping.

struct Metric {
  double value;
  std::string unit;
  std::size_t samples;
};

class Report {
 public:
  /// `samples` is the count a median was taken over (0 = a single value,
  /// or a probe's own median).
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    metrics_[name] = {value, unit, samples};
    order_.push_back(name);
  }
  void set_median(const std::string& name, const std::vector<double>& xs,
                  const std::string& unit) {
    set(name, median(xs), unit, xs.size());
  }

  /// A printed line that is not a JSON metric (tail percentiles, rates).
  void note(std::string line) { notes_.push_back(std::move(line)); }

  void print_human(std::ostream& out) const {
    for (const auto& name : order_) {
      const Metric& m = metrics_.at(name);
      out << "  " << name << " = " << m.value << ' ' << m.unit;
      if (m.samples > 0) out << "  (n=" << m.samples << ")";
      out << "\n";
    }
    for (const auto& line : notes_) out << "  " << line << "\n";
  }

  void print_json(std::ostream& out, bool correct, std::size_t attempted,
                  std::size_t failed) const {
    out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const Metric& m = metrics_.at(order_[i]);
      out << (i ? ", " : "") << '"' << order_[i] << "\": {\"value\": " << fmt(m.value)
          << ", \"unit\": \"" << m.unit << "\"}";
    }
    out << "}}\n";
  }

 private:
  static std::string fmt(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  std::map<std::string, Metric> metrics_;
  std::vector<std::string> order_;
  std::vector<std::string> notes_;
};

/// Per-solve samples of the engine-side layer metrics, read from the public
/// plv::Result (phase timers, level traces, traffic, rank_seconds).
class SolveLayers {
 public:
  void add(const plv::Result& r, double wall_s, int max_inner_iterations) {
    using namespace plv::phase;
    double level_wall = 0, coarse = 0, small_wall = 0;
    std::uint64_t iterations = 0, small_iters = 0, capped = 0, scanned = 0, prop_records = 0;
    const double level0_n = r.levels.front().num_vertices;
    for (std::size_t l = 0; l < r.levels.size(); ++l) {
      const auto& level = r.levels[l];
      const auto iters = level.trace.moved_fraction.size();
      level_wall += level.seconds;
      if (l > 0) coarse += level.seconds;
      iterations += iters;
      if (static_cast<int>(iters) >= max_inner_iterations) ++capped;
      if (level.num_vertices <= 0.01 * level0_n) {
        small_wall += level.seconds;
        small_iters += iters;
      }
      for (const auto v : level.trace.scanned_vertices) scanned += v;
      for (const auto v : level.trace.prop_records) prop_records += v;
    }
    const double find = r.timers.get(kFindBestCommunity);
    const double prop = r.timers.get(kStatePropagation);
    double rank_max = 0, rank_sum = 0;
    for (const double s : r.rank_seconds) {
      rank_max = std::max(rank_max, s);
      rank_sum += s;
    }
    push("core.level0_s", "s", r.levels.front().seconds);
    push("core.coarse_levels_s", "s", coarse);
    push("core.small_level_iter_ms", "ms", small_iters ? small_wall / small_iters * 1e3 : 0.0);
    push("core.find_s", "s", find);
    push("core.update_s", "s", r.timers.get(kUpdateCommunity));
    push("core.prop_s", "s", prop);
    push("core.reconstruction_s", "s", r.timers.get(kGraphReconstruction));
    push("core.find_vertices_per_s", "vertices/s", find > 0 ? scanned / find : 0.0);
    push("core.prop_records_per_s", "records/s", prop > 0 ? prop_records / prop : 0.0);
    push("core.levels", "count", static_cast<double>(r.levels.size()));
    push("core.iterations", "count", static_cast<double>(iterations));
    push("core.levels_capped", "count", static_cast<double>(capped));
    push("core.unattributed_s", "s",
         level_wall - r.timers.get(kRefine) - r.timers.get(kGraphReconstruction));
    push("core.outside_levels_s", "s", wall_s - level_wall);
    push("core.rank_imbalance", "ratio",
         rank_sum > 0 ? rank_max / (rank_sum / static_cast<double>(r.rank_seconds.size())) : 1.0);
    refine_unnamed_s_.push_back(r.timers.get(kRefine) - find - prop -
                                r.timers.get(kUpdateCommunity));
    push("pml.records_sent", "records", static_cast<double>(r.traffic.records_sent));
    push("pml.bytes_sent", "bytes", static_cast<double>(r.traffic.bytes_sent));
    push("pml.collectives", "count", static_cast<double>(r.traffic.collectives));
    push("pml.collectives_per_iter", "count",
         iterations ? static_cast<double>(r.traffic.collectives) / iterations : 0.0);
  }

  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double med(const std::string& name) const {
    return median(samples_.at(name).second);
  }

  void report(Report& out) const {
    for (const auto& name : names_) {
      const auto& [unit, xs] = samples_.at(name);
      out.set_median(name, xs, unit);
    }
  }

  /// The Fig. 8 reconciliation line: how much level time the named phases
  /// leave unexplained, and how many levels stopped at the iteration cap.
  void print_reconciliation(std::ostream& out) const {
    out << "phase reconciliation (median over " << samples_.at("core.levels").second.size()
        << " solves): core.unattributed_s = " << med("core.unattributed_s")
        << " s, core.outside_levels_s = " << med("core.outside_levels_s")
        << " s, core.levels_capped = " << med("core.levels_capped") << " of "
        << med("core.levels") << " levels; REFINE not covered by FIND+UPDATE+PROP = "
        << median(refine_unnamed_s_) << " s\n";
  }

 private:
  void push(const std::string& name, const char* unit, double v) {
    auto [it, fresh] = samples_.try_emplace(name, unit, std::vector<double>{});
    if (fresh) names_.push_back(name);
    it->second.second.push_back(v);
  }

  std::map<std::string, std::pair<std::string, std::vector<double>>> samples_;  // unit, samples
  std::vector<std::string> names_;
  std::vector<double> refine_unnamed_s_;
};

/// Cumulative steal and total jiffies over all CPUs (/proc/stat), or zeros
/// where unavailable. Steal is time the hypervisor gave this machine's CPUs
/// to someone else: on a shared host it is what moves whole runs.
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double steal = 0, total = 0, v = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> v; ++i) {  // user nice system idle iowait irq softirq steal
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// The run.

class Bench {
 public:
  Bench(const Args& args, const Workload& w, std::uint64_t gen_seed)
      : args_(args), w_(w), gen_seed_(gen_seed), opts_(engine_options(w)), tracer_(args.trace) {}

  int run(std::vector<std::pair<std::string, std::string>> stamp) {
    const auto [steal0, total0] = cpu_steal_jiffies();
    prepare_input();
    if (w_.stream) run_stream(); else run_cold();
    if (args_.trace) run_probes();

    if (args_.trace) layer_report(report_); else e2e_report(report_);
    std::cout << "workload " << w_.name << ": " << attempted_ << " operations, " << failed_
              << " failed\n  error_rate = " << error_rate() << " fraction  (n=" << attempted_
              << ")\n";
    report_.print_human(std::cout);
    const auto [steal1, total1] = cpu_steal_jiffies();
    const double steal = total1 > total0 ? (steal1 - steal0) / (total1 - total0) : 0.0;
    std::cout << "  host steal during the run = " << steal << " of CPU time\n";
    stamp.emplace_back("host_steal_frac", std::to_string(steal));
    if (!solves_.empty()) {
      solves_.print_reconciliation(std::cout);
    } else {
      std::cout << "phase reconciliation: no cold solve in this run (see --trace 1)\n";
    }
    if (args_.trace) write_trace(stamp);
    report_.print_json(std::cout, failed_ == 0, attempted_, failed_);
    return failed_ == 0 ? 0 : 1;
  }

 private:
  void prepare_input() {
    const auto generated = generate(w_, gen_seed_);
    std::filesystem::create_directories(args_.out_dir);
    edge_file_ = args_.out_dir + "/" + (w_.graph == GraphKind::kBter ? "bter" : "lfr") + "-n" +
                 std::to_string(w_.n) + "-g" + std::to_string(gen_seed_) + ".txt";
    plv::graph::save_edge_list_text(generated, edge_file_);
    expected_edges_ = generated.size();
  }

  /// graph layer: one timed text load of the workload's edge list.
  plv::graph::EdgeList load() {
    ScopedSpan span(tracer_, "graph.load_edge_list_text");
    const auto t0 = Clock::now();
    auto edges = plv::graph::load_edge_list_text(edge_file_);
    load_s_.push_back(seconds_since(t0));
    if (edges.size() != expected_edges_) {
      throw std::runtime_error("loaded " + std::to_string(edges.size()) + " edges, wrote " +
                               std::to_string(expected_edges_));
    }
    return edges;
  }

  void fail(const std::string& what) {
    ++failed_;
    std::cout << "CHECK FAILED (" << w_.name << ", op " << attempted_ << "): " << what << "\n";
  }

  [[nodiscard]] double error_rate() const {
    return attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_) : 0.0;
  }

  /// Traced runs interleave untraced and traced operations, so the two
  /// medians give the tracing overhead under the same conditions.
  [[nodiscard]] bool traced_op(std::size_t i) const { return args_.trace && i % 2 == 1; }

  // --- cold workloads -------------------------------------------------------

  /// One cold solve, timed and checked; returns the result for the probes.
  std::optional<plv::Result> solve(const plv::graph::EdgeList& edges, const plv::graph::Csr& g,
                                   bool traced, std::vector<double>& wall_samples) {
    std::optional<plv::Result> r;
    const int span = traced ? tracer_.begin("core.louvain") : -1;
    const auto t0 = Clock::now();
    try {
      r = plv::louvain(plv::GraphSource::from_edges(edges, w_.n), opts_);
    } catch (const std::exception& e) {
      tracer_.end(span);
      fail(std::string("plv::louvain threw: ") + e.what());
      return std::nullopt;
    }
    const double wall = seconds_since(t0);
    tracer_.end(span);
    wall_samples.push_back(wall);
    if (span >= 0) {
      // Engine-side durations travel as attributes of the solve span.
      tracer_.attr(span, "modularity", r->final_modularity);
      for (const auto& [phase, secs] : r->timers.items()) tracer_.attr(span, phase, secs);
      for (std::size_t l = 0; l < r->levels.size(); ++l) {
        tracer_.attr(span, "level" + std::to_string(l) + "_s", r->levels[l].seconds);
        tracer_.attr(span, "level" + std::to_string(l) + "_iterations",
                     static_cast<double>(r->levels[l].trace.moved_fraction.size()));
      }
    }
    {
      const int check = traced ? tracer_.begin("metrics.check_solve") : -1;
      if (auto e = check_solve(*r, g, w_.n, first_hash_); !e.empty()) fail(e);
      tracer_.end(check);
    }
    solves_.add(*r, wall, opts_.refine.max_inner_iterations);
    modularity_ = r->final_modularity;
    return r;
  }

  /// Set-up (the text load) runs once before the loop and again after
  /// every solve, so its samples span the run like the solves do.
  void run_cold() {
    plv::graph::EdgeList edges = load();
    const auto g = plv::graph::Csr::from_edges(edges, w_.n);
    const auto start = Clock::now();
    for (std::size_t i = 0; i == 0 || seconds_since(start) < args_.seconds; ++i) {
      ++attempted_;
      const bool traced = traced_op(i);
      const int op = traced ? tracer_.begin("bench.solve_op") : -1;
      if (auto r = solve(edges, g, traced, traced ? traced_op_s_ : op_s_)) last_ = std::move(r);
      tracer_.end(op);
      (void)load();
    }
    setup_s_ = load_s_;
    edges_ = std::move(edges);
  }

  // --- stream workload ------------------------------------------------------

  /// The run is split into kStreamSetupReps segments. Each one sets up a
  /// fresh Session on the loaded graph (one set-up sample) and then applies
  /// churn batches until its share of --seconds is used, so set-up samples
  /// span the run like the applies do.
  void run_stream() {
    plv::Xoshiro256 rng(args_.seed);
    std::optional<plv::Session> session;
    std::size_t op = 0;  // applies over all segments; picks the traced ones
    const auto start = Clock::now();
    for (int seg = 1; seg <= kStreamSetupReps; ++seg) {
      session.reset();  // one resident fleet at a time
      {
        ScopedSpan setup(tracer_, "bench.setup");
        edges_ = load();
        ScopedSpan span(tracer_, "core.Session");
        const auto t0 = Clock::now();
        session.emplace(plv::GraphSource::from_edges(edges_, w_.n), opts_);
        session_init_s_.push_back(seconds_since(t0));
        setup_s_.push_back(load_s_.back() + session_init_s_.back());
      }
      plv::graph::EdgeList mirror = edges_;
      if (auto e = check_snapshot(*session->snapshot(), 0, mirror, w_.n); !e.empty()) {
        fail("initial snapshot: " + e);
      }
      std::vector<plv::Edge> pending;
      const double segment_end = args_.seconds * seg / kStreamSetupReps;
      for (std::uint64_t epoch = 1; epoch == 1 || seconds_since(start) < segment_end;
           ++epoch, ++op) {
        const auto delta = next_batch(rng, pending, batch_edges(), w_.n);
        if (!apply_batch(*session, delta, mirror, epoch, traced_op(op))) return;
      }
    }
  }

  [[nodiscard]] std::size_t batch_edges() const {
    return std::max<std::size_t>(1, edges_.size() * kBatchPermille / 1000);
  }

  /// One timed Session::apply, the mirror patch and the snapshot check.
  /// Returns false when the apply threw: the session is dead.
  bool apply_batch(plv::Session& session, const plv::EdgeDelta& delta,
                   plv::graph::EdgeList& mirror, std::uint64_t epoch, bool traced) {
    ++attempted_;
    const int op = traced ? tracer_.begin("bench.apply_op") : -1;
    std::shared_ptr<const plv::LabelSnapshot> snap;
    {
      const int span = traced ? tracer_.begin("core.Session.apply") : -1;
      const auto t0 = Clock::now();
      try {
        snap = session.apply(delta);
      } catch (const std::exception& e) {
        tracer_.end(span);
        tracer_.end(op);
        fail(std::string("Session::apply threw: ") + e.what());
        return false;
      }
      (traced ? traced_op_s_ : op_s_).push_back(seconds_since(t0));
      tracer_.end(span);
    }
    {
      // common layer: the same replica patch every rank applies.
      const int span = traced ? tracer_.begin("common.apply_edge_delta") : -1;
      const auto t0 = Clock::now();
      plv::apply_edge_delta(mirror, delta);
      delta_patch_ms_.push_back(seconds_since(t0) * 1e3);
      tracer_.end(span);
    }
    const int check = traced ? tracer_.begin("metrics.check_snapshot") : -1;
    if (auto e = check_snapshot(*snap, epoch, mirror, w_.n); !e.empty()) fail(e);
    tracer_.end(check);
    ++applies_;
    incremental_ += snap->incremental ? 1 : 0;
    modularity_ = snap->modularity;
    tracer_.end(op);
    return true;
  }

  // --- per-layer probes (traced run only) -----------------------------------

  void run_probes() {
    ScopedSpan span(tracer_, "bench.probes");
    const auto g = plv::graph::Csr::from_edges(edges_, w_.n);
    if (w_.stream) {
      // The stream's engine-side layer numbers come from one cold solve of
      // the same graph on the same fleet size: the work an apply replaces.
      std::vector<double> unused;
      ++attempted_;
      last_ = solve(edges_, g, true, unused);
    } else {
      probe_session();
      probe_delta_patch();
    }
    if (!last_) return;
    const auto& level0 = last_->levels.front();
    const std::uint64_t prop_records =
        level0.trace.prop_records.empty() ? 0 : level0.trace.prop_records.front();
    const std::size_t ranks = static_cast<std::size_t>(w_.nranks);
    const std::size_t out_entries = std::max<std::size_t>(1, g.num_entries() / ranks);
    const std::size_t small_entries =
        std::max<std::size_t>(1, last_->levels.back().num_vertices / ranks);
    const std::uint64_t seed = args_.seed;

    const int nr = w_.nranks;
    {
      ScopedSpan probe(tracer_, "probe.pml.spawn");
      report_.set("pml.spawn_ms", pml_spawn_ms(nr), "ms");
    }
    {
      ScopedSpan probe(tracer_, "probe.pml.collective_latency");
      const auto lat = pml_collective_latency(nr);
      report_.set("pml.barrier_us", lat.barrier_us, "us");
      report_.set("pml.allreduce_us", lat.allreduce_us, "us");
    }
    {
      ScopedSpan probe(tracer_, "probe.pml.exchange");
      report_.set("pml.exchange_mrecs_per_s", pml_exchange_mrecs_per_s(nr, prop_records),
                  "Mrecords/s");
    }
    {
      ScopedSpan probe(tracer_, "probe.pml.aggregator");
      report_.set("pml.aggregator_mrecs_per_s", pml_aggregator_mrecs_per_s(nr, prop_records),
                  "Mrecords/s");
    }
    {
      ScopedSpan probe(tracer_, "probe.hashing.edgetable");
      const auto et = edgetable_ns(out_entries, seed);
      report_.set("hashing.edgetable_add_ns", et.add_ns, "ns");
      report_.set("hashing.edgetable_find_ns", et.find_ns, "ns");
    }
    {
      ScopedSpan probe(tracer_, "probe.hashing.edgetable_clear_residue");
      report_.set("hashing.edgetable_clear_residue_us",
                  edgetable_clear_residue_us(out_entries, small_entries, seed), "us");
    }
    {
      ScopedSpan probe(tracer_, "probe.hashing.flatmap");
      report_.set("hashing.flatmap_ref_ns", flatmap_ref_ns(g, seed), "ns");
    }
  }

  /// Cold workloads: a Session on the workload's own graph and fleet, for
  /// core.session_init_s and core.apply_incremental_frac.
  void probe_session() {
    constexpr int kApplies = 5;
    ScopedSpan span(tracer_, "probe.session");
    std::optional<plv::Session> session;
    {
      ScopedSpan ctor(tracer_, "core.Session");
      const auto t0 = Clock::now();
      session.emplace(plv::GraphSource::from_edges(edges_, w_.n), opts_);
      session_init_s_.push_back(seconds_since(t0));
    }
    plv::Xoshiro256 rng(args_.seed);
    std::vector<plv::Edge> pending;
    for (int i = 0; i < kApplies; ++i) {
      const auto delta = next_batch(rng, pending, batch_edges(), w_.n);
      ScopedSpan apply(tracer_, "core.Session.apply");
      incremental_ += session->apply(delta)->incremental ? 1 : 0;
      ++applies_;
    }
  }

  /// Cold workloads: apply_edge_delta of 0.1% churn batches on a mirror of
  /// the workload's graph — the replica patch a Session would pay here.
  void probe_delta_patch() {
    constexpr int kBatches = 11;
    ScopedSpan span(tracer_, "probe.common.delta_patch_ms");
    plv::graph::EdgeList mirror = edges_;
    plv::Xoshiro256 rng(args_.seed + 1);
    std::vector<plv::Edge> pending;
    for (int i = 0; i < kBatches; ++i) {
      const auto delta = next_batch(rng, pending, batch_edges(), w_.n);
      ScopedSpan patch(tracer_, "common.apply_edge_delta");
      const auto t0 = Clock::now();
      plv::apply_edge_delta(mirror, delta);
      delta_patch_ms_.push_back(seconds_since(t0) * 1e3);
    }
  }

  // --- reports --------------------------------------------------------------

  void e2e_report(Report& out) const {
    out.set_median("setup_s", setup_s_, "s");
    if (w_.stream) {
      out.set_median("solve_s", session_init_s_, "s");
      out.set("apply_p50_ms", median(op_s_) * 1e3, "ms", op_s_.size());
      const std::size_t beyond = samples_beyond(op_s_, 0.9);
      std::ostringstream p90;
      if (beyond >= 10) {
        p90 << "apply_p90_ms = " << percentile(op_s_, 0.9) * 1e3 << " ms  (n=" << op_s_.size()
            << ", " << beyond << " beyond)";
      } else {
        p90 << "apply_p90_ms omitted: only " << beyond << " of " << op_s_.size()
            << " samples beyond p90";
      }
      out.note(p90.str());
    } else {
      out.set_median("solve_s", op_s_, "s");
      out.set("apply_p50_ms", median(op_s_) * 1e3, "ms", op_s_.size());
    }
    out.set("modularity", modularity_, "Q");
    out.set("peak_rss_mb", peak_rss_mb(), "MiB");
  }

  void layer_report(Report& out) const {
    out.set_median("graph.load_s", load_s_, "s");
    out.set_median("common.delta_patch_ms", delta_patch_ms_, "ms");
    solves_.report(out);
    out.set_median("core.session_init_s", session_init_s_, "s");
    out.set("core.apply_incremental_frac",
            applies_ ? static_cast<double>(incremental_) / static_cast<double>(applies_) : 0.0,
            "fraction", applies_);
    const double untraced = median(op_s_);
    out.set("bench.trace_overhead_frac",
            untraced > 0 && !traced_op_s_.empty() ? median(traced_op_s_) / untraced - 1.0 : 0.0,
            "fraction", traced_op_s_.size());
  }

  void write_trace(const std::vector<std::pair<std::string, std::string>>& stamp) const {
    const std::string path = args_.out_dir + "/trace-" + w_.name + "-s" +
                             std::to_string(args_.seed) + ".json";
    if (tracer_.write(path, stamp)) {
      std::cout << "trace: " << path << "\n";
    } else {
      std::cout << "trace: could not write " << path << "\n";
    }
  }

  const Args& args_;
  const Workload& w_;
  std::uint64_t gen_seed_;
  plv::core::ParOptions opts_;
  Tracer tracer_;

  std::string edge_file_;
  std::size_t expected_edges_{0};
  plv::graph::EdgeList edges_;

  std::vector<double> load_s_, setup_s_, session_init_s_, delta_patch_ms_;
  std::vector<double> op_s_, traced_op_s_;  // solve or apply wall times
  SolveLayers solves_;
  Report report_;
  std::optional<plv::Result> last_;
  std::optional<std::uint64_t> first_hash_;
  std::size_t attempted_{0}, failed_{0}, applies_{0}, incremental_{0};
  double modularity_{0};
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  const Workload* w = nullptr;
  for (const auto& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) usage("unknown workload " + args.workload);
  const std::uint64_t gen_seed = args.gen_seed.value_or(w->gen_seed);

  const auto stamp = run_stamp(args, gen_seed);
  std::cout << "stamp:";
  for (const auto& [key, value] : stamp) std::cout << ' ' << key << '=' << value;
  std::cout << "\n";
  if (const auto why = publish_refusal(stamp); !why.empty()) {
    std::cerr << "perfbench: refusing to record numbers: " << why << "\n";
    return 3;
  }
  try {
    Bench bench(args, *w, gen_seed);
    return bench.run(stamp);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << w->name << " failed: " << e.what() << "\n";
    return 1;
  }
}
