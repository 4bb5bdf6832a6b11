// HybridTransport: thread-rank groups nested inside forked socket
// processes — the composed two-tier substrate of the hierarchical
// collectives.
//
// Shape: the fleet is cut into consecutive blocks of `ranks_per_proc`
// ranks. Each block is one OS process (group 0 is the calling process,
// so rank-0 result capture into caller-scope variables keeps working;
// groups 1..G-1 are forked children), and each rank inside a block is
// one thread of that process. Every rank owns a SocketFrameTransport by
// value over a pre-fork socketpair mesh — the full mesh, siblings
// included, so the fine-grained chunk plane, the abort plane, and the
// EOF failure detector are exactly the proc backend's, uniform across
// tiers. What the composition adds is the *collective* tiers:
//
//   group_alltoallv  — shared memory. Members publish span pointers into
//                      per-process slots and meet at a pump-aware group
//                      barrier (parked ranks keep draining their socket
//                      lanes so remote writers never stall against a
//                      member waiting on its siblings).
//   leader_alltoallv — leader-to-leader collective frames over the
//                      socket tier (send_collective/take_collective);
//                      non-leaders never touch the inter-group plane.
//
// topology() publishes the block structure, which is what switches Comm
// onto the two-level collectives; with HybridOptions::flat_collectives
// the same substrate reports the trivial topology instead, giving the
// A/B baseline the hierarchical path is measured against.
#include "pml/transport_hybrid.hpp"

#include <stdio_ext.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/errno_util.hpp"
#include "common/sync.hpp"
#include "pml/comm.hpp"
#include "pml/transport.hpp"
#include "pml/transport_check.hpp"
#include "pml/transport_socket.hpp"

namespace plv::pml {

HybridOptions resolve_hybrid_options(HybridOptions requested) {
  // Env knobs are read during single-threaded setup, before any worker
  // threads or forked children exist.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* rpp = std::getenv("PLV_RANKS_PER_PROC");
  if (rpp != nullptr && *rpp != '\0') {
    char* end = nullptr;
    const long v = std::strtol(rpp, &end, 10);
    if (end == rpp || *end != '\0' || v < 1 || v > 1 << 20) {
      throw std::invalid_argument(
          std::string("pml: PLV_RANKS_PER_PROC must be a positive integer, got '") +
          rpp + "'");
    }
    requested.ranks_per_proc = static_cast<int>(v);
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* flat = std::getenv("PLV_FLAT_COLLECTIVES");
  if (flat != nullptr && *flat != '\0') {
    requested.flat_collectives = std::string_view(flat) != "0";
  }
  if (requested.ranks_per_proc == 0) requested.ranks_per_proc = 2;
  return requested;
}

namespace detail {
namespace {

/// Per-process state shared by the rank threads of one group: the
/// intra-group collective plane. `slots[j]` is member j's published
/// outgoing-span array during a group_alltoallv; the barrier is the
/// classic generation-counting rendezvous, with the twist that waiters
/// pump their own socket lanes (see HybridTransport::group_sync).
///
/// Synchronization map (no PLV_GUARDED_BY here on purpose): a member
/// writes only its own `slots` entry before the rendezvous and peers read
/// it only after — the generation bump (release CAS, acquire loads in
/// the waiters' spin) is the ordering edge, not a lock the analysis could
/// name. `state` packs the rendezvous generation (high 32 bits) and the
/// arrival count (low 32 bits) into one word, so an arrival, the
/// completing arrival and an abort withdrawal are each one CAS and can
/// never interleave; `aborted` is the group-local kill flag.
struct HybridShared {
  explicit HybridShared(int group_size)
      : slots(static_cast<std::size_t>(group_size), nullptr), size(group_size) {}

  std::vector<const std::span<const std::byte>*> slots;
  std::atomic<std::uint64_t> state{0};
  int size;
  std::atomic<bool> aborted{false};
};

class HybridTransport final : public Transport {
 public:
  /// `fds` is this rank's row of the global socketpair mesh (self -1;
  /// sibling lanes are real socketpairs too). `topo` is the published
  /// topology — Topology::blocks normally, Topology::flat under the
  /// flat_collectives A/B baseline. `group_base`/`slot` locate the rank
  /// inside its hosting process independently of what topo reports, so
  /// the shared-memory plane stays wired even when the topology is
  /// flattened (Comm then simply never uses it).
  HybridTransport(int rank, int nranks, std::vector<int> fds, HybridShared* shared,
                  Topology topo, int group_base)
      : socket_("hybrid", rank, nranks, std::move(fds)),
        shared_(shared),
        topo_(std::move(topo)),
        group_base_(group_base),
        slot_(rank - group_base) {}

  [[nodiscard]] const char* name() const noexcept override { return socket_.name(); }
  [[nodiscard]] int rank() const noexcept override { return socket_.rank(); }
  [[nodiscard]] int nranks() const noexcept override { return socket_.nranks(); }

  // Flat collective plane: every lane exists in the mesh (siblings
  // included), so the socket implementation is complete as-is. This is
  // the baseline the hierarchical plane is benchmarked against.
  void barrier() override { socket_.barrier(); }
  void alltoallv(std::span<const std::span<const std::byte>> outgoing,
                 CollectiveSink& sink) override {
    socket_.alltoallv(outgoing, sink);
  }

  // Fine-grained plane: pure delegation. Chunk pools stay per-rank and
  // single-owner because even sibling sends cross a socketpair.
  [[nodiscard]] Chunk* acquire_chunk(std::size_t reserve_bytes) override {
    return socket_.acquire_chunk(reserve_bytes);
  }
  void release_chunk(Chunk* chunk) noexcept override { socket_.release_chunk(chunk); }
  void send(int dest, Chunk* chunk) override { socket_.send(dest, chunk); }
  std::size_t drain(std::vector<Chunk*>& out) override { return socket_.drain(out); }
  void wait_incoming() override { socket_.wait_incoming(); }

  [[nodiscard]] const Topology& topology() const override { return topo_; }

  void group_alltoallv(std::span<const std::span<const std::byte>> outgoing,
                       CollectiveSink& sink) override {
    assert(!topo_.trivial());
    assert(static_cast<int>(outgoing.size()) == topo_.group_size);
    shared_->slots[static_cast<std::size_t>(slot_)] = outgoing.data();
    // Publish: every member's slot pointer is now visible. An abort seen
    // before the rendezvous completes withdraws this member (its spans
    // unwind with it, and no sibling can read them); once it completes,
    // every member is committed to the consume rendezvous below.
    group_sync(/*abortable=*/true);
    try {
      std::size_t total = 0;
      for (int j = 0; j < topo_.group_size; ++j) {
        total += shared_->slots[static_cast<std::size_t>(j)][slot_].size();
      }
      sink.total_hint(total);
      for (int j = 0; j < topo_.group_size; ++j) {
        // slots[j][slot_] is member j's payload for this rank; ascending j
        // is ascending global source rank (consecutive blocks).
        sink.deliver(group_base_ + j, shared_->slots[static_cast<std::size_t>(j)][slot_]);
      }
    } catch (...) {
      group_sync(/*abortable=*/false);
      throw;
    }
    // Consume: spans stay valid until every member is done reading. Not
    // abortable — a member leaving early would free spans a sibling may
    // still be reading, and every committed member reaches this point
    // without waiting on anything outside the process.
    group_sync(/*abortable=*/false);
  }

  void leader_alltoallv(std::span<const std::span<const std::byte>> outgoing,
                        CollectiveSink& sink) override {
    assert(!topo_.trivial());
    assert(topo_.is_leader());
    assert(static_cast<int>(outgoing.size()) == topo_.ngroups);
    const int G = topo_.ngroups;
    for (int h = 0; h < G; ++h) {
      if (h == topo_.group) continue;
      socket_.send_collective(topo_.leaders[static_cast<std::size_t>(h)],
                              outgoing[static_cast<std::size_t>(h)]);
    }
    // Gather every peer leader's blob before delivering so the sink sees
    // ascending group order regardless of arrival order.
    cross_scratch_.assign(static_cast<std::size_t>(G), {});
    std::size_t total = outgoing[static_cast<std::size_t>(topo_.group)].size();
    for (int h = 0; h < G; ++h) {
      if (h == topo_.group) continue;
      cross_scratch_[static_cast<std::size_t>(h)] =
          socket_.take_collective(topo_.leaders[static_cast<std::size_t>(h)]);
      total += cross_scratch_[static_cast<std::size_t>(h)].size();
    }
    sink.total_hint(total);
    for (int h = 0; h < G; ++h) {
      if (h == topo_.group) {
        sink.deliver(h, outgoing[static_cast<std::size_t>(h)]);
      } else {
        const auto& blob = cross_scratch_[static_cast<std::size_t>(h)];
        sink.deliver(h, {blob.data(), blob.size()});
      }
    }
  }

  void raise_abort() noexcept override {
    // Order matters: siblings parked in group_sync watch the shared flag,
    // remote ranks get the best-effort Abort frames (and, failing those,
    // the EOF when this transport destructs).
    shared_->aborted.store(true, std::memory_order_release);
    socket_.raise_abort();
  }
  [[nodiscard]] bool aborted() const noexcept override {
    return socket_.aborted() || shared_->aborted.load(std::memory_order_acquire);
  }

  void set_pool_watermark(std::size_t nodes) noexcept override {
    socket_.set_pool_watermark(nodes);
  }
  void trim_pool() noexcept override { socket_.trim_pool(); }
  [[nodiscard]] std::size_t pool_free_count() const noexcept override {
    return socket_.pool_free_count();
  }

  void finish() noexcept { socket_.finish(); }

 private:
  /// Group rendezvous. When `abortable`, waiters spin on the rendezvous
  /// generation but keep pumping their own socket lanes: a remote rank
  /// mid-write to a parked member always finds its reader live, which is
  /// the same deadlock-freedom argument write_frame itself relies on. A
  /// member that sees any rank (sibling or remote) fail before the
  /// rendezvous completes takes its arrival back and unwinds with
  /// AbortedError, so a group never waits forever on a dead member and
  /// never completes a rendezvous a member has left. The non-abortable
  /// form only waits for siblings doing local work, so it neither pumps
  /// (which could throw) nor checks the abort flag.
  void group_sync(bool abortable) {
    constexpr std::uint64_t kCountMask = 0xffffffffu;
    if (abortable && aborted()) throw AbortedError();
    const auto size = static_cast<std::uint64_t>(shared_->size);
    std::uint64_t seen = shared_->state.load(std::memory_order_acquire);
    std::uint64_t arrived = 0;
    for (;;) {
      const std::uint64_t gen = seen >> 32;
      const std::uint64_t count = (seen & kCountMask) + 1;
      arrived = count == size ? (gen + 1) << 32 : (gen << 32) | count;
      if (shared_->state.compare_exchange_weak(seen, arrived, std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
        break;
      }
    }
    const std::uint64_t gen = (seen >> 32);
    if ((arrived >> 32) != gen) return;  // this arrival completed the rendezvous
    int spins = 0;
    for (;;) {
      std::uint64_t now = shared_->state.load(std::memory_order_acquire);
      if ((now >> 32) != gen) return;
      if (abortable) {
        if (aborted()) {
          // Withdraw, unless the rendezvous completed in the meantime.
          if (shared_->state.compare_exchange_weak(now, now - 1, std::memory_order_acq_rel,
                                                   std::memory_order_acquire)) {
            throw AbortedError();
          }
          continue;
        }
        socket_.pump_incoming(false);
      }
      if (++spins > 64) std::this_thread::yield();
    }
  }

  SocketFrameTransport socket_;
  HybridShared* shared_;
  Topology topo_;
  int group_base_;  ///< global rank of this process's first (leader) rank
  int slot_;        ///< this rank's index inside its hosting process
  std::vector<std::vector<std::byte>> cross_scratch_;
};

/// run_rank_body's logic for the hybrid wrapper (that helper is bound to
/// SocketFrameTransport by signature). Same outcome mapping: clean run
/// sends Goodbye, AbortedError rebroadcasts and stays peer-induced, any
/// other exception is this rank's own failure.
int run_hybrid_rank(HybridTransport& transport, const std::function<void(Comm&)>& body,
                    bool validate, std::string& error_text,
                    std::exception_ptr* keep_exception) {
  try {
    if (validate) {
      ValidatingTransport checked(transport);
      {
        Comm comm(checked);
        body(comm);
      }
      checked.finalize();
    } else {
      Comm comm(transport);
      body(comm);
    }
    transport.finish();
    return kExitClean;
  } catch (const AbortedError&) {
    transport.raise_abort();  // rebroadcast; the originator reports the cause
    return kExitAborted;
  } catch (const std::exception& e) {
    error_text = e.what();
    if (keep_exception != nullptr) *keep_exception = std::current_exception();
    transport.raise_abort();
    return kExitFailed;
  } catch (...) {
    error_text = "unknown exception";
    if (keep_exception != nullptr) *keep_exception = std::current_exception();
    transport.raise_abort();
    return kExitFailed;
  }
}

/// One process's share of the run, parent and child sides alike.
struct GroupOutcome {
  int code{kExitClean};
  int failed_rank{-1};
  std::string error_text;
  std::exception_ptr exception;  // meaningful in the calling process only
};

GroupOutcome run_group(int group, int nranks, const std::function<void(Comm&)>& body,
                       bool validate, const HybridOptions& resolved,
                       const std::vector<std::vector<int>>& mesh) {
  const int base = group * resolved.ranks_per_proc;
  const int count = std::min(resolved.ranks_per_proc, nranks - base);
  HybridShared shared(count);
  // Loser ranks race to record the group's outcome; lowest failed rank
  // wins, see the merge below.
  struct {
    plv::Mutex mu;
    GroupOutcome out PLV_GUARDED_BY(mu);
  } outcome;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(count));
  for (int j = 0; j < count; ++j) {
    const int r = base + j;
    threads.emplace_back([&, r] {
      std::string error_text;
      std::exception_ptr exception;
      int code = kExitFailed;
      try {
        Topology topo = resolved.flat_collectives
                            ? Topology::flat(nranks)
                            : Topology::blocks(nranks, resolved.ranks_per_proc, r);
        HybridTransport transport(r, nranks, mesh[static_cast<std::size_t>(r)], &shared,
                                  std::move(topo), base);
        code = run_hybrid_rank(transport, body, validate, error_text, &exception);
      } catch (const std::exception& e) {
        error_text = std::string("transport setup failed: ") + e.what();
        exception = std::current_exception();
        shared.aborted.store(true, std::memory_order_release);
      } catch (...) {
        error_text = "transport setup failed";
        exception = std::current_exception();
        shared.aborted.store(true, std::memory_order_release);
      }
      // Transport destructed above: this rank's lanes are closed, so
      // remote peers see Goodbye-then-EOF (clean) or bare EOF (failure).
      if (code == kExitClean) return;
      plv::MutexLock lock(outcome.mu);
      GroupOutcome& out = outcome.out;
      if (code == kExitFailed &&
          (out.code != kExitFailed || r < out.failed_rank)) {
        out.code = kExitFailed;
        out.failed_rank = r;
        out.error_text = error_text;
        out.exception = exception;
      } else if (out.code == kExitClean) {
        out.code = kExitAborted;
      }
    });
  }
  for (auto& t : threads) t.join();
  plv::MutexLock lock(outcome.mu);
  return std::move(outcome.out);
}

[[noreturn]] void hybrid_child_main(int group, int nranks,
                                    const std::function<void(Comm&)>& body, bool validate,
                                    const HybridOptions& resolved,
                                    const std::vector<std::vector<int>>& mesh,
                                    const std::vector<std::array<int, 2>>& status_pipes) {
  // Same fork hygiene as the proc backend: drop inherited stdio buffers,
  // neuter SIGPIPE, keep only this group's mesh rows and status write end.
  __fpurge(stdout);
  __fpurge(stderr);
  ::signal(SIGPIPE, SIG_IGN);
  const int base = group * resolved.ranks_per_proc;
  const int end = std::min(base + resolved.ranks_per_proc, nranks);
  for (int a = 0; a < nranks; ++a) {
    if (a >= base && a < end) continue;
    for (int b = 0; b < nranks; ++b) {
      const int fd = mesh[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)];
      if (fd >= 0) ::close(fd);
    }
  }
  for (std::size_t g = 0; g < status_pipes.size(); ++g) {
    const auto& sp = status_pipes[g];
    if (sp[0] >= 0) ::close(sp[0]);
    if (static_cast<int>(g) != group && sp[1] >= 0) ::close(sp[1]);
  }
  const int status_fd = status_pipes[static_cast<std::size_t>(group)][1];
  const GroupOutcome out = run_group(group, nranks, body, validate, resolved, mesh);
  if (out.code == kExitFailed) {
    // "<failed rank>\n<error text>": the parent parses the rank back out
    // so RemoteRankError names the actual thread rank, not just the
    // group.
    const std::string payload =
        std::to_string(out.failed_rank) + "\n" +
        (out.error_text.empty() ? std::string("unknown failure") : out.error_text);
    write_all(status_fd, payload.data(), payload.size());
  }
  ::close(status_fd);
  ::_exit(out.code);
}

}  // namespace

void run_hybrid_ranks(int nranks, const std::function<void(Comm&)>& body, bool validate,
                      const HybridOptions& hybrid) {
  HybridOptions resolved = resolve_hybrid_options(hybrid);
  if (resolved.ranks_per_proc > nranks) resolved.ranks_per_proc = nranks;
  const int ngroups = (nranks + resolved.ranks_per_proc - 1) / resolved.ranks_per_proc;
  const auto n = static_cast<std::size_t>(nranks);

  // Full mesh of stream socketpairs, sibling lanes included: mesh[a][b]
  // is rank a's endpoint of the (a, b) lane. Created before the first
  // fork; every process closes the rows that are not its own.
  std::vector<std::vector<int>> mesh(n, std::vector<int>(n, -1));
  std::vector<std::array<int, 2>> status_pipes(static_cast<std::size_t>(ngroups),
                                               {-1, -1});
  auto close_all = [&]() noexcept {
    for (auto& row : mesh) {
      for (int& fd : row) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
    }
    for (auto& sp : status_pipes) {
      for (int& fd : sp) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        const int err = errno;
        close_all();
        throw std::runtime_error(std::string("pml: socketpair failed: ") +
                                 plv::errno_str(err));
      }
      mesh[i][j] = sv[0];
      mesh[j][i] = sv[1];
    }
  }
  for (int g = 1; g < ngroups; ++g) {
    if (::pipe(status_pipes[static_cast<std::size_t>(g)].data()) != 0) {
      const int err = errno;
      close_all();
      throw std::runtime_error(std::string("pml: pipe failed: ") + plv::errno_str(err));
    }
  }

  std::fflush(nullptr);
  std::vector<pid_t> pids(static_cast<std::size_t>(ngroups), -1);
  for (int g = 1; g < ngroups; ++g) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      hybrid_child_main(g, nranks, body, validate, resolved, mesh, status_pipes);
    }
    if (pid < 0) {
      const int err = errno;
      close_all();
      for (int q = 1; q < g; ++q) {
        int st = 0;
        ::waitpid(pids[static_cast<std::size_t>(q)], &st, 0);
      }
      throw std::runtime_error(std::string("pml: fork failed: ") + plv::errno_str(err));
    }
    pids[static_cast<std::size_t>(g)] = pid;
  }

  // Parent keeps group 0's rows and the status read ends.
  const std::size_t parent_end =
      static_cast<std::size_t>(std::min(resolved.ranks_per_proc, nranks));
  for (std::size_t a = parent_end; a < n; ++a) {
    for (int& fd : mesh[a]) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }
  for (int g = 1; g < ngroups; ++g) {
    ::close(status_pipes[static_cast<std::size_t>(g)][1]);
    status_pipes[static_cast<std::size_t>(g)][1] = -1;
  }

  // Run group 0's ranks as threads of this process.
  const GroupOutcome parent = run_group(0, nranks, body, validate, resolved, mesh);
  // All parent-group transports are destructed: children see our EOFs.

  // Harvest children: error text first (EOF-delimited), then exit status.
  std::vector<int> group_code(static_cast<std::size_t>(ngroups), kExitClean);
  std::vector<int> group_rank(static_cast<std::size_t>(ngroups), -1);
  std::vector<std::string> group_error(static_cast<std::size_t>(ngroups));
  for (int g = 1; g < ngroups; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    std::string text;
    char buf[4096];
    for (;;) {
      const ssize_t k = ::read(status_pipes[gi][0], buf, sizeof(buf));
      if (k > 0) {
        text.append(buf, static_cast<std::size_t>(k));
        continue;
      }
      if (k < 0 && errno == EINTR) continue;
      break;
    }
    ::close(status_pipes[gi][0]);
    status_pipes[gi][0] = -1;
    int st = 0;
    pid_t rc = 0;
    do {
      rc = ::waitpid(pids[gi], &st, 0);
    } while (rc < 0 && errno == EINTR);
    const int leader = g * resolved.ranks_per_proc;
    if (rc < 0) {
      group_code[gi] = kExitFailed;
      group_rank[gi] = leader;
      group_error[gi] = std::string("waitpid failed: ") + plv::errno_str(errno);
    } else if (WIFEXITED(st)) {
      group_code[gi] = WEXITSTATUS(st);
      group_rank[gi] = leader;
      if (group_code[gi] == kExitFailed) {
        // Parse "<failed rank>\n<error text>" back apart; a payload
        // without the separator (e.g. a pre-pipe crash) keeps the text
        // and attributes the failure to the group leader.
        const std::size_t cut = text.find('\n');
        if (cut != std::string::npos) {
          const std::string head = text.substr(0, cut);
          char* endp = nullptr;
          const long r = std::strtol(head.c_str(), &endp, 10);
          if (endp != head.c_str() && *endp == '\0' && r >= 0 && r < nranks) {
            group_rank[gi] = static_cast<int>(r);
            text.erase(0, cut + 1);
          }
        }
        group_error[gi] = text.empty() ? "unknown failure" : text;
      }
    } else {
      // Signal death takes the whole group of thread ranks with it; the
      // leader rank stands in for the group in the report.
      group_code[gi] = kExitFailed;
      group_rank[gi] = leader;
      group_error[gi] = describe_wait_status(st);
    }
  }

  // The calling process's own failing rank wins (exception type
  // preserved); otherwise the lowest failing remote group reports.
  if (parent.code == kExitFailed && parent.exception) {
    std::rethrow_exception(parent.exception);
  }
  for (int g = 1; g < ngroups; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    if (group_code[gi] == kExitFailed) {
      throw RemoteRankError(group_rank[gi], group_error[gi].empty() ? "unknown failure"
                                                                    : group_error[gi]);
    }
  }
  for (int g = 1; g < ngroups; ++g) {
    const auto gi = static_cast<std::size_t>(g);
    if (group_code[gi] != kExitClean && group_code[gi] != kExitAborted) {
      throw RemoteRankError(group_rank[gi], "group exited with unexpected status " +
                                                std::to_string(group_code[gi]));
    }
  }
  if (parent.code == kExitAborted ||
      std::any_of(group_code.begin(), group_code.end(),
                  [](int c) { return c == kExitAborted; })) {
    throw AbortedError();
  }
}

}  // namespace detail
}  // namespace plv::pml
