// The parallel messaging layer (PML): ranks, collectives, fine-grained sends.
//
// This is the reproduction's substitute for the custom BlueGene/Q / P7-IH
// messaging runtime the paper builds on (refs [27]-[29]). Each *rank* is a
// thread or a process — chosen by TransportKind — and ranks share no
// algorithm state, communicating only through this API, so the Louvain
// code above it is structured exactly like a distributed-memory port:
//
//   * collectives  — barrier, allreduce, allgather, alltoallv `exchange`,
//     all deterministic (combine in rank order) so fixed seeds give
//     bit-identical runs on every transport;
//   * fine-grained — `send_chunk`/`poll` with per-destination coalescing
//     (see aggregator.hpp) plus a counted-termination quiescence protocol,
//     matching the paper's active-message style state propagation;
//   * traffic counters — record/byte counts per rank, used by the scaling
//     benches to report communication volume where the 1-core container
//     gates wall-clock speedup.
//
// Comm implements all of that ONCE over the Transport primitive set
// (transport.hpp): a synchronizing rank-ordered alltoallv, FIFO chunk
// lanes, a blocking incoming wait, and an abort flag. The protocol logic
// below is therefore transport-agnostic; backends only move bytes.
//
// Quiescence protocol (counted termination, zero collective rounds):
// every fine-grained phase has an epoch number, and every Comm tracks how
// many records it sent to each peer during the current epoch. Entering
// `drain_until_quiescent`, a rank sends one *control marker* per peer
// (through the same FIFO lanes as data) carrying that per-destination
// count, then polls — parking in Transport::wait_incoming rather than
// spinning — until it has seen all nranks markers. Because delivery is
// FIFO per producer, a sender's data always precedes its marker, so "all
// markers seen" implies "all records delivered"; the received total is
// checked against the marker counts — thrown as ProtocolError when
// protocol validation is on (transport_check.hpp: Debug default, or
// PLV_VALIDATE=1 / PLV_PARANOID=1), a debug assert otherwise. No barrier
// or allreduce is
// involved: ranks leave the phase independently, and chunks from a
// neighbour that has already raced into the next epoch are deferred
// (never mis-delivered) until this rank's epoch catches up. Phase skew
// cannot exceed one epoch, since leaving epoch E requires every peer's
// epoch-E marker.
//
// Fail-fast semantics: a rank whose body throws records its exception,
// raises the transport-wide abort flag, and wakes every blocked peer.
// Every collective checks the flag before and after its rendezvous,
// throwing AbortedError; waiting polls recheck it on wakeup. The first
// real exception is rethrown from Runtime::run after all ranks have
// unwound — a throwing rank therefore terminates the whole run promptly
// instead of deadlocking it. (On the process backend, exception types
// survive only for rank 0, which runs in the calling process; child
// failures surface as RemoteRankError carrying the original text.)
//
// SPMD typing convention: all ranks participating in a collective pass
// the same T, mirroring MPI's untyped buffers.
//
// Long-lived rank bodies: nothing in the protocol assumes a rank body is
// one-shot. A body may run an unbounded command loop — detect, park, wake
// on the next batch, detect again — as long as every rank takes the same
// sequence of collective/phase steps. plv::Session leans on this to keep
// a fleet warm between update batches on every transport: rank 0 (which
// always runs in the calling process, forked and tcp-loopback backends
// included) dequeues host commands and rebroadcasts them through an
// ordinary allgatherv, so peers never touch host-side synchronization
// primitives across the fork boundary.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/sync.hpp"
#include "common/traffic.hpp"
#include "pml/mailbox.hpp"
#include "pml/transport.hpp"
#include "pml/transport_check.hpp"
#include "pml/transport_hybrid.hpp"
#include "pml/transport_proc.hpp"
#include "pml/transport_tcp.hpp"
#include "pml/transport_thread.hpp"

namespace plv::pml {

using plv::TrafficStats;

/// Per-rank communicator handle. All methods must be called from the
/// owning rank only (there is no remote access; senders go through the
/// transport, which is safe across ranks). Non-copyable: it owns
/// per-phase protocol state and any chunks deferred across epochs.
class Comm {
 public:
  explicit Comm(Transport& transport)
      : transport_(&transport),
        rank_(transport.rank()),
        // The typed quiescence count check (the one invariant the seam-level
        // checker cannot verify exactly, not knowing sizeof(T)) throws
        // whenever protocol validation is on — via the environment knobs or
        // because the transport underneath is already a ValidatingTransport.
        quiescence_enforced_(
            resolve_validate(false) ||
            dynamic_cast<const ValidatingTransport*>(&transport) != nullptr),
        topo_(transport.topology()),
        hier_(!topo_.trivial()),
        phase_sent_(static_cast<std::size_t>(transport.nranks()), 0),
        recv_from_(static_cast<std::size_t>(transport.nranks()), 0),
        expected_from_(static_cast<std::size_t>(transport.nranks()), 0) {}

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  ~Comm() {
    for (Chunk* c : deferred_) transport_->release_chunk(c);
  }

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int nranks() const noexcept { return transport_->nranks(); }

  /// Name of the backend carrying this run ("thread", "proc").
  [[nodiscard]] const char* transport_name() const noexcept {
    return transport_->name();
  }

  void barrier() {
    ++stats_.collectives;
    if (hier_) {
      // The two-level collective is itself a synchronizing rendezvous;
      // an empty payload makes it a pure barrier without a second
      // leader-plane mechanism to keep ordered against the first.
      broadcast_spans({});
      NullSink sink;
      hier_alltoallv(sink);
      return;
    }
    transport_->barrier();
  }

  // ---------------------------------------------------------------------
  // Collectives. All are synchronizing; every rank must call with the same
  // type and (for vector ops) the same length. Every one is an abort
  // point: if a peer has failed, AbortedError is thrown instead of
  // waiting on it.
  // ---------------------------------------------------------------------

  /// Element-wise reduction over one value per rank, combined in rank
  /// order (deterministic for non-associative ops like double addition).
  template <typename T, typename Op>
  [[nodiscard]] T allreduce(const T& value, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++stats_.collectives;
    broadcast_spans(value_bytes(value));
    struct Sink final : CollectiveSink {
      void deliver(int source, std::span<const std::byte> bytes) override {
        assert(bytes.size() == sizeof(T));
        T v;
        std::memcpy(&v, bytes.data(), sizeof(T));
        acc = source == 0 ? v : (*op)(acc, v);
      }
      T acc{};
      Op* op{nullptr};
    } sink;
    sink.op = &op;
    run_collective(sink);
    return sink.acc;
  }

  template <typename T>
  [[nodiscard]] T allreduce_sum(const T& value) {
    return allreduce(value, [](const T& a, const T& b) { return a + b; });
  }

  template <typename T>
  [[nodiscard]] T allreduce_max(const T& value) {
    return allreduce(value, [](const T& a, const T& b) { return a < b ? b : a; });
  }

  template <typename T>
  [[nodiscard]] T allreduce_min(const T& value) {
    return allreduce(value, [](const T& a, const T& b) { return b < a ? b : a; });
  }

  /// In-place element-wise sum of equal-length vectors across ranks
  /// (used for the ΔQ̂ gain histograms). The overload taking `scratch`
  /// accumulates into that caller-owned buffer and swaps it in, so
  /// steady-state callers (the per-iteration gain histogram) allocate
  /// nothing; the single-argument form allocates a temporary accumulator.
  template <typename T>
  void allreduce_vec_sum(std::vector<T>& vec) {
    std::vector<T> scratch;
    allreduce_vec_sum(vec, scratch);
  }

  template <typename T>
  void allreduce_vec_sum(std::vector<T>& vec, std::vector<T>& scratch) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++stats_.collectives;
    broadcast_spans(vector_bytes(vec));
    struct Sink final : CollectiveSink {
      void deliver(int /*source*/, std::span<const std::byte> bytes) override {
        assert(bytes.size() == acc->size() * sizeof(T));
        for (std::size_t i = 0; i < acc->size(); ++i) {
          T v;
          std::memcpy(&v, bytes.data() + i * sizeof(T), sizeof(T));
          (*acc)[i] += v;
        }
      }
      std::vector<T>* acc{nullptr};
    } sink;
    scratch.assign(vec.size(), T{});
    sink.acc = &scratch;
    run_collective(sink);
    // alltoallv returns only after every rank finished reading the
    // published spans, so rewriting vec here is race-free.
    std::swap(vec, scratch);
  }

  /// Gathers one value per rank, indexed by rank.
  template <typename T>
  [[nodiscard]] std::vector<T> allgather(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++stats_.collectives;
    broadcast_spans(value_bytes(value));
    struct Sink final : CollectiveSink {
      void deliver(int /*source*/, std::span<const std::byte> bytes) override {
        assert(bytes.size() == sizeof(T));
        T v;
        std::memcpy(&v, bytes.data(), sizeof(T));
        out.push_back(v);
      }
      std::vector<T> out;
    } sink;
    sink.out.reserve(static_cast<std::size_t>(nranks()));
    run_collective(sink);
    return std::move(sink.out);
  }

  /// Concatenates per-rank vectors, in rank order.
  template <typename T>
  [[nodiscard]] std::vector<T> allgatherv(const std::vector<T>& mine) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++stats_.collectives;
    broadcast_spans(vector_bytes(mine));
    AppendSink<T> sink;
    run_collective(sink);
    return std::move(sink.out);
  }

  /// All-to-all variable exchange: `outgoing[d]` goes to rank d; returns
  /// everything addressed to this rank, concatenated in source-rank order
  /// (deterministic). `outgoing` must have nranks() entries and must stay
  /// unmodified until the call returns.
  template <typename T>
  [[nodiscard]] std::vector<T> exchange(const std::vector<std::vector<T>>& outgoing) {
    static_assert(std::is_trivially_copyable_v<T>);
    assert(static_cast<int>(outgoing.size()) == nranks());
    ++stats_.collectives;
    spans_.clear();
    for (const auto& dest : outgoing) {
      stats_.records_sent += dest.size();
      stats_.bytes_sent += dest.size() * sizeof(T);
      spans_.push_back(vector_bytes(dest));
    }
    AppendSink<T> sink;
    run_collective(sink);
    stats_.records_received += sink.out.size();
    return std::move(sink.out);
  }

  /// Streaming all-to-all over the fine-grained plane: `outgoing[d]` goes
  /// to rank d (like exchange()), but there is no collective rendezvous —
  /// payloads ship as pooled chunks through the FIFO lanes and the phase
  /// ends with the counted-termination marker protocol, so ranks enter and
  /// leave independently. Between sending and draining, `overlap()` runs
  /// on this rank — compute that does not depend on the arrivals (the
  /// refine loop's stay-score initialization) executes while peer data is
  /// in flight.
  ///
  /// Determinism contract: arrivals are staged per source rank and
  /// `on_record(source, span<const T>)` is invoked in ascending source
  /// order (FIFO within a source), exactly the order the blocking
  /// exchange() delivers — so floating-point apply order, and therefore
  /// every downstream artifact, is bit-identical to the blocking path.
  /// The apply is progressive: source s's records are handed over as soon
  /// as s's end-of-phase marker has arrived and sources 0..s-1 are done,
  /// so receivers consume early senders while stragglers still transmit.
  ///
  /// on_record must not send. Records/bytes counters advance exactly as
  /// exchange() would; no collective round is recorded.
  ///
  /// Wire shape: each remote destination receives exactly ONE chunk, a
  /// fused data+marker (control=true, control_records=payload record
  /// count, payload appended in the same node) — an empty lane
  /// degenerates to a pure marker. Fusing the end-of-phase marker into
  /// the data chunk halves the per-phase message count versus
  /// data-then-marker, which is the dominant cost of small dense
  /// exchanges (both backends ship the control flag and the payload in
  /// one frame already). The self lane never touches the transport: the
  /// drain applies it in rank order straight out of `outgoing[rank()]`,
  /// so `outgoing` must stay alive and unmodified until the call returns
  /// (exchange() requires the same). Markers stay uncounted in
  /// TrafficStats; only payloads advance records/bytes.
  template <typename T, typename OnRecord, typename OverlapWork>
  void exchange_streaming(const std::vector<std::vector<T>>& outgoing,
                          OnRecord&& on_record, OverlapWork&& overlap) {
    static_assert(std::is_trivially_copyable_v<T>);
    assert(static_cast<int>(outgoing.size()) == nranks());
    for (int d = 0; d < nranks(); ++d) {
      if (d == rank_) continue;
      const auto& dest = outgoing[static_cast<std::size_t>(d)];
      // Hierarchical mode closes the phase by a counted settlement
      // collective instead of per-lane markers, so empty lanes ship
      // nothing at all and data chunks stay plain — that is the win the
      // inter_group_messages counter measures.
      if (hier_ && dest.empty()) {
        continue;
      }
      const std::size_t bytes = dest.size() * sizeof(T);
      Chunk* chunk = transport_->acquire_chunk(bytes);
      chunk->source = rank_;
      chunk->epoch = epoch_;
      chunk->control = !hier_;
      chunk->control_records = hier_ ? 0 : dest.size();
      if (!dest.empty()) {
        chunk->append(dest.data(), bytes);
        stats_.records_sent += dest.size();
        stats_.bytes_sent += bytes;
        ++stats_.chunks_sent;
      }
      if (cross_group(d)) ++stats_.inter_group_messages;
      transport_->send(d, chunk);
      if (hier_) phase_sent_[static_cast<std::size_t>(d)] += dest.size();
    }
    const auto& self = outgoing[static_cast<std::size_t>(rank_)];
    if (hier_) phase_sent_[static_cast<std::size_t>(rank_)] += self.size();
    stats_.records_sent += self.size();
    stats_.bytes_sent += self.size() * sizeof(T);
    self_payload_ = {reinterpret_cast<const std::byte*>(self.data()),
                     self.size() * sizeof(T)};
    self_local_ = true;
    std::forward<OverlapWork>(overlap)();
    drain_streaming_impl<T>(std::forward<OnRecord>(on_record),
                            /*send_markers=*/false);
  }

  template <typename T, typename OnRecord>
  void exchange_streaming(const std::vector<std::vector<T>>& outgoing,
                          OnRecord&& on_record) {
    exchange_streaming<T>(outgoing, std::forward<OnRecord>(on_record), [] {});
  }

  // ---------------------------------------------------------------------
  // Fine-grained messaging (active-message style). Senders usually go
  // through Aggregator (aggregator.hpp), which coalesces records straight
  // into pooled chunks and hands them over with send_filled — the
  // zero-copy path on the thread backend. send_chunk is the copy-once
  // path for callers holding a raw array.
  // ---------------------------------------------------------------------

  /// Takes a recycled chunk from the rank's pool with at least `bytes`
  /// of capacity. Pair with send_filled() or release_chunk().
  [[nodiscard]] Chunk* acquire_chunk(std::size_t bytes) {
    return transport_->acquire_chunk(bytes);
  }

  /// Returns an acquired-but-unsent chunk to the pool.
  void release_chunk(Chunk* chunk) { transport_->release_chunk(chunk); }

  /// Hands a filled chunk of `count` records to rank `dest`. Ownership of
  /// the node transfers to the transport (zero-copy on threads: the
  /// receiver releases the same node back to the shared pool).
  void send_filled(int dest, Chunk* chunk, std::size_t count) {
    assert(dest >= 0 && dest < nranks());
    assert(chunk != nullptr && !chunk->control);
    chunk->source = rank_;
    chunk->epoch = epoch_;
    phase_sent_[static_cast<std::size_t>(dest)] += count;
    stats_.records_sent += count;
    stats_.bytes_sent += chunk->size();
    ++stats_.chunks_sent;
    if (cross_group(dest)) ++stats_.inter_group_messages;
    transport_->send(dest, chunk);
  }

  /// send_filled variant that also ends the phase toward `dest`: the
  /// chunk ships as a fused data+marker whose control_records covers
  /// every record this rank sent `dest` this phase (this chunk included),
  /// so the drain needs no separate marker message. The caller must not
  /// send to `dest` again until the phase completes; pair with
  /// drain_streaming_finalized (Aggregator::flush_all_final does both
  /// halves of the send side).
  void send_filled_final(int dest, Chunk* chunk, std::size_t count) {
    assert(dest >= 0 && dest < nranks());
    assert(chunk != nullptr && !chunk->control);
    if (hier_) {
      // No per-lane markers in hierarchical mode: the phase closes by the
      // counted settlement collective, so a "final" send is a plain send.
      send_filled(dest, chunk, count);
      return;
    }
    chunk->source = rank_;
    chunk->epoch = epoch_;
    chunk->control = true;
    chunk->control_records = phase_sent_[static_cast<std::size_t>(dest)] + count;
    phase_sent_[static_cast<std::size_t>(dest)] += count;
    stats_.records_sent += count;
    stats_.bytes_sent += chunk->size();
    ++stats_.chunks_sent;
    if (cross_group(dest)) ++stats_.inter_group_messages;
    transport_->send(dest, chunk);
  }

  /// Pure end-of-phase marker toward one destination — the empty-lane
  /// counterpart of send_filled_final for callers that finalize each
  /// destination themselves instead of letting drain_streaming announce
  /// the phase end to everyone.
  void send_marker(int dest) {
    assert(dest >= 0 && dest < nranks());
    if (hier_) return;  // counts settle collectively; no marker traffic
    Chunk* marker = transport_->acquire_chunk(0);
    marker->source = rank_;
    marker->epoch = epoch_;
    marker->control = true;
    marker->control_records = phase_sent_[static_cast<std::size_t>(dest)];
    if (cross_group(dest)) ++stats_.inter_group_messages;
    transport_->send(dest, marker);
  }

  /// Copies `count` records of `record_size` bytes into a pooled chunk
  /// and sends it to rank `dest` (one copy, no allocation in steady
  /// state).
  void send_chunk(int dest, const void* data, std::size_t record_size, std::size_t count) {
    assert(dest >= 0 && dest < nranks());
    Chunk* chunk = acquire_chunk(record_size * count);
    chunk->append(data, record_size * count);
    send_filled(dest, chunk, count);
  }

  /// Drains incoming chunks, invoking `handler(source, span<const T>)` per
  /// chunk. Returns the number of records delivered. Chunks belonging to
  /// a later epoch (a neighbour already past this phase's drain) are set
  /// aside and delivered by the first poll of the matching epoch.
  template <typename T, typename Handler>
  std::size_t poll(Handler&& handler) {
    static_assert(std::is_trivially_copyable_v<T>);
    scratch_.clear();
    // Deferred chunks first: they arrived before anything drained now.
    if (!deferred_.empty()) {
      std::size_t kept = 0;
      for (Chunk* c : deferred_) {
        if (c->epoch == epoch_) {
          scratch_.push_back(c);
        } else {
          deferred_[kept++] = c;
        }
      }
      deferred_.resize(kept);
    }
    transport_->drain(scratch_);
    std::size_t records = 0;
    for (std::size_t i = 0; i < scratch_.size(); ++i) {
      Chunk* c = scratch_[i];
      if (c->epoch != epoch_) {
        assert(c->epoch == epoch_ + 1);  // skew is bounded by one phase
        deferred_.push_back(c);
        continue;
      }
      if (c->control) {
        // Fused data+marker chunks are an exchange_streaming wire shape;
        // SPMD phase alignment means they only ever drain via poll_staged.
        assert(c->size() == 0);
        ++markers_seen_;
        expected_records_ += c->control_records;
        transport_->release_chunk(c);
        continue;
      }
      assert(c->size() % sizeof(T) == 0);
      const std::size_t n = c->size() / sizeof(T);
      recv_from_[static_cast<std::size_t>(c->source)] += n;
      try {
        handler(c->source,
                std::span<const T>(reinterpret_cast<const T*>(c->data()), n));
      } catch (...) {
        // Recycle this and every unprocessed chunk before unwinding.
        for (std::size_t j = i; j < scratch_.size(); ++j) {
          if (scratch_[j]->epoch == epoch_) {
            transport_->release_chunk(scratch_[j]);
          } else {
            deferred_.push_back(scratch_[j]);
          }
        }
        throw;
      }
      records += n;
      transport_->release_chunk(c);
    }
    phase_received_ += records;
    stats_.records_received += records;
    return records;
  }

  /// Completes a fine-grained phase: delivers every record addressed to
  /// this rank, blocking (not spinning, and with no collective rounds)
  /// until the counted-termination markers from all ranks have arrived —
  /// see the protocol note in the header comment. Callers must have
  /// flushed their aggregators first, and must not send again until the
  /// call returns. Throws AbortedError if a peer fails mid-phase.
  template <typename T, typename Handler>
  void drain_until_quiescent(Handler&& handler) {
    if (hier_) {
      // Hierarchical counted termination: instead of nranks marker
      // messages per rank, one two-level settlement collective exchanges
      // the per-destination sent counts, and the drain polls until the
      // arrivals match. Settlement completing implies every rank has
      // finished sending this epoch, so the counts are final.
      settle_counts_hier();
      poll<T>(handler);
      while (phase_received_ < expected_records_) {
        transport_->wait_incoming();
        check_abort();
        poll<T>(handler);
      }
      check_source_counts_hier();
      detail::check_quiescence_conservation(quiescence_enforced_, rank_, epoch_,
                                            phase_received_, expected_records_,
                                            transport_->name(), /*streaming=*/false);
      end_phase();
      return;
    }
    // Announce end-of-phase to every rank (self included): one control
    // marker carrying the number of records this rank sent them.
    for (int d = 0; d < nranks(); ++d) send_marker(d);
    poll<T>(handler);
    while (markers_seen_ < static_cast<std::uint64_t>(nranks())) {
      transport_->wait_incoming();
      check_abort();
      poll<T>(handler);
    }
    // FIFO-per-producer delivery means data precedes markers, so seeing
    // every marker implies having every record. Thrown as ProtocolError
    // whenever validation is on (Debug default; PLV_VALIDATE/PLV_PARANOID
    // in Release); a Debug assert otherwise.
    detail::check_quiescence_conservation(quiescence_enforced_, rank_, epoch_,
                                          phase_received_, expected_records_,
                                          transport_->name(), /*streaming=*/false);
    end_phase();
  }

  /// Ordered-apply variant of drain_until_quiescent: the streaming side of
  /// exchange_streaming, usable directly by callers that sent through
  /// send_filled/send_chunk or an Aggregator. Arrivals are staged per
  /// source and `on_record(source, span<const T>)` fires in ascending
  /// source-rank order (FIFO within a source), progressively as each
  /// source's marker lands — deterministic apply order with overlap where
  /// the arrival schedule allows it. Same preconditions as
  /// drain_until_quiescent (aggregators flushed, no sends until return).
  template <typename T, typename OnRecord>
  void drain_streaming(OnRecord&& on_record) {
    drain_streaming_impl<T>(std::forward<OnRecord>(on_record),
                            /*send_markers=*/true);
  }

  /// drain_streaming for callers that already ended the phase toward
  /// every destination themselves (send_filled_final / send_marker per
  /// dest — Aggregator::flush_all_final does exactly that): no marker
  /// wave is sent here, the fused final chunks carry the counts.
  template <typename T, typename OnRecord>
  void drain_streaming_finalized(OnRecord&& on_record) {
    drain_streaming_impl<T>(std::forward<OnRecord>(on_record),
                            /*send_markers=*/false);
  }

 private:
  /// Shared body of drain_streaming and exchange_streaming. With
  /// send_markers, announces end-of-phase with one pure control chunk per
  /// peer (the send_filled/send_chunk/Aggregator flow); without, the
  /// caller already fused the marker into each destination's single data
  /// chunk and no extra message is needed.
  template <typename T, typename OnRecord>
  void drain_streaming_impl(OnRecord&& on_record, bool send_markers) {
    if (hier_) {
      drain_streaming_hier<T>(std::forward<OnRecord>(on_record));
      return;
    }
    const auto P = static_cast<std::size_t>(nranks());
    if (staged_.size() != P) staged_.resize(P);
    marker_from_.assign(P, 0);
    next_apply_ = 0;
    if (self_local_) {
      // The self lane was kept out of the transport: account for it as
      // both an implicit marker and already-arrived records, so counted
      // termination and TrafficStats match the chunk-borne path exactly.
      marker_from_[static_cast<std::size_t>(rank_)] = 1;
      ++markers_seen_;
      const std::size_t n = self_payload_.size() / sizeof(T);
      expected_records_ += n;
      phase_received_ += n;
      stats_.records_received += n;
    }
    if (send_markers) {
      for (int d = 0; d < nranks(); ++d) send_marker(d);
    }
    try {
      poll_staged(sizeof(T));
      apply_ready_sources<T>(on_record);
      while (markers_seen_ < static_cast<std::uint64_t>(nranks()) ||
             next_apply_ < nranks()) {
        if (markers_seen_ < static_cast<std::uint64_t>(nranks())) {
          transport_->wait_incoming();
          check_abort();
        }
        poll_staged(sizeof(T));
        apply_ready_sources<T>(on_record);
      }
    } catch (...) {
      for (auto& chunks : staged_) {
        for (Chunk* c : chunks) transport_->release_chunk(c);
        chunks.clear();
      }
      self_local_ = false;
      self_payload_ = {};
      throw;
    }
    self_local_ = false;
    self_payload_ = {};
    detail::check_quiescence_conservation(quiescence_enforced_, rank_, epoch_,
                                          phase_received_, expected_records_,
                                          transport_->name(), /*streaming=*/true);
    end_phase();
  }

  /// Hierarchical twin of the streaming drain: per-lane markers are
  /// replaced by one settlement collective that exchanges the
  /// per-destination sent counts through the two-level topology; a source
  /// is "complete" (its staged chunks ready for the ordered apply) once
  /// its arrivals match its settled count. FIFO lanes still bound the
  /// wait, and the apply order — ascending global source rank — is
  /// unchanged, so results stay bit-identical with the flat protocol.
  template <typename T, typename OnRecord>
  void drain_streaming_hier(OnRecord&& on_record) {
    const auto P = static_cast<std::size_t>(nranks());
    if (staged_.size() != P) staged_.resize(P);
    marker_from_.assign(P, 0);
    next_apply_ = 0;
    if (self_local_) {
      // Zero-copy self lane: already-arrived records. Its expectation
      // arrives with everyone else's through the settlement (phase_sent_
      // includes the self count), so only the receive side books here.
      const std::size_t n = self_payload_.size() / sizeof(T);
      recv_from_[static_cast<std::size_t>(rank_)] += n;
      phase_received_ += n;
      stats_.records_received += n;
    }
    try {
      settle_counts_hier();
      while (true) {
        poll_staged(sizeof(T));
        update_ready_hier();
        apply_ready_sources<T>(on_record);
        if (next_apply_ >= nranks()) break;
        transport_->wait_incoming();
        check_abort();
      }
    } catch (...) {
      for (auto& chunks : staged_) {
        for (Chunk* c : chunks) transport_->release_chunk(c);
        chunks.clear();
      }
      self_local_ = false;
      self_payload_ = {};
      throw;
    }
    self_local_ = false;
    self_payload_ = {};
    detail::check_quiescence_conservation(quiescence_enforced_, rank_, epoch_,
                                          phase_received_, expected_records_,
                                          transport_->name(), /*streaming=*/true);
    end_phase();
  }

 public:
  [[nodiscard]] const TrafficStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = TrafficStats{}; }

  /// High-water mark (in chunk nodes) for this rank's free list; trimmed
  /// at each fine-grained phase boundary. 0 = unbounded (never trim).
  void set_chunk_pool_watermark(std::size_t nodes) noexcept {
    transport_->set_pool_watermark(nodes);
  }
  [[nodiscard]] std::size_t chunk_pool_free_count() const noexcept {
    return transport_->pool_free_count();
  }

 private:
  template <typename T>
  [[nodiscard]] static std::span<const std::byte> value_bytes(const T& v) noexcept {
    return {reinterpret_cast<const std::byte*>(&v), sizeof(T)};
  }
  template <typename T>
  [[nodiscard]] static std::span<const std::byte> vector_bytes(
      const std::vector<T>& v) noexcept {
    return {reinterpret_cast<const std::byte*>(v.data()), v.size() * sizeof(T)};
  }

  /// Reusable sink that concatenates arrivals (rank order) into one
  /// typed vector, reserving exactly from the transport's size hint.
  template <typename T>
  struct AppendSink final : CollectiveSink {
    void total_hint(std::size_t bytes) override { out.reserve(bytes / sizeof(T)); }
    void deliver(int /*source*/, std::span<const std::byte> bytes) override {
      if (bytes.empty()) return;  // empty lane: data() may be null (UB in memcpy)
      assert(bytes.size() % sizeof(T) == 0);
      const std::size_t old = out.size();
      out.resize(old + bytes.size() / sizeof(T));
      std::memcpy(out.data() + old, bytes.data(), bytes.size());
    }
    std::vector<T> out;
  };

  /// poll() twin for the streaming drain: data chunks are retained in
  /// staged_[source] (arrival order = FIFO per source) instead of being
  /// applied and released; markers additionally set the per-source flag
  /// that gates the ordered progressive apply.
  void poll_staged(std::size_t record_size) {
    scratch_.clear();
    if (!deferred_.empty()) {
      std::size_t kept = 0;
      for (Chunk* c : deferred_) {
        if (c->epoch == epoch_) {
          scratch_.push_back(c);
        } else {
          deferred_[kept++] = c;
        }
      }
      deferred_.resize(kept);
    }
    transport_->drain(scratch_);
    std::size_t records = 0;
    for (Chunk* c : scratch_) {
      if (c->epoch != epoch_) {
        assert(c->epoch == epoch_ + 1);  // skew is bounded by one phase
        deferred_.push_back(c);
        continue;
      }
      if (c->control) {
        ++markers_seen_;
        expected_records_ += c->control_records;
        marker_from_[static_cast<std::size_t>(c->source)] = 1;
        // Fused data+marker (exchange_streaming's wire shape): the payload
        // rides in the control chunk, so stage it like a data chunk
        // instead of releasing the node.
        if (c->size() == 0) {
          transport_->release_chunk(c);
          continue;
        }
      }
      assert(c->size() % record_size == 0);
      records += c->size() / record_size;
      recv_from_[static_cast<std::size_t>(c->source)] += c->size() / record_size;
      staged_[static_cast<std::size_t>(c->source)].push_back(c);
    }
    phase_received_ += records;
    stats_.records_received += records;
  }

  /// Applies (and releases) the staged chunks of every source whose marker
  /// has arrived and whose predecessors are all done — the in-order front
  /// of the phase. FIFO delivery means a source's marker trails its data,
  /// so a flagged source is complete.
  template <typename T, typename OnRecord>
  void apply_ready_sources(OnRecord&& on_record) {
    while (next_apply_ < nranks() &&
           marker_from_[static_cast<std::size_t>(next_apply_)] != 0) {
      if (self_local_ && next_apply_ == rank_) {
        // Zero-copy self lane: delivered straight from the caller's
        // outgoing buffer, in its rank-order slot like any other source.
        if (!self_payload_.empty()) {
          on_record(rank_, std::span<const T>(
                               reinterpret_cast<const T*>(self_payload_.data()),
                               self_payload_.size() / sizeof(T)));
        }
        ++next_apply_;
        continue;
      }
      auto& chunks = staged_[static_cast<std::size_t>(next_apply_)];
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        Chunk* c = chunks[i];
        const std::size_t n = c->size() / sizeof(T);
        try {
          on_record(next_apply_,
                    std::span<const T>(reinterpret_cast<const T*>(c->data()), n));
        } catch (...) {
          // Drop what was already applied; the phase-level catch in
          // drain_streaming releases the rest.
          chunks.erase(chunks.begin(), chunks.begin() + static_cast<std::ptrdiff_t>(i));
          throw;
        }
        transport_->release_chunk(c);
      }
      chunks.clear();
      ++next_apply_;
    }
  }

  /// The same payload for every destination (allreduce/allgather shape).
  void broadcast_spans(std::span<const std::byte> payload) {
    spans_.assign(static_cast<std::size_t>(nranks()), payload);
  }

  struct NullSink final : CollectiveSink {
    void deliver(int /*source*/, std::span<const std::byte> /*bytes*/) override {}
  };

  /// Whether `dest` lies outside this rank's topology group (with the
  /// trivial topology: every peer). Drives the inter_group_messages
  /// counter — the locality metric the hierarchical collectives optimize.
  [[nodiscard]] bool cross_group(int dest) const noexcept {
    return dest < topo_.leader || dest >= topo_.leader + topo_.group_size;
  }

  /// Routes a collective built in spans_ to the flat or the two-level
  /// implementation. Every collective entry point funnels through here.
  void run_collective(CollectiveSink& sink) {
    if (hier_) {
      hier_alltoallv(sink);
      return;
    }
    // Logical message count of a flat collective: one frame to every rank
    // outside this rank's group (with the trivial topology, every peer).
    stats_.inter_group_messages +=
        static_cast<std::uint64_t>(nranks() - topo_.group_size);
    transport_->alltoallv(spans_, sink);
  }

  [[nodiscard]] static std::uint64_t read_u64(const std::byte* p) noexcept {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static void append_u64(std::vector<std::byte>& blob, std::uint64_t v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    blob.insert(blob.end(), p, p + sizeof(v));
  }
  static void append_bytes(std::vector<std::byte>& blob, std::span<const std::byte> s) {
    blob.insert(blob.end(), s.begin(), s.end());
  }

  /// Two-level alltoallv over a non-trivial topology (DESIGN.md decision
  /// 13). Three phases: every member ships its whole outgoing vector to
  /// its group leader over the shared-memory group plane (*up*), leaders
  /// exchange the cross-group traffic among themselves only (*across* —
  /// the sole inter-group communication), and each leader scatters the
  /// assembled per-member arrivals back down (*down*). Delivery to the
  /// user sink is ascending by global source rank, exactly the flat
  /// collective's order: groups are consecutive rank blocks, so walking
  /// groups ascending and members ascending IS walking global ranks
  /// ascending — results stay bit-identical.
  ///
  /// Blob shapes (u64 counts, host order — same-arch fleets only, like
  /// the frame protocol itself):
  ///   up:    [P × u64 size-per-dest][payloads, dest-ascending]
  ///   cross: [k_src × k_dst u64 matrix, src-major][payloads src-major]
  ///   down:  [P × u64 size-per-src][payloads, src-ascending]
  void hier_alltoallv(CollectiveSink& sink) {
    const auto P = static_cast<std::size_t>(nranks());
    assert(spans_.size() == P);
    const auto G = static_cast<std::size_t>(topo_.ngroups);
    const auto K = static_cast<std::size_t>(topo_.group_size);
    const int base = topo_.leader;
    const auto my_group = static_cast<std::size_t>(topo_.group);

    // -- Up ---------------------------------------------------------------
    up_blob_.clear();
    for (const auto& s : spans_) append_u64(up_blob_, s.size());
    for (const auto& s : spans_) append_bytes(up_blob_, s);
    group_out_.assign(K, {});
    group_out_[0] = {up_blob_.data(), up_blob_.size()};
    if (topo_.is_leader()) {
      if (member_blobs_.size() != K) member_blobs_.resize(K);
      struct UpSink final : CollectiveSink {
        void deliver(int source, std::span<const std::byte> bytes) override {
          auto& blob = (*blobs)[static_cast<std::size_t>(source - base)];
          blob.assign(bytes.begin(), bytes.end());
        }
        std::vector<std::vector<std::byte>>* blobs{nullptr};
        int base{0};
      } up_sink;
      up_sink.blobs = &member_blobs_;
      up_sink.base = base;
      transport_->group_alltoallv(group_out_, up_sink);
      // Per-member payload offsets into the up blobs (prefix sums of the
      // size headers), shared by the across and down assemblies.
      if (member_offsets_.size() != K) member_offsets_.resize(K);
      for (std::size_t i = 0; i < K; ++i) {
        const std::byte* mb = member_blobs_[i].data();
        auto& off = member_offsets_[i];
        off.resize(P + 1);
        std::uint64_t o = P * sizeof(std::uint64_t);
        for (std::size_t d = 0; d < P; ++d) {
          off[d] = o;
          o += read_u64(mb + d * sizeof(std::uint64_t));
        }
        off[P] = o;
      }
    } else {
      NullSink null;
      transport_->group_alltoallv(group_out_, null);
    }

    if (topo_.is_leader()) {
      // -- Across (leaders only; the inter-group rounds) --------------------
      if (G > 1) {
        if (cross_out_.size() != G) cross_out_.resize(G);
        if (cross_in_.size() != G) cross_in_.resize(G);
        leader_out_.assign(G, {});
        for (std::size_t h = 0; h < G; ++h) {
          if (h == my_group) continue;
          const auto hbase =
              static_cast<std::size_t>(topo_.group_begin(static_cast<int>(h)));
          const auto kh =
              static_cast<std::size_t>(topo_.group_count(static_cast<int>(h)));
          auto& blob = cross_out_[h];
          blob.clear();
          for (std::size_t i = 0; i < K; ++i) {
            const std::byte* mb = member_blobs_[i].data();
            for (std::size_t j = 0; j < kh; ++j) {
              append_u64(blob, read_u64(mb + (hbase + j) * sizeof(std::uint64_t)));
            }
          }
          for (std::size_t i = 0; i < K; ++i) {
            const std::byte* mb = member_blobs_[i].data();
            const auto& off = member_offsets_[i];
            for (std::size_t j = 0; j < kh; ++j) {
              append_bytes(blob, {mb + off[hbase + j],
                                  static_cast<std::size_t>(off[hbase + j + 1] -
                                                           off[hbase + j])});
            }
          }
          leader_out_[h] = {blob.data(), blob.size()};
        }
        struct CrossSink final : CollectiveSink {
          void deliver(int source, std::span<const std::byte> bytes) override {
            if (static_cast<std::size_t>(source) == own) return;
            (*blobs)[static_cast<std::size_t>(source)].assign(bytes.begin(),
                                                              bytes.end());
          }
          std::vector<std::vector<std::byte>>* blobs{nullptr};
          std::size_t own{0};
        } cross_sink;
        cross_sink.blobs = &cross_in_;
        cross_sink.own = my_group;
        transport_->leader_alltoallv(leader_out_, cross_sink);
        stats_.inter_group_messages += static_cast<std::uint64_t>(G - 1);
        // Payload offsets into each incoming cross blob: entry (i, j) of
        // the k_g × K src-major matrix.
        if (cross_offsets_.size() != G) cross_offsets_.resize(G);
        for (std::size_t g = 0; g < G; ++g) {
          if (g == my_group) continue;
          const auto kg =
              static_cast<std::size_t>(topo_.group_count(static_cast<int>(g)));
          const std::byte* cb = cross_in_[g].data();
          auto& off = cross_offsets_[g];
          off.resize(kg * K + 1);
          std::uint64_t o = kg * K * sizeof(std::uint64_t);
          for (std::size_t e = 0; e < kg * K; ++e) {
            off[e] = o;
            o += read_u64(cb + e * sizeof(std::uint64_t));
          }
          off[kg * K] = o;
        }
      }

      // Span of global source s's payload for member slot j of this
      // group, out of the staged up/cross blobs.
      auto source_payload = [&](std::size_t s, std::size_t j) {
        const auto gs = static_cast<std::size_t>(topo_.group_of(static_cast<int>(s)));
        if (gs == my_group) {
          const auto i = s - static_cast<std::size_t>(base);
          const auto& off = member_offsets_[i];
          const auto d = static_cast<std::size_t>(base) + j;
          return std::span<const std::byte>(
              member_blobs_[i].data() + off[d],
              static_cast<std::size_t>(off[d + 1] - off[d]));
        }
        const auto gbase =
            static_cast<std::size_t>(topo_.group_begin(static_cast<int>(gs)));
        const auto i = s - gbase;
        const auto& off = cross_offsets_[gs];
        const auto e = i * K + j;
        return std::span<const std::byte>(
            cross_in_[gs].data() + off[e],
            static_cast<std::size_t>(off[e + 1] - off[e]));
      };

      // -- Down -------------------------------------------------------------
      if (down_blobs_.size() != K) down_blobs_.resize(K);
      group_out_.assign(K, {});
      for (std::size_t j = 1; j < K; ++j) {
        auto& blob = down_blobs_[j];
        blob.clear();
        for (std::size_t s = 0; s < P; ++s) append_u64(blob, source_payload(s, j).size());
        for (std::size_t s = 0; s < P; ++s) append_bytes(blob, source_payload(s, j));
        group_out_[j] = {blob.data(), blob.size()};
      }
      NullSink null;  // the leader's own group arrivals here are all empty
      transport_->group_alltoallv(group_out_, null);
      // The leader's user delivery comes straight from the staged blobs.
      std::uint64_t total = 0;
      for (std::size_t s = 0; s < P; ++s) total += source_payload(s, 0).size();
      sink.total_hint(static_cast<std::size_t>(total));
      for (std::size_t s = 0; s < P; ++s) {
        sink.deliver(static_cast<int>(s), source_payload(s, 0));
      }
    } else {
      // -- Down (member side): parse the leader's blob in place and
      // forward ascending — the spans stay valid for the duration of the
      // delivery callback, which is all the sink contract promises.
      group_out_.assign(K, {});
      struct DownSink final : CollectiveSink {
        void deliver(int source, std::span<const std::byte> bytes) override {
          if (source != leader) return;
          const std::byte* p = bytes.data();
          assert(bytes.size() >= P * sizeof(std::uint64_t));
          std::uint64_t total = 0;
          for (std::size_t s = 0; s < P; ++s) {
            total += read_u64(p + s * sizeof(std::uint64_t));
          }
          user->total_hint(static_cast<std::size_t>(total));
          const std::byte* payload = p + P * sizeof(std::uint64_t);
          for (std::size_t s = 0; s < P; ++s) {
            const auto n =
                static_cast<std::size_t>(read_u64(p + s * sizeof(std::uint64_t)));
            user->deliver(static_cast<int>(s), {payload, n});
            payload += n;
          }
        }
        CollectiveSink* user{nullptr};
        std::size_t P{0};
        int leader{0};
      } down_sink;
      down_sink.user = &sink;
      down_sink.P = P;
      down_sink.leader = base;
      transport_->group_alltoallv(group_out_, down_sink);
    }
  }

  /// Hierarchical end-of-phase settlement: exchanges every rank's
  /// per-destination sent counts through the two-level collective,
  /// filling expected_from_ / expected_records_. Replaces the flat
  /// protocol's nranks-per-rank marker wave with one collective whose
  /// only inter-group traffic is the G-1 leader frames; like the markers
  /// it replaces, it is not counted in stats_.collectives. Its completion
  /// additionally implies every rank has finished sending this epoch, so
  /// the counts are final and the drain only waits for arrivals.
  void settle_counts_hier() {
    spans_.clear();
    for (const std::uint64_t& sent : phase_sent_) {
      spans_.push_back({reinterpret_cast<const std::byte*>(&sent), sizeof(sent)});
    }
    struct SettleSink final : CollectiveSink {
      void deliver(int source, std::span<const std::byte> bytes) override {
        assert(bytes.size() == sizeof(std::uint64_t));
        const std::uint64_t v = read_u64(bytes.data());
        (*expected)[static_cast<std::size_t>(source)] = v;
        total += v;
      }
      std::vector<std::uint64_t>* expected{nullptr};
      std::uint64_t total{0};
    } sink;
    sink.expected = &expected_from_;
    hier_alltoallv(sink);
    expected_records_ = sink.total;
  }

  /// Marks every source whose arrivals have reached its settled count as
  /// complete (its staged chunks become applyable), and flags a source
  /// that delivered MORE than it settled — the per-source contribution
  /// conservation check of the hierarchical protocol.
  void update_ready_hier() {
    for (int s = 0; s < nranks(); ++s) {
      const auto i = static_cast<std::size_t>(s);
      detail::check_source_quiescence_conservation(quiescence_enforced_, rank_, epoch_,
                                                   s, recv_from_[i], expected_from_[i],
                                                   transport_->name());
      if (marker_from_[i] == 0 && recv_from_[i] >= expected_from_[i]) {
        marker_from_[i] = 1;
      }
    }
  }

  /// Per-source conservation audit at the end of a hierarchical unordered
  /// drain (totals matching can mask one source over-delivering while
  /// another under-delivers only if a third over-delivers too — catch the
  /// source, not just the sum).
  void check_source_counts_hier() {
    for (int s = 0; s < nranks(); ++s) {
      const auto i = static_cast<std::size_t>(s);
      detail::check_source_quiescence_conservation(quiescence_enforced_, rank_, epoch_,
                                                   s, recv_from_[i], expected_from_[i],
                                                   transport_->name());
    }
  }

  /// Common epilogue of every drain: advance the epoch (telling a
  /// topology-aware transport first — the hierarchical protocol closes
  /// epochs without markers, so the transport cannot infer the boundary
  /// from the wire) and reset the per-phase bookkeeping.
  void end_phase() {
    if (hier_) transport_->epoch_advance(epoch_ + 1);
    ++epoch_;
    markers_seen_ = 0;
    expected_records_ = 0;
    phase_received_ = 0;
    std::fill(phase_sent_.begin(), phase_sent_.end(), 0);
    std::fill(recv_from_.begin(), recv_from_.end(), 0);
    std::fill(expected_from_.begin(), expected_from_.end(), 0);
    // Phase boundary: shed free-list nodes beyond the high-water mark so a
    // receive-heavy rank does not retain its peak footprint forever.
    transport_->trim_pool();
  }

  void check_abort() const {
    if (transport_->aborted()) throw AbortedError();
  }

  Transport* transport_;
  int rank_;
  // Whether the quiescence count mismatch throws (validation on) instead
  // of the historical Debug assert. Fixed at construction.
  bool quiescence_enforced_;
  // Locality topology published by the transport, snapshotted at
  // construction (it is immutable for a run). hier_ switches every
  // collective and the quiescence protocol onto the two-level path.
  Topology topo_;
  bool hier_;
  TrafficStats stats_;
  std::vector<std::span<const std::byte>> spans_;  // per-collective scratch

  // Hierarchical-collective scratch (leaders use all of it; members only
  // up_blob_/group_out_). Persists across collectives to stay
  // allocation-free in steady state.
  std::vector<std::byte> up_blob_;
  std::vector<std::span<const std::byte>> group_out_;
  std::vector<std::span<const std::byte>> leader_out_;
  std::vector<std::vector<std::byte>> member_blobs_;
  std::vector<std::vector<std::uint64_t>> member_offsets_;
  std::vector<std::vector<std::byte>> cross_out_;
  std::vector<std::vector<std::byte>> cross_in_;
  std::vector<std::vector<std::uint64_t>> cross_offsets_;
  std::vector<std::vector<std::byte>> down_blobs_;

  // Counted-termination bookkeeping for the current fine-grained phase.
  std::uint64_t epoch_{0};
  std::vector<std::uint64_t> phase_sent_;  // records sent per destination
  std::uint64_t phase_received_{0};
  std::uint64_t expected_records_{0};      // sum of marker counts addressed here
  std::uint64_t markers_seen_{0};
  std::vector<Chunk*> deferred_;           // next-epoch chunks, held back
  std::vector<Chunk*> scratch_;            // drain buffer, reused across polls
  // Hierarchical counted termination: arrivals and settled expectations
  // per source (flat mode books recv_from_ too, but only reads totals).
  std::vector<std::uint64_t> recv_from_;
  std::vector<std::uint64_t> expected_from_;

  // Streaming-drain staging: per-source chunk queues (FIFO), per-source
  // marker flags, and the in-order apply cursor. Live only inside
  // drain_streaming; buffers persist across phases to avoid reallocation.
  std::vector<std::vector<Chunk*>> staged_;
  std::vector<std::uint8_t> marker_from_;
  int next_apply_{0};
  // exchange_streaming's zero-copy self lane: a view into the caller's
  // outgoing[rank()] buffer, applied in rank order without ever touching
  // the transport. Valid only between send and drain completion.
  std::span<const std::byte> self_payload_{};
  bool self_local_{false};
};

/// Runs `body(Comm&)` on `nranks` ranks over the chosen transport and
/// joins them. Fail-fast: the first rank to throw stores its exception,
/// flips the shared abort flag, and wakes all waiters, so every peer's
/// next (or current) collective throws AbortedError instead of hanging.
/// Peers unwound by AbortedError are not treated as failures of their
/// own; after all ranks finish, the original exception is rethrown on the
/// caller (child-process failures as RemoteRankError).
class Runtime {
 public:
  /// Default entry: thread backend unless PLV_TRANSPORT overrides;
  /// protocol validation per build default unless PLV_VALIDATE /
  /// PLV_PARANOID override.
  static void run(int nranks, const std::function<void(Comm&)>& body) {
    run(nranks, body, resolve_transport(TransportKind::kThread));
  }

  /// Explicit-backend entry (no transport environment resolution — callers
  /// that honor PLV_TRANSPORT apply resolve_transport() themselves).
  /// Validation still follows the build default + environment.
  static void run(int nranks, const std::function<void(Comm&)>& body,
                  TransportKind kind) {
    run(nranks, body, kind, resolve_validate(kValidateTransportDefault));
  }

  /// Fully explicit entry: no environment resolution on either knob
  /// (callers apply resolve_transport/resolve_validate themselves). With
  /// `validate`, every rank's transport is wrapped in a ValidatingTransport
  /// (transport_check.hpp) and finalized — goodbye checks included — after
  /// a clean body return; a ProtocolError fails the run like any rank
  /// exception. `tcp` is consulted only by the kTcp backend (defaults
  /// select its loopback self-test fleet; PLV_HOSTS/PLV_RANK still apply
  /// inside run_tcp_ranks); `hybrid` only by the kHybrid backend
  /// (PLV_RANKS_PER_PROC / PLV_FLAT_COLLECTIVES still apply inside
  /// run_hybrid_ranks).
  static void run(int nranks, const std::function<void(Comm&)>& body,
                  TransportKind kind, bool validate, const TcpOptions& tcp = {},
                  const HybridOptions& hybrid = {}) {
    if (nranks <= 0) throw std::invalid_argument("Runtime: nranks must be positive");
    if (kind == TransportKind::kProc) {
      detail::run_proc_ranks(nranks, body, validate);
      return;
    }
    if (kind == TransportKind::kTcp) {
      detail::run_tcp_ranks(nranks, body, validate, tcp);
      return;
    }
    if (kind == TransportKind::kHybrid) {
      detail::run_hybrid_ranks(nranks, body, validate, hybrid);
      return;
    }
    run_threads(nranks, body, validate);
  }

 private:
  static void run_threads(int nranks, const std::function<void(Comm&)>& body,
                          bool validate) {
    detail::ThreadShared state(nranks);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    // First-throwing rank wins; the guarded slot is the only cross-rank
    // mutable state in the launcher itself.
    struct {
      plv::Mutex mu;
      std::exception_ptr first PLV_GUARDED_BY(mu);
    } error;
    for (int r = 0; r < nranks; ++r) {
      threads.emplace_back([&state, &body, &error, validate, r] {
        ThreadTransport transport(&state, r);
        bool failed = false;
        try {
          if (validate) {
            ValidatingTransport checked(transport);
            {
              Comm comm(checked);
              body(comm);
            }
            // Goodbye transition after the Comm destructor released its
            // deferred chunks; leaks and post-goodbye traffic throw.
            checked.finalize();
          } else {
            Comm comm(transport);
            body(comm);
          }
        } catch (const AbortedError&) {
          failed = true;  // peer-induced: the originating rank records the cause
        } catch (...) {
          {
            plv::MutexLock lock(error.mu);
            if (!error.first) error.first = std::current_exception();
          }
          failed = true;
        }
        if (failed) state.abort();
        // Leave the barrier permanently so stragglers can never block on
        // a rank that has already finished.
        state.barrier.arrive_and_drop();
      });
    }
    for (auto& t : threads) t.join();
    {
      plv::MutexLock lock(error.mu);
      if (error.first) std::rethrow_exception(error.first);
    }
    if (state.aborted.load(std::memory_order_seq_cst)) {
      // Possible only if a body threw AbortedError itself; still fail.
      throw AbortedError();
    }
  }
};

}  // namespace plv::pml
