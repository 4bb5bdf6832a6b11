#include "core/session.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "pml/comm.hpp"

namespace plv {

using core::detail::SessionCommand;
using core::detail::SessionShared;

Session::Session(const GraphSource& source, const core::ParOptions& opts) {
  source.require_live("Session");
  opts.validate();
  if (opts.streaming.frontier && opts.partition == graph::PartitionKind::kBlock) {
    throw std::invalid_argument(
        "Session: StreamingPlan::frontier requires the cyclic partition — block "
        "ownership shifts when the vertex count grows, and the incremental path "
        "runs on the cyclic partition only (set streaming.frontier = false or "
        "partition = kCyclic)");
  }
  if (opts.transport == pml::TransportKind::kTcp && opts.tcp_rank > 0) {
    throw std::invalid_argument(
        "Session: a multi-host tcp fleet is driven from its rank-0 process; this "
        "process is tcp_rank " + std::to_string(opts.tcp_rank) +
        " (run the Session handle where tcp_rank is 0)");
  }

  shared_ = std::make_unique<SessionShared>();
  shared_->opts = opts;
  shared_->init_n = source.n_vertices();
  if (source.stream() != nullptr) {
    shared_->init_stream = source.stream();
  } else {
    if (source.edges() == nullptr) {
      throw std::invalid_argument("Session: GraphSource carries no edges and no stream");
    }
    shared_->init_edges = *source.edges();  // owned replica from here on
    if (source.delta() != nullptr) {
      shared_->init_n =
          std::max(shared_->init_n, apply_edge_delta(shared_->init_edges, *source.delta()));
    }
    if (source.initial_labels() != nullptr) shared_->init_labels = *source.initial_labels();
  }

  SessionShared& shared = *shared_;
  const pml::TransportKind kind = pml::resolve_transport(opts.transport);
  fleet_ = std::thread([&shared, kind] {
    try {
      pml::Runtime::run(
          shared.opts.nranks,
          [&shared](pml::Comm& comm) { core::detail::session_rank_body(comm, shared); },
          kind, pml::resolve_validate(shared.opts.validate_transport),
          shared.opts.tcp_options(), shared.opts.hybrid_options());
    } catch (...) {
      plv::MutexLock lock(shared.mu);
      shared.dead = true;
      shared.error = std::current_exception();
    }
    shared.cv.notify_all();
  });

  // Block until epoch 0 (the initial full run) is published, so a
  // constructed Session always has a snapshot to serve.
  try {
    (void)wait_for_epoch(0);
  } catch (...) {
    if (fleet_.joinable()) fleet_.join();
    throw;
  }
}

Session::~Session() {
  try {
    close();
  } catch (...) {
    // Destructors don't throw; close() already recorded the failure.
  }
}

std::shared_ptr<const LabelSnapshot> Session::wait_for_epoch(std::uint64_t seq) {
  plv::MutexLock lock(shared_->mu);
  // snap != nullptr distinguishes "epoch 0 published" from the freshly
  // constructed state (completed starts at 0 before any run finishes).
  while (!shared_->dead && (shared_->snap == nullptr || shared_->completed < seq)) {
    shared_->cv.wait(shared_->mu);
  }
  if (shared_->snap == nullptr || shared_->completed < seq) {
    // Don't leave pending waiters racing a half-torn-down fleet.
    if (shared_->error != nullptr) std::rethrow_exception(shared_->error);
    throw std::runtime_error("Session: fleet exited before completing the command");
  }
  return shared_->snap;
}

std::shared_ptr<const LabelSnapshot> Session::apply(const EdgeDelta& batch) {
  plv::MutexLock serialize(apply_mu_);
  if (closed_) throw std::logic_error("Session: apply() after close()");
  const std::uint64_t seq = submitted_ + 1;
  {
    plv::MutexLock lock(shared_->mu);
    if (shared_->dead) {
      if (shared_->error != nullptr) std::rethrow_exception(shared_->error);
      throw std::runtime_error("Session: fleet is dead");
    }
    shared_->command = SessionCommand{SessionCommand::Kind::kApply, batch, seq};
    shared_->has_command = true;
  }
  shared_->cv.notify_all();
  submitted_ = seq;
  return wait_for_epoch(seq);
}

std::shared_ptr<const LabelSnapshot> Session::snapshot() const {
  plv::MutexLock lock(shared_->mu);
  return shared_->snap;
}

std::uint64_t Session::epoch() const {
  plv::MutexLock lock(shared_->mu);
  return shared_->completed;
}

vid_t Session::query(vid_t v) const { return snapshot()->community_of(v); }

std::vector<vid_t> Session::community_members(vid_t c) const {
  return snapshot()->community_members(c);
}

void Session::close() {
  plv::MutexLock serialize(apply_mu_);
  if (closed_) return;
  closed_ = true;
  {
    plv::MutexLock lock(shared_->mu);
    if (!shared_->dead) {
      shared_->command =
          SessionCommand{SessionCommand::Kind::kShutdown, EdgeDelta{}, submitted_ + 1};
      shared_->has_command = true;
    }
  }
  shared_->cv.notify_all();
  if (fleet_.joinable()) fleet_.join();
}

}  // namespace plv
