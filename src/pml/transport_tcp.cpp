// TcpTransport: the pml frame protocol over a full mesh of TCP sockets.
//
// The frame protocol (wire format, demultiplexing, determinism, deadlock
// freedom, goodbye/abort discipline) is the shared SocketFrameTransport
// in transport_socket.hpp — identical to the proc backend. This file owns
// what TCP adds on top:
//
//   Endpoint mapping. A run is described by one host list, "host:port"
//   per rank, the same list on every host; a rank's index in the list IS
//   its identity. No discovery protocol, no coordinator — determinism by
//   configuration.
//
//   Listen/connect split. Rank r binds hosts[r]'s port and listens with a
//   backlog that covers the fleet, then *connects* to every rank below it
//   and *accepts* from every rank above it. Lower ranks connect to nobody
//   higher, so the wait chains terminate at rank 0 and establishment
//   cannot cycle; connect retries (until connect_timeout_ms) absorb ranks
//   arriving in any order.
//
//   Handshake. The first 32 bytes on every fresh lane, both directions:
//   magic (byte-order-asymmetric, so a mixed-endian or non-plv peer fails
//   loudly instead of desyncing the frame stream), protocol version, the
//   sender's rank, and its world size. The acceptor validates before
//   replying — a rejected connector sees the lane close, not a reply.
//
//   Failure deadline. Sockets carry SO_KEEPALIVE (idle 2 s / interval 1 s
//   / 3 probes) and, where available, TCP_USER_TIMEOUT = connect_timeout_ms,
//   so a vanished host surfaces as a socket error that wakes the poll
//   loops within the 5 s fail-fast deadline — on loopback and live hosts
//   the RST/EOF arrives immediately. ECONNRESET/EPIPE/ETIMEDOUT all land
//   in SocketFrameTransport's close-without-goodbye path, which records
//   the dead peer's endpoint for the RemoteRankError survivors throw.
//
//   Two launch modes (TcpOptions): the multi-host single-rank mode used
//   by real fleets, and a loopback self-test fleet (fork + ephemeral
//   ports, proc-style harvest) so CI exercises the TCP path on one
//   machine with zero configuration.
#include "pml/transport_tcp.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <stdio_ext.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/errno_util.hpp"
#include "pml/comm.hpp"
#include "pml/transport.hpp"
#include "pml/transport_check.hpp"
#include "pml/transport_socket.hpp"

namespace plv::pml {
namespace {

using detail::TcpHandshake;
using detail::kTcpHandshakeMagic;
using detail::kTcpProtocolVersion;

/// A handshake frame announcing this rank.
[[nodiscard]] TcpHandshake make_handshake(int rank, int nranks) {
  TcpHandshake hs{};
  hs.magic = kTcpHandshakeMagic;
  hs.version = kTcpProtocolVersion;
  hs.rank = static_cast<std::uint32_t>(rank);
  hs.world = static_cast<std::uint32_t>(nranks);
  return hs;
}

[[nodiscard]] std::int64_t now_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

struct Endpoint {
  std::string host;
  std::string port;
};

/// Splits one validated "host:port" entry (validation happened in
/// parse_host_list / ParOptions::validate; this only re-splits).
[[nodiscard]] Endpoint split_endpoint(const std::string& entry) {
  const std::size_t colon = entry.rfind(':');
  return {entry.substr(0, colon), entry.substr(colon + 1)};
}

/// Per-lane socket tuning: low latency for the fine-grained plane, and
/// the keepalive/user-timeout bounds that turn a vanished host into a
/// socket error within the fail-fast deadline.
void tune_socket(int fd, int timeout_ms) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
  int idle = 2, intvl = 1, cnt = 3;
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPIDLE, &idle, sizeof(idle));
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPINTVL, &intvl, sizeof(intvl));
  ::setsockopt(fd, IPPROTO_TCP, TCP_KEEPCNT, &cnt, sizeof(cnt));
#ifdef TCP_USER_TIMEOUT
  unsigned int ut = static_cast<unsigned int>(timeout_ms);
  ::setsockopt(fd, IPPROTO_TCP, TCP_USER_TIMEOUT, &ut, sizeof(ut));
#endif
}

/// Sends the whole buffer before `deadline_ms`; false on peer loss or
/// deadline. The fd may be non-blocking.
[[nodiscard]] bool send_all_deadline(int fd, const void* buf, std::size_t len,
                                     std::int64_t deadline_ms) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t off = 0;
  while (off < len) {
    const ssize_t k = ::send(fd, p + off, len - off, MSG_NOSIGNAL);
    if (k > 0) {
      off += static_cast<std::size_t>(k);
      continue;
    }
    if (k < 0 && errno == EINTR) continue;
    if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const std::int64_t left = deadline_ms - now_ms();
      if (left <= 0) return false;
      pollfd pf{fd, POLLOUT, 0};
      if (::poll(&pf, 1, static_cast<int>(left)) < 0 && errno != EINTR) return false;
      continue;
    }
    return false;
  }
  return true;
}

/// Receives exactly `len` bytes before `deadline_ms`; on failure fills
/// `err` ("connection closed", detail::lane_error's text, "timed out").
[[nodiscard]] bool recv_all_deadline(int fd, void* buf, std::size_t len,
                                     std::int64_t deadline_ms, std::string& err) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t off = 0;
  while (off < len) {
    const std::int64_t left = deadline_ms - now_ms();
    if (left <= 0) {
      err = "timed out";
      return false;
    }
    pollfd pf{fd, POLLIN, 0};
    const int rc = ::poll(&pf, 1, static_cast<int>(left));
    if (rc < 0) {
      if (errno == EINTR) continue;
      err = std::string("poll failed: ") + plv::errno_str(errno);
      return false;
    }
    if (rc == 0) {
      err = "timed out";
      return false;
    }
    const ssize_t k = ::recv(fd, p + off, len - off, 0);
    if (k > 0) {
      off += static_cast<std::size_t>(k);
      continue;
    }
    if (k == 0) {
      err = "connection closed";
      return false;
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    err = detail::lane_error("recv", errno);
    return false;
  }
  return true;
}

/// Validates a received handshake against this rank's expectations.
/// `expect_rank` < 0 means "any rank above `self` is acceptable" (the
/// accept side learns the peer's rank from the frame).
void check_handshake(const TcpHandshake& hs, int self, int nranks, int expect_rank,
                     const std::string& endpoint) {
  const int peer = expect_rank >= 0 ? expect_rank : static_cast<int>(hs.rank);
  auto fail = [&](const std::string& what) {
    throw RemoteRankError(peer, "tcp handshake failed: " + what, endpoint);
  };
  if (hs.magic != kTcpHandshakeMagic) {
    fail("bad magic 0x" + [&] {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%08x", hs.magic);
      return std::string(buf);
    }() + " (not a plv rank, or a different-endianness build)");
  }
  if (hs.version != kTcpProtocolVersion) {
    fail("protocol version mismatch: peer speaks version " +
         std::to_string(hs.version) + ", this build speaks " +
         std::to_string(kTcpProtocolVersion));
  }
  if (static_cast<int>(hs.world) != nranks) {
    fail("world-size mismatch: peer was launched with " + std::to_string(hs.world) +
         " ranks, this rank with " + std::to_string(nranks));
  }
  if (expect_rank >= 0 && static_cast<int>(hs.rank) != expect_rank) {
    fail("endpoint maps to rank " + std::to_string(expect_rank) +
         " but the peer there claims rank " + std::to_string(hs.rank) +
         " (host lists disagree?)");
  }
  if (expect_rank < 0 &&
      (static_cast<int>(hs.rank) <= self || static_cast<int>(hs.rank) >= nranks)) {
    fail("peer claims rank " + std::to_string(hs.rank) +
         ", not in (" + std::to_string(self) + ", " + std::to_string(nranks) +
         ") as the listen/connect split requires");
  }
}

/// Binds a listening socket. `port` 0 means an ephemeral port (loopback
/// fleet); `*bound_port` receives the actual port. Binds the wildcard
/// address unless `loopback_only`.
[[nodiscard]] int make_listener(std::uint16_t port, bool loopback_only, int backlog,
                                std::uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("pml: tcp socket failed: ") +
                             plv::errno_str(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("pml: tcp bind/listen on port " + std::to_string(port) +
                             " failed: " + plv::errno_str(err));
  }
  if (bound_port != nullptr) {
    sockaddr_in actual{};
    socklen_t alen = sizeof(actual);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &alen);
    *bound_port = ntohs(actual.sin_port);
  }
  return fd;
}

/// Connects to `endpoint`, retrying (listener may not be up yet) until
/// `deadline_ms`. Throws RemoteRankError naming `peer` on timeout.
[[nodiscard]] int connect_with_retry(int peer, const std::string& endpoint,
                                     std::int64_t deadline_ms, int timeout_ms) {
  const Endpoint ep = split_endpoint(endpoint);
  std::string last_error = "timed out";
  while (now_ms() < deadline_ms) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const int gai = ::getaddrinfo(ep.host.c_str(), ep.port.c_str(), &hints, &res);
    if (gai != 0) {
      // Name resolution can be transiently down while a fleet boots;
      // retry it like a refused connect.
      // gai_strerror returns pointers into static const tables on
      // glibc; no shared mutable buffer is involved.
      // NOLINTNEXTLINE(concurrency-mt-unsafe)
      last_error = std::string("getaddrinfo: ") + ::gai_strerror(gai);
    } else {
      for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        const int fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_NONBLOCK,
                                ai->ai_protocol);
        if (fd < 0) continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
          ::freeaddrinfo(res);
          return fd;
        }
        if (errno == EINPROGRESS) {
          const std::int64_t left = deadline_ms - now_ms();
          pollfd pf{fd, POLLOUT, 0};
          if (left > 0 && ::poll(&pf, 1, static_cast<int>(left)) == 1) {
            int soerr = 0;
            socklen_t slen = sizeof(soerr);
            ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen);
            if (soerr == 0) {
              ::freeaddrinfo(res);
              return fd;
            }
            last_error = std::string("connect: ") + plv::errno_str(soerr);
          }
        } else {
          last_error = std::string("connect: ") + plv::errno_str(errno);
        }
        ::close(fd);
      }
      ::freeaddrinfo(res);
    }
    // Refused/unreachable: the listener may simply not be up yet.
    const timespec nap{0, 50 * 1000 * 1000};
    ::nanosleep(&nap, nullptr);
  }
  throw RemoteRankError(peer,
                        "tcp connect timed out after " + std::to_string(timeout_ms) +
                            " ms (" + last_error + "; listener never came up?)",
                        endpoint);
}

/// Establishes this rank's lanes: connect to every rank below, accept
/// from every rank above, handshake on each. Returns fds indexed by rank
/// (-1 for self). Closes `listen_fd` when the mesh is complete. Throws
/// RemoteRankError (naming the endpoint) on any lane that cannot be
/// brought up within `timeout_ms`.
[[nodiscard]] std::vector<int> establish_mesh(int rank, int nranks,
                                              const std::vector<std::string>& hosts,
                                              int listen_fd, int timeout_ms) {
  const std::int64_t deadline = now_ms() + timeout_ms;
  std::vector<int> fds(static_cast<std::size_t>(nranks), -1);
  auto close_partial = [&]() noexcept {
    for (int& fd : fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    ::close(listen_fd);
  };
  try {
    const TcpHandshake mine = make_handshake(rank, nranks);
    // Connect side: lower ranks, ascending (their accept order is free).
    for (int r = 0; r < rank; ++r) {
      const std::string& endpoint = hosts[static_cast<std::size_t>(r)];
      const int fd = connect_with_retry(r, endpoint, deadline, timeout_ms);
      tune_socket(fd, timeout_ms);
      std::string err;
      TcpHandshake reply{};
      if (!send_all_deadline(fd, &mine, sizeof(mine), deadline) ||
          !recv_all_deadline(fd, &reply, sizeof(reply), deadline, err)) {
        ::close(fd);
        throw RemoteRankError(
            r, "tcp handshake failed: " + (err.empty() ? "connection lost" : err) +
                   " (rejected by the acceptor?)", endpoint);
      }
      check_handshake(reply, rank, nranks, r, endpoint);
      fds[static_cast<std::size_t>(r)] = fd;
    }
    // Accept side: higher ranks, in whatever order they arrive.
    for (int expected = nranks - 1 - rank; expected > 0; --expected) {
      const std::int64_t left = deadline - now_ms();
      pollfd pf{listen_fd, POLLIN, 0};
      int rc = 0;
      do {
        rc = ::poll(&pf, 1, static_cast<int>(std::max<std::int64_t>(left, 0)));
      } while (rc < 0 && errno == EINTR);
      if (rc <= 0) {
        throw std::runtime_error(
            "pml: tcp rank " + std::to_string(rank) + " timed out after " +
            std::to_string(timeout_ms) + " ms waiting for " +
            std::to_string(expected) + " higher rank(s) to connect");
      }
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) {
          ++expected;  // not a lane; keep waiting
          continue;
        }
        throw std::runtime_error(std::string("pml: tcp accept failed: ") +
                                 plv::errno_str(errno));
      }
      tune_socket(fd, timeout_ms);
      std::string err;
      TcpHandshake theirs{};
      if (!recv_all_deadline(fd, &theirs, sizeof(theirs), deadline, err)) {
        ::close(fd);
        throw std::runtime_error("pml: tcp handshake failed on an accepted connection: " +
                                 err);
      }
      // Validate before replying: a rejected connector sees the lane
      // close, never a reply.
      check_handshake(theirs, rank, nranks, -1, "accepted connection");
      const int peer = static_cast<int>(theirs.rank);
      if (fds[static_cast<std::size_t>(peer)] >= 0) {
        ::close(fd);
        throw std::runtime_error("pml: tcp rank " + std::to_string(peer) +
                                 " connected twice (duplicate --rank in the fleet?)");
      }
      if (!send_all_deadline(fd, &mine, sizeof(mine), deadline)) {
        ::close(fd);
        throw RemoteRankError(peer, "tcp handshake reply failed",
                              hosts[static_cast<std::size_t>(peer)]);
      }
      fds[static_cast<std::size_t>(peer)] = fd;
    }
  } catch (...) {
    close_partial();
    throw;
  }
  ::close(listen_fd);
  return fds;
}

using detail::SocketFrameTransport;
using detail::describe_wait_status;
using detail::kExitAborted;
using detail::kExitClean;
using detail::kExitFailed;
using detail::run_rank_body;
using detail::write_all;

/// One rank of a multi-host fleet, running in the calling process: bind,
/// mesh, body. Exceptions propagate to the caller with their type; a peer
/// observed dying on the wire is re-raised as RemoteRankError carrying
/// its endpoint (run_rank_body's report_peer_failure path).
void run_tcp_single_rank(int nranks, const std::function<void(Comm&)>& body,
                         bool validate, const TcpOptions& opt) {
  const int rank = opt.self_rank;
  const Endpoint self_ep = split_endpoint(opt.hosts[static_cast<std::size_t>(rank)]);
  const auto port = static_cast<std::uint16_t>(std::stoi(self_ep.port));
  const int listen_fd =
      make_listener(port, /*loopback_only=*/false, nranks + 1, nullptr);
  std::vector<int> fds =
      establish_mesh(rank, nranks, opt.hosts, listen_fd, opt.connect_timeout_ms);
  SocketFrameTransport transport("tcp", rank, nranks, std::move(fds), opt.hosts);
  std::string error_text;
  std::exception_ptr exception;
  const int code = run_rank_body(transport, body, validate, error_text, &exception,
                                 /*report_peer_failure=*/true);
  if (code == kExitFailed && exception) std::rethrow_exception(exception);
  if (code == kExitAborted) throw AbortedError();
}

/// The loopback self-test fleet: proc-backend topology (rank 0 in the
/// caller, forked children, status pipes, waitpid harvest) with TCP
/// loopback lanes instead of socketpairs. Listeners are bound on
/// ephemeral ports *before* the first fork, so the host list is complete
/// and race-free when the children start connecting.
void run_tcp_loopback_fleet(int nranks, const std::function<void(Comm&)>& body,
                            bool validate, const TcpOptions& opt) {
  const auto n = static_cast<std::size_t>(nranks);
  const int timeout_ms = opt.connect_timeout_ms;
  if (nranks == 1) {
    SocketFrameTransport transport("tcp", 0, 1, {-1});
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
    return;
  }

  std::vector<int> listeners(n, -1);
  std::vector<std::string> hosts(n);
  std::vector<std::array<int, 2>> status_pipes(n, {-1, -1});
  auto close_all = [&]() noexcept {
    for (int& fd : listeners) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    for (auto& sp : status_pipes) {
      for (int& fd : sp) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
    }
  };
  try {
    for (std::size_t r = 0; r < n; ++r) {
      std::uint16_t bound = 0;
      listeners[r] = make_listener(0, /*loopback_only=*/true, nranks + 1, &bound);
      hosts[r] = "127.0.0.1:" + std::to_string(bound);
    }
    for (std::size_t r = 1; r < n; ++r) {
      if (::pipe(status_pipes[r].data()) != 0) {
        throw std::runtime_error(std::string("pml: pipe failed: ") +
                                 plv::errno_str(errno));
      }
    }
  } catch (...) {
    close_all();
    throw;
  }

  std::fflush(nullptr);
  std::vector<pid_t> pids(n, -1);
  for (int r = 1; r < nranks; ++r) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child: one TCP rank. Same stdio/fd hygiene as the proc backend.
      __fpurge(stdout);
      __fpurge(stderr);
      ::signal(SIGPIPE, SIG_IGN);
      for (int q = 0; q < nranks; ++q) {
        if (q != r && listeners[static_cast<std::size_t>(q)] >= 0) {
          ::close(listeners[static_cast<std::size_t>(q)]);
        }
        const auto& sp = status_pipes[static_cast<std::size_t>(q)];
        if (sp[0] >= 0) ::close(sp[0]);
        if (q != r && sp[1] >= 0) ::close(sp[1]);
      }
      const int status_fd = status_pipes[static_cast<std::size_t>(r)][1];
      int code = kExitFailed;
      std::string error_text;
      try {
        std::vector<int> fds = establish_mesh(
            r, nranks, hosts, listeners[static_cast<std::size_t>(r)], timeout_ms);
        SocketFrameTransport transport("tcp", r, nranks, std::move(fds), hosts);
        code = run_rank_body(transport, body, validate, error_text, nullptr);
      } catch (const std::exception& e) {
        error_text = std::string("transport setup failed: ") + e.what();
      } catch (...) {
        error_text = "transport setup failed";
      }
      if (code == kExitFailed && !error_text.empty()) {
        write_all(status_fd, error_text.data(), error_text.size());
      }
      ::close(status_fd);
      ::_exit(code);
    }
    if (pid < 0) {
      const int err = errno;
      close_all();
      for (int q = 1; q < r; ++q) {
        int st = 0;
        ::waitpid(pids[static_cast<std::size_t>(q)], &st, 0);
      }
      throw std::runtime_error(std::string("pml: fork failed: ") + plv::errno_str(err));
    }
    pids[static_cast<std::size_t>(r)] = pid;
  }

  for (std::size_t r = 1; r < n; ++r) {
    ::close(listeners[r]);
    listeners[r] = -1;
    ::close(status_pipes[r][1]);
    status_pipes[r][1] = -1;
  }

  // Rank 0 here, in the caller's address space.
  std::string rank0_error;
  std::exception_ptr rank0_exception;
  int rank0_code = kExitFailed;
  try {
    std::vector<int> fds = establish_mesh(0, nranks, hosts, listeners[0], timeout_ms);
    listeners[0] = -1;  // establish_mesh closed it
    SocketFrameTransport transport("tcp", 0, nranks, std::move(fds), hosts);
    rank0_code = run_rank_body(transport, body, validate, rank0_error, &rank0_exception);
  } catch (...) {
    listeners[0] = -1;
    rank0_exception = std::current_exception();
    rank0_code = kExitFailed;
  }

  // Harvest, exactly like the proc backend — but RemoteRankError also
  // names the dead rank's loopback endpoint.
  std::vector<std::string> child_error(n);
  std::vector<int> child_code(n, kExitClean);
  for (std::size_t r = 1; r < n; ++r) {
    char buf[4096];
    for (;;) {
      const ssize_t k = ::read(status_pipes[r][0], buf, sizeof(buf));
      if (k > 0) {
        child_error[r].append(buf, static_cast<std::size_t>(k));
        continue;
      }
      if (k < 0 && errno == EINTR) continue;
      break;
    }
    ::close(status_pipes[r][0]);
    status_pipes[r][0] = -1;
    int st = 0;
    pid_t rc = 0;
    do {
      rc = ::waitpid(pids[r], &st, 0);
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) {
      child_code[r] = kExitFailed;
      child_error[r] = std::string("waitpid failed: ") + plv::errno_str(errno);
    } else if (WIFEXITED(st)) {
      child_code[r] = WEXITSTATUS(st);
    } else {
      child_code[r] = kExitFailed;
      child_error[r] = describe_wait_status(st);
    }
  }

  if (rank0_code == kExitFailed && rank0_exception) {
    std::rethrow_exception(rank0_exception);
  }
  for (std::size_t r = 1; r < n; ++r) {
    if (child_code[r] == kExitFailed) {
      throw RemoteRankError(static_cast<int>(r),
                            child_error[r].empty() ? "unknown failure" : child_error[r],
                            hosts[r]);
    }
  }
  for (std::size_t r = 1; r < n; ++r) {
    if (child_code[r] != kExitClean && child_code[r] != kExitAborted) {
      throw RemoteRankError(static_cast<int>(r),
                            "rank exited with unexpected status " +
                                std::to_string(child_code[r]),
                            hosts[r]);
    }
  }
  if (rank0_code == kExitAborted ||
      std::any_of(child_code.begin(), child_code.end(),
                  [](int c) { return c == kExitAborted; })) {
    throw AbortedError();
  }
}

}  // namespace

std::vector<std::string> parse_host_list(const std::string& text) {
  std::vector<std::string> hosts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    std::string entry = text.substr(start, end - start);
    // Trim surrounding whitespace.
    while (!entry.empty() && std::isspace(static_cast<unsigned char>(entry.front()))) {
      entry.erase(entry.begin());
    }
    while (!entry.empty() && std::isspace(static_cast<unsigned char>(entry.back()))) {
      entry.pop_back();
    }
    auto fail = [&](const std::string& why) {
      throw std::invalid_argument("pml: bad host list entry " +
                                  std::to_string(hosts.size()) + " ('" + entry +
                                  "'): " + why + " (expected host:port)");
    };
    if (entry.empty()) fail("empty entry");
    const std::size_t colon = entry.rfind(':');
    if (colon == std::string::npos || colon == 0) fail("missing host or ':'");
    const std::string port = entry.substr(colon + 1);
    if (port.empty() ||
        !std::all_of(port.begin(), port.end(),
                     [](unsigned char c) { return std::isdigit(c) != 0; })) {
      fail("port is not a number");
    }
    const long value = std::strtol(port.c_str(), nullptr, 10);
    if (value < 1 || value > 65535) fail("port out of range [1, 65535]");
    hosts.push_back(std::move(entry));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return hosts;
}

TcpOptions resolve_tcp_options(TcpOptions requested) {
  // Env knobs are read during single-threaded setup, before the fleet
  // spawns.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("PLV_HOSTS"); env != nullptr && *env != '\0') {
    requested.hosts = parse_host_list(env);
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("PLV_RANK"); env != nullptr && *env != '\0') {
    char* tail = nullptr;
    const long value = std::strtol(env, &tail, 10);
    if (tail == env || *tail != '\0') {
      throw std::invalid_argument(std::string("pml: PLV_RANK is not a number: '") +
                                  env + "'");
    }
    requested.self_rank = static_cast<int>(value);
  }
  return requested;
}

namespace detail {

void run_tcp_ranks(int nranks, const std::function<void(Comm&)>& body, bool validate,
                   const TcpOptions& tcp) {
  const TcpOptions opt = resolve_tcp_options(tcp);
  if (opt.connect_timeout_ms <= 0) {
    throw std::invalid_argument("pml: tcp connect_timeout_ms must be positive, got " +
                                std::to_string(opt.connect_timeout_ms));
  }
  if (opt.self_rank < 0 && opt.hosts.empty()) {
    run_tcp_loopback_fleet(nranks, body, validate, opt);
    return;
  }
  // Multi-host mode: the host list is the fleet's shape; it must agree
  // with nranks and contain this rank.
  if (opt.hosts.empty()) {
    throw std::invalid_argument(
        "pml: tcp rank " + std::to_string(opt.self_rank) +
        " has no host list; multi-host tcp needs --hosts/PLV_HOSTS with one "
        "host:port per rank (omit --rank for the loopback self-test)");
  }
  if (static_cast<int>(opt.hosts.size()) != nranks) {
    throw std::invalid_argument("pml: tcp host list has " +
                                std::to_string(opt.hosts.size()) + " entries but the run has " +
                                std::to_string(nranks) +
                                " ranks; one host:port per rank is required");
  }
  if (opt.self_rank < 0 || opt.self_rank >= nranks) {
    throw std::invalid_argument("pml: tcp rank " + std::to_string(opt.self_rank) +
                                " out of range for a " + std::to_string(nranks) +
                                "-rank host list");
  }
  for (const std::string& h : opt.hosts) (void)parse_host_list(h);  // shape check
  run_tcp_single_rank(nranks, body, validate, opt);
}

}  // namespace detail
}  // namespace plv::pml
