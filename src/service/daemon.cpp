#include "service/daemon.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <sstream>
#include <system_error>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "service/frame_codec.hpp"
#include "util/check.hpp"

namespace dsp::service {

namespace {

/// Wait between accept retries while descriptors are exhausted.
constexpr int kAcceptRetryMs = 50;

[[nodiscard]] ssize_t recv_some(int fd, char* buffer, std::size_t count) {
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, count, 0);
    if (got >= 0 || errno != EINTR) return got;
  }
}

/// Reads exactly `count` bytes; false on EOF or a connection error.
[[nodiscard]] bool recv_exact(int fd, char* buffer, std::size_t count) {
  std::size_t got = 0;
  while (got < count) {
    const ssize_t chunk = recv_some(fd, buffer + got, count - got);
    if (chunk <= 0) return false;
    got += static_cast<std::size_t>(chunk);
  }
  return true;
}

/// Writes all of `count` bytes; false on a connection error.  MSG_NOSIGNAL
/// turns a peer hangup into EPIPE instead of killing the process.
[[nodiscard]] bool send_all(int fd, const char* buffer, std::size_t count) {
  std::size_t sent = 0;
  while (sent < count) {
    const ssize_t chunk = ::send(fd, buffer + sent, count - sent, MSG_NOSIGNAL);
    if (chunk < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(chunk);
  }
  return true;
}

/// Encodes and writes one whole frame (frame_codec.hpp is the codec; this
/// is just the socket write).
[[nodiscard]] bool write_frame(int fd, std::uint8_t type,
                               const std::string& payload) {
  const std::string bytes = frame::encode_frame(type, payload);
  return send_all(fd, bytes.data(), bytes.size());
}

}  // namespace

// ---------------------------------------------------------------------------
// Daemon.
// ---------------------------------------------------------------------------

Daemon::Daemon(const DaemonOptions& options)
    : options_(options),
      solver_(options.serve, options.cache),
      gate_(options.max_concurrent != 0
                ? options.max_concurrent
                : runtime::hardware_threads(),
            options.max_queue) {
  if (!options_.persist_dir.empty()) {
    store_.emplace(options_.persist_dir);
    warm_loaded_ = store_->warm_load(solver_.cache());
    // Wired before any serving thread exists (set_insert_observer's
    // contract); the observer runs outside the cache lock, so the store's
    // own compaction may re-enter export_entries() safely.
    solver_.cache().set_insert_observer(
        [this](const CacheKey& key,
               const std::shared_ptr<const CachedSolve>& value) {
          store_->append(solver_.cache(), key, *value);
        });
  }

  // A throwing constructor never reaches ~Daemon, so a failed setup closes
  // whatever it opened before rethrowing.
  try {
    DSP_REQUIRE(::pipe(stop_pipe_) == 0, "dsp_served: cannot create stop pipe: "
                                             << std::strerror(errno));
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    DSP_REQUIRE(listen_fd_ >= 0,
                "dsp_served: cannot create socket: " << std::strerror(errno));
    const int reuse = 1;
    (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse,
                       sizeof(reuse));
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(options_.port);
    DSP_REQUIRE(
        ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
               sizeof(address)) == 0,
        "dsp_served: cannot bind 127.0.0.1:" << options_.port << ": "
                                             << std::strerror(errno));
    DSP_REQUIRE(::listen(listen_fd_, 64) == 0,
                "dsp_served: cannot listen: " << std::strerror(errno));
    sockaddr_in bound{};
    socklen_t bound_size = sizeof(bound);
    DSP_REQUIRE(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                              &bound_size) == 0,
                "dsp_served: getsockname failed: " << std::strerror(errno));
    port_ = ntohs(bound.sin_port);
  } catch (...) {
    close_fds();
    throw;
  }

  // Registered after every member above is live; the source only reads
  // atomics, the gate's own lock, the store's counters and process-wide
  // gauges, so metrics frames may pull it concurrently with serving.
  obs_source_ = obs::Registry::global().register_source(
      [this](std::vector<obs::Sample>& out) {
        const DaemonStats daemon = stats();
        out.push_back({"daemon.accepted", daemon.accepted, false});
        out.push_back({"daemon.requests", daemon.requests, false});
        out.push_back({"daemon.served", daemon.served, false});
        out.push_back({"daemon.shed", daemon.shed, false});
        out.push_back({"daemon.errors", daemon.errors, false});
        out.push_back({"daemon.warm_loaded", daemon.warm_loaded, false});
        out.push_back({"daemon.draining", daemon.draining, true});
        {
          const runtime::MutexLock lock(connections_mutex_);
          out.push_back(
              {"daemon.connection_threads", connections_.size(), true});
        }
        const runtime::AdmissionGate::Counters gate = gate_.counters();
        out.push_back({"admission.admitted", gate.admitted, false});
        out.push_back({"admission.queued", gate.queued, false});
        out.push_back({"admission.shed", gate.shed, false});
        out.push_back({"admission.closed_rejects", gate.closed_rejects, false});
        out.push_back({"admission.active", gate.active, true});
        out.push_back({"admission.waiting", gate.waiting, true});
        out.push_back({"admission.peak_waiting", gate.peak_waiting, true});
        if (store_) {
          out.push_back({"persist.appends", store_->appends(), false});
          out.push_back({"persist.compactions", store_->compactions(), false});
        }
        const obs::Tracer& tracer = obs::Tracer::global();
        out.push_back({"trace.spans_recorded", tracer.spans_recorded(), false});
        out.push_back({"trace.spans_dropped", tracer.spans_dropped(), false});
        out.push_back({"trace.enabled", obs::tracing_enabled(), true});
      });
}

Daemon::~Daemon() {
  stop();
  close_fds();
}

void Daemon::close_fds() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (int& fd : stop_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

void Daemon::start() {
  DSP_REQUIRE(!started_.exchange(true), "dsp_served: start() called twice");
  accept_thread_ = std::thread([this]() { accept_loop(); });
}

void Daemon::stop() {
  if (stopped_.exchange(true)) return;
  draining_.store(true);
  gate_.close();
  // One byte wakes every poll() on the stop pipe: nobody reads it, so the
  // readiness is level-triggered and permanent.
  [[maybe_unused]] const ssize_t wrote = ::write(stop_pipe_[1], "x", 1);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::list<Connection> connections;
  {
    const runtime::MutexLock lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (Connection& connection : connections) connection.thread.join();
  // Close the listener now (not in the destructor): a drained daemon must
  // refuse new connections, not park them in the kernel backlog.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Drained: park the cache on disk so the next boot starts warm from a
  // pure snapshot.
  if (store_) store_->compact(solver_.cache());
}

DaemonStats Daemon::stats() const {
  DaemonStats stats;
  stats.accepted = accepted_.load();
  stats.requests = requests_.load();
  stats.served = served_.load();
  stats.shed = shed_.load();
  stats.errors = errors_.load();
  stats.warm_loaded = warm_loaded_;
  stats.draining = draining_.load();
  return stats;
}

void Daemon::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // draining
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of descriptors or kernel memory: the connection stays in the
        // backlog.  Wait for a drain or the retry tick, then accept again.
        pollfd stop = {stop_pipe_[0], POLLIN, 0};
        if (::poll(&stop, 1, kAcceptRetryMs) > 0) return;  // draining
        continue;
      }
      return;
    }
    ++accepted_;
    std::list<Connection> finished;
    {
      const runtime::MutexLock lock(connections_mutex_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        const auto next = std::next(it);
        if (it->done.load(std::memory_order_acquire)) {
          finished.splice(finished.end(), connections_, it);
        }
        it = next;
      }
      Connection& connection = connections_.emplace_back();
      try {
        connection.thread = std::thread([this, fd, &connection]() {
          serve_connection(fd);
          connection.done.store(true, std::memory_order_release);
        });
      } catch (const std::system_error&) {
        // No thread to spare: refuse this connection, keep serving.
        connections_.pop_back();
        ::close(fd);
      }
    }
    for (Connection& connection : finished) connection.thread.join();
  }
}

void Daemon::serve_connection(int fd) {
  for (;;) {
    pollfd fds[2] = {{fd, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // The connection is checked first: a request that raced the drain is
    // still read and answered (with `busy` once the gate is closed).
    if (fds[0].revents != 0) {
      char bytes[frame::kHeaderSize];
      if (!recv_exact(fd, bytes, sizeof(bytes))) break;  // EOF / reset
      const frame::Header header = frame::parse_header(bytes);
      if (header.length > frame::kMaxPayload) {
        ++errors_;
        (void)write_frame(fd, frame::kError,
                          frame::encode_message("frame payload of " +
                                                std::to_string(header.length) +
                                                " bytes exceeds the limit"));
        break;
      }
      std::string payload(header.length, '\0');
      if (header.length > 0 && !recv_exact(fd, payload.data(), header.length)) {
        break;
      }
      ++requests_;
      if (!handle_frame(fd, header.type, std::move(payload))) break;
      continue;
    }
    if (fds[1].revents != 0) break;  // draining and idle
  }
  ::close(fd);
}

bool Daemon::handle_frame(int fd, std::uint8_t type, std::string payload) {
  using Ticket = runtime::AdmissionGate::Ticket;
  switch (type) {
    case frame::kSolve: {
      try {
        // One request id per frame: the solve below (and every span it
        // opens, down to LP resolves) carries this id in the trace.
        const obs::RequestScope request_scope;
        const obs::ScopedSpan request_span(obs::Phase::kRequest);
        std::istringstream is(std::move(payload));
        const WireInstance wire = load_instance(is, "tcp-request");
        const Instance instance = wire.to_instance();
        const runtime::AdmissionSlot slot(gate_, [this]() {
          const obs::ScopedSpan wait_span(obs::Phase::kAdmissionWait);
          return gate_.enter();
        }());
        if (slot.ticket() != Ticket::kAdmitted) {
          ++shed_;
          return write_frame(
              fd, frame::kBusy,
              frame::encode_message(slot.ticket() == Ticket::kClosed
                                        ? "draining: daemon is shutting down"
                                        : "overloaded: admission queue full"));
        }
        const SolveResponse response = solver_.solve(instance);
        ++served_;
        return write_frame(fd, frame::kSolveOk,
                           frame::encode_solve_ok(response));
      } catch (const std::exception& error) {
        ++errors_;
        return write_frame(fd, frame::kError,
                           frame::encode_message(error.what()));
      }
    }
    case frame::kMetrics:
      return write_frame(
          fd, frame::kMetricsOk,
          frame::encode_metrics(obs::Registry::global().prometheus_text()));
    default:
      ++errors_;
      // Unknown type: answer, then close — the payload boundary of the
      // *next* frame can no longer be trusted.
      (void)write_frame(fd, frame::kError,
                        frame::encode_message("unknown request frame type " +
                                              std::to_string(type)));
      return false;
  }
}

// ---------------------------------------------------------------------------
// DaemonClient.
// ---------------------------------------------------------------------------

DaemonClient::DaemonClient(std::uint16_t port, const std::string& host,
                           int connect_timeout_ms)
    : peer_(host + ":" + std::to_string(port)) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  DSP_REQUIRE(::inet_pton(AF_INET, host.c_str(), &address.sin_addr) == 1,
              peer_ << ": not a numeric IPv4 address");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(connect_timeout_ms);
  for (;;) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    DSP_REQUIRE(fd_ >= 0,
                peer_ << ": cannot create socket: " << std::strerror(errno));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) == 0) {
      return;
    }
    const int error = errno;
    ::close(fd_);
    fd_ = -1;
    // Refused = the daemon is (re)booting; retry inside the window.
    DSP_REQUIRE(error == ECONNREFUSED &&
                    std::chrono::steady_clock::now() < deadline,
                peer_ << ": cannot connect: " << std::strerror(error));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

DaemonClient::~DaemonClient() {
  if (fd_ >= 0) ::close(fd_);
}

void DaemonClient::send_frame(std::uint8_t type, const std::string& payload) {
  DSP_REQUIRE(payload.size() <= frame::kMaxPayload,
              peer_ << ": request payload of " << payload.size()
                    << " bytes exceeds the frame limit");
  DSP_REQUIRE(write_frame(fd_, type, payload),
              peer_ << ": connection lost while sending: "
                    << std::strerror(errno));
}

std::pair<std::uint8_t, std::string> DaemonClient::read_frame() {
  char bytes[frame::kHeaderSize];
  DSP_REQUIRE(recv_exact(fd_, bytes, sizeof(bytes)),
              peer_ << ": connection closed before a reply arrived");
  const frame::Header header = frame::parse_header(bytes);
  DSP_REQUIRE(header.length <= frame::kMaxPayload,
              peer_ << ": reply frame of " << header.length
                    << " bytes exceeds the limit");
  std::string payload(header.length, '\0');
  DSP_REQUIRE(header.length == 0 ||
                  recv_exact(fd_, payload.data(), header.length),
              peer_ << ": connection closed mid-reply");
  return {header.type, std::move(payload)};
}

DaemonClient::SolveReply DaemonClient::try_solve(const WireInstance& instance,
                                                 WireFormat format) {
  std::ostringstream os;
  save_instance(os, instance, format);
  send_frame(frame::kSolve, std::move(os).str());
  auto [type, payload] = read_frame();
  SolveReply reply;
  switch (type) {
    case frame::kSolveOk:
      reply.status = SolveReply::Status::kOk;
      reply.response = frame::decode_solve_ok(std::move(payload),
                                              peer_ + ": solve_ok frame");
      return reply;
    case frame::kBusy:
      reply.status = SolveReply::Status::kBusy;
      reply.message = frame::decode_message(std::move(payload),
                                            peer_ + ": busy frame");
      return reply;
    case frame::kError:
      reply.status = SolveReply::Status::kError;
      reply.message = frame::decode_message(std::move(payload),
                                            peer_ + ": error frame");
      return reply;
    default:
      throw InvalidInput(peer_ + ": unexpected reply frame type " +
                         std::to_string(type) + " to a solve request");
  }
}

SolveResponse DaemonClient::solve(const WireInstance& instance,
                                  WireFormat format) {
  SolveReply reply = try_solve(instance, format);
  DSP_REQUIRE(reply.status != SolveReply::Status::kBusy,
              peer_ << ": request shed: " << reply.message);
  DSP_REQUIRE(reply.status == SolveReply::Status::kOk,
              peer_ << ": " << reply.message);
  return std::move(reply.response);
}

std::string DaemonClient::metrics() {
  send_frame(frame::kMetrics, std::string());
  auto [type, payload] = read_frame();
  DSP_REQUIRE(type == frame::kMetricsOk,
              peer_ << ": unexpected reply frame type "
                    << static_cast<int>(type) << " to a metrics request");
  return frame::decode_metrics(std::move(payload),
                               peer_ + ": metrics_ok frame");
}

}  // namespace dsp::service
