#pragma once

// dsp_served — the serving layer as a long-lived TCP daemon (DESIGN.md,
// "The serving daemon").
//
// The daemon listens on loopback and speaks length-prefixed frames:
//
//   frame   := u32 payload_len (LE)  u8 type  payload[payload_len]
//
//   requests             responses
//   1 solve   (instance) 1 solve_ok   (u8 outcome, i64 peak, str winner,
//                                      u64 n, i64 start[n])
//   3 metrics (empty)    2 error      (str message)
//                        4 busy       (str reason — shed or draining)
//                        5 metrics_ok (u8 version, str Prometheus text)
//
// Request 2 and response 3 (the retired stats/stats_ok pair) stay unused;
// every counter a client can read is a sample in the metrics exposition.
//
// A solve payload is one DSPW instance record, binary or JSON (the same
// auto-detection as load_instance); the response packing is in the
// requester's item order.  Every request is served through CachingSolver,
// so answers are bit-identical to dsp_solve's for the same parameters.
//
// Robustness layers:
//  * persistence — with DaemonOptions::persist_dir set, every insert is
//    appended to an on-disk log and periodically compacted into an atomic
//    snapshot (persist.hpp); a restarted daemon warm-loads the store and
//    keeps its hit rate.
//  * overload behavior — concurrent solves are capped by an AdmissionGate:
//    a saturated daemon queues a bounded number of requests (backpressure)
//    and sheds the rest with `busy` responses instead of growing without
//    bound.  SIGTERM/SIGINT (wired in dsp_served_main) call stop(): the
//    listener closes, in-flight and queued solves finish and are answered,
//    then the cache is compacted to disk.

#include <atomic>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/admission.hpp"
#include "runtime/sync.hpp"
#include "service/cache.hpp"
#include "service/persist.hpp"
#include "service/wire.hpp"

namespace dsp::service {

struct DaemonOptions {
  ServeParams serve;  ///< shim, see ServeEngine (service/cache.hpp)
  CacheOptions cache;
  /// Loopback TCP port; 0 = kernel-assigned (read it back via port()).
  std::uint16_t port = 0;
  /// Concurrent solves admitted (0 = hardware threads).
  std::size_t max_concurrent = 0;
  /// Requests allowed to queue for a solve slot before new ones shed.
  std::size_t max_queue = 64;
  /// State directory for cache persistence; empty = in-memory only.
  std::string persist_dir;
};

/// The daemon's own lifetime counters (Daemon::stats()); the registry
/// source exports the same values as the `daemon.*` samples.
struct DaemonStats {
  std::uint64_t accepted = 0;     ///< connections accepted
  std::uint64_t requests = 0;     ///< frames received
  std::uint64_t served = 0;       ///< solve_ok responses
  std::uint64_t shed = 0;         ///< busy responses (queue full or draining)
  std::uint64_t errors = 0;       ///< error responses
  std::uint64_t warm_loaded = 0;  ///< entries restored from disk at boot
  bool draining = false;
};

class Daemon {
 public:
  /// Binds and listens on loopback:port and warm-loads the persistent
  /// store (when configured) — throws InvalidInput on a bad configuration
  /// or a corrupt store.  Serving starts with start().
  explicit Daemon(const DaemonOptions& options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The bound port (the kernel's pick when options.port was 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Spawns the accept loop.  Call once.
  void start();

  /// Graceful drain, idempotent: stop accepting, reject new admissions,
  /// finish and answer in-flight and queued solves, join every connection,
  /// then compact the persistent store.  Blocks until drained.
  void stop();

  [[nodiscard]] DaemonStats stats() const;
  [[nodiscard]] CachingSolver& solver() { return solver_; }
  [[nodiscard]] const DaemonOptions& options() const { return options_; }

 private:
  void accept_loop();
  void serve_connection(int fd);
  /// Handles one request frame; returns false when the connection must
  /// close (protocol violation or write failure).
  [[nodiscard]] bool handle_frame(int fd, std::uint8_t type,
                                  std::string payload);
  /// Closes the listen socket and the stop pipe (idempotent).
  void close_fds();

  DaemonOptions options_;
  CachingSolver solver_;
  std::optional<PersistentStore> store_;
  runtime::AdmissionGate gate_;

  int listen_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;

  /// One connection thread; `done` is its last write, so a set flag means
  /// join() returns at once.
  struct Connection {
    std::atomic<bool> done{false};
    std::thread thread;
  };

  std::thread accept_thread_;
  runtime::Mutex connections_mutex_;
  /// Unjoined connection threads (node-stable: each thread holds its own
  /// entry's `done`).  accept_loop reaps the finished ones on every accept.
  std::list<Connection> connections_ DSP_GUARDED_BY(connections_mutex_);

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::uint64_t warm_loaded_ = 0;
  /// Registry pull-source exporting daemon.* / admission.* / persist.*
  /// samples plus the process-wide trace.* ones.
  /// Declared last: it captures `this` and reads the members above, so it
  /// must unregister before any of them is torn down.
  obs::Registry::Source obs_source_;
};

/// One blocking client connection to a dsp_served daemon.  Not thread-safe
/// (one connection per thread, like the daemon expects).
class DaemonClient {
 public:
  /// Connects to host:port, retrying refused connections until
  /// `connect_timeout_ms` elapses (covers the daemon-still-booting race).
  /// `host` is a numeric IPv4 address.  A whole reply must arrive within
  /// `reply_timeout_ms` (> 0) of the request, so a stalled daemon, or one
  /// that trickles bytes, makes a request throw InvalidInput ("no reply
  /// within ...") instead of hanging.
  explicit DaemonClient(std::uint16_t port,
                        const std::string& host = "127.0.0.1",
                        int connect_timeout_ms = 5000,
                        int reply_timeout_ms = 60000);
  ~DaemonClient();

  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  struct SolveReply {
    enum class Status {
      kOk,    ///< response holds the answer
      kBusy,  ///< shed by admission control / draining; message = reason
      kError, ///< daemon-side failure; message = diagnostic
    };
    Status status = Status::kOk;
    SolveResponse response;
    std::string message;
  };

  /// Sends one solve request (the instance travels as `format`) and waits
  /// for the reply.  Throws InvalidInput on a protocol or connection error,
  /// or when the reply timeout expires.
  [[nodiscard]] SolveReply try_solve(const WireInstance& instance,
                                     WireFormat format = WireFormat::kBinary);

  /// try_solve that throws InvalidInput on busy/error replies.
  [[nodiscard]] SolveResponse solve(const WireInstance& instance,
                                    WireFormat format = WireFormat::kBinary);

  /// Fetches the daemon's metrics exposition (Prometheus-style text) via a
  /// metrics frame — the daemon's one stats surface; read values out of it
  /// with obs::exposition_sample.  Throws InvalidInput on protocol errors,
  /// including a daemon answering with an unknown exposition version.
  [[nodiscard]] std::string metrics();

 private:
  void send_frame(std::uint8_t type, const std::string& payload);
  [[nodiscard]] std::pair<std::uint8_t, std::string> read_frame();

  int fd_ = -1;
  std::string peer_;  ///< "host:port", for error messages
  int reply_timeout_ms_ = 0;  ///< whole-reply wait, one deadline per reply
  /// The socket's SO_RCVTIMEO in ms (0 = not yet set); read_frame re-arms
  /// it only when what is left of a reply's deadline differs.
  std::int64_t armed_timeout_ms_ = 0;
};

}  // namespace dsp::service
