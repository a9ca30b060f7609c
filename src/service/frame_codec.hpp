#pragma once

// The dsp_served frame vocabulary: frame-type bytes, the payload size cap,
// the 5-byte header codec, and the binary payload codecs for every
// request/response type (daemon.hpp documents the framing).
//
// Extracted from daemon.cpp so that (a) the daemon and DaemonClient share
// one codec instead of two hand-kept copies, and (b) the libFuzzer harness
// (fuzz/fuzz_daemon_frame.cpp) drives the exact production decoders rather
// than a reimplementation — a parser that only exists inside a connection
// loop cannot be fuzzed.

#include <cstddef>
#include <cstdint>
#include <string>

#include "service/cache.hpp"

namespace dsp::service {

struct DaemonStats {
  std::uint64_t accepted = 0;     ///< connections accepted
  std::uint64_t requests = 0;     ///< frames received
  std::uint64_t served = 0;       ///< solve_ok responses
  std::uint64_t shed = 0;         ///< busy responses (queue full or draining)
  std::uint64_t errors = 0;       ///< error responses
  std::uint64_t warm_loaded = 0;  ///< entries restored from disk at boot
  bool draining = false;
};

/// Scheduler visibility (DESIGN.md, "The work-stealing scheduler"):
/// process-wide counters from retired pools plus the live occupancy gauge.
struct SchedulerStats {
  std::uint64_t submitted = 0;    ///< tasks accepted across all pools
  std::uint64_t executed = 0;     ///< tasks completed
  std::uint64_t steals = 0;       ///< tasks migrated off their deque
  std::uint64_t steal_fails = 0;  ///< empty-victim probes
  std::uint64_t occupancy = 0;    ///< workers running a task right now
};

/// Observability roll-up carried on the stats frame: the request-phase
/// latency histogram boiled down to quantiles, plus tracer ring health.
/// Quantiles are log2-bucket upper bounds (obs/metrics.hpp), not exact
/// order statistics — coarse by design, deterministic to derive.
struct ObsStats {
  std::uint64_t request_count = 0;      ///< kRequest spans recorded
  std::uint64_t request_p50_nanos = 0;  ///< bucket-upper p50
  std::uint64_t request_p95_nanos = 0;
  std::uint64_t request_p99_nanos = 0;
  std::uint64_t spans_recorded = 0;  ///< tracer appends (all phases)
  std::uint64_t spans_dropped = 0;   ///< ring overwrites (capacity exceeded)
  bool tracing_enabled = false;
};

/// The counters record a stats frame carries (and the stats_ok payload
/// layout, field for field in this order, after the leading version byte).
struct WireStats {
  std::string engine;
  std::uint64_t capacity_bytes = 0;
  CacheStats cache;
  DaemonStats daemon;
  std::uint64_t persisted_appends = 0;
  std::uint64_t compactions = 0;
  SchedulerStats scheduler;
  ObsStats obs;
};

namespace frame {

// Frame types.  Requests and responses are separate numbering spaces —
// direction disambiguates.
inline constexpr std::uint8_t kSolve = 1;      // request
inline constexpr std::uint8_t kStats = 2;      // request
inline constexpr std::uint8_t kMetrics = 3;    // request (empty payload)
inline constexpr std::uint8_t kSolveOk = 1;    // response
inline constexpr std::uint8_t kError = 2;      // response
inline constexpr std::uint8_t kStatsOk = 3;    // response
inline constexpr std::uint8_t kBusy = 4;       // response
inline constexpr std::uint8_t kMetricsOk = 5;  // response

/// Leading version byte of the stats_ok payload.  v1 (the unversioned
/// layout) started with the engine-string length, so a versioned payload
/// read by a v1 client fails fast as a bogus string length, and any other
/// version read here fails with an explicit version mismatch — never a
/// silent misparse.  v3 dropped v2's four auto-tuner scheduler fields.
inline constexpr std::uint8_t kStatsVersion = 3;

/// Leading version byte of the metrics_ok payload (Prometheus-style text).
inline constexpr std::uint8_t kMetricsVersion = 1;

/// u32 payload length (LE) + u8 type.
inline constexpr std::size_t kHeaderSize = 5;

/// Largest payload either side accepts; a corrupt length prefix fails here
/// instead of as a multi-gigabyte allocation.
inline constexpr std::size_t kMaxPayload = 64ull << 20;

struct Header {
  std::uint32_t length = 0;
  std::uint8_t type = 0;
};

/// Decodes the 5 header bytes (never fails: any byte pattern is a header;
/// the length cap is the caller's check, so an oversized frame can be
/// answered before the connection closes).
[[nodiscard]] Header parse_header(const char* bytes);

/// One whole frame, header + payload, ready to write to a socket.
[[nodiscard]] std::string encode_frame(std::uint8_t type,
                                       const std::string& payload);

// Payload codecs.  Every decoder throws InvalidInput (naming `source` and
// the byte offset) on structurally broken bytes and rejects trailing bytes.
[[nodiscard]] std::string encode_message(const std::string& message);
[[nodiscard]] std::string decode_message(std::string payload,
                                         const std::string& source);
[[nodiscard]] std::string encode_solve_ok(const SolveResponse& response);
[[nodiscard]] SolveResponse decode_solve_ok(std::string payload,
                                            const std::string& source);
[[nodiscard]] std::string encode_stats(const WireStats& stats);
[[nodiscard]] WireStats decode_stats(std::string payload,
                                     const std::string& source);
/// metrics_ok payload: kMetricsVersion byte + the Prometheus-style text
/// exposition (obs::Registry::prometheus_text) as a length-prefixed string.
[[nodiscard]] std::string encode_metrics(const std::string& exposition);
[[nodiscard]] std::string decode_metrics(std::string payload,
                                         const std::string& source);

}  // namespace frame

}  // namespace dsp::service
