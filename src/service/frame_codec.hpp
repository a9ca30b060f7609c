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

namespace dsp::service::frame {

// Frame types.  Requests and responses are separate numbering spaces —
// direction disambiguates.  Retired numbers are never reused: request 2
// and response 3 were the stats/stats_ok pair, so a peer still sending
// request 2 gets an unknown-type error instead of a misread.
inline constexpr std::uint8_t kSolve = 1;      // request
inline constexpr std::uint8_t kMetrics = 3;    // request (empty payload)
inline constexpr std::uint8_t kSolveOk = 1;    // response
inline constexpr std::uint8_t kError = 2;      // response
inline constexpr std::uint8_t kBusy = 4;       // response
inline constexpr std::uint8_t kMetricsOk = 5;  // response

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
/// metrics_ok payload: kMetricsVersion byte + the Prometheus-style text
/// exposition (obs::Registry::prometheus_text) as a length-prefixed string.
[[nodiscard]] std::string encode_metrics(const std::string& exposition);
[[nodiscard]] std::string decode_metrics(std::string payload,
                                         const std::string& source);

}  // namespace dsp::service::frame
