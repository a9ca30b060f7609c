// libFuzzer harness for the dsp_served frame layer (DESIGN.md, "Static
// analysis" → fuzzing).
//
// Drives the exact production codecs in service/frame_codec.hpp — the
// header parser plus every payload decoder a daemon or client can be
// handed over the socket.  The input is interpreted as one frame: the
// first kHeaderSize bytes are the header, the rest the payload, and the
// header's type byte picks the decoder, so the fuzzer explores each
// decoder's full byte space as well as oversized/truncated length
// prefixes.  InvalidInput is the documented rejection; anything else is a
// finding.
//
// Accepted payloads are re-encoded and compared to prove decode/encode
// round-trip identity (the daemon relies on it when it relays cached
// responses), and a metrics_ok exposition is also read with
// obs::exposition_sample, the text parser client mode runs on it.
//
// Build with -DDSP_FUZZ=ON; see fuzz_load_instance.cpp for the
// libFuzzer-vs-standalone-driver split.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "service/frame_codec.hpp"
#include "service/wire.hpp"
#include "util/check.hpp"

namespace {

namespace frame = dsp::service::frame;

/// The samples dsp_served's client mode reads from a daemon's exposition.
constexpr const char* kClientSamples[] = {
    "cache.capacity_bytes", "cache.hits",      "cache.misses",
    "cache.inflight_joins", "cache.evictions", "cache.entries",
};

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_daemon_frame: %s\n", what);
    std::abort();
  }
}

// Requests and responses are separate numbering spaces (direction
// disambiguates on a real socket), so one type byte can name a decoder on
// each side — e.g. 1 is both kSolve and kSolveOk.  The harness drives
// every decoder the byte maps to in either direction, each under its own
// InvalidInput net so a rejection by one does not mask a crash in another.
void decode_payload(std::uint8_t type, const std::string& payload) {
  if (type == frame::kSolve) {
    // A solve request payload is one wire instance (either encoding) —
    // the same surface fuzz_load_instance covers, kept here so the frame
    // fuzzer exercises the daemon's actual dispatch.
    try {
      std::istringstream is(payload);
      (void)dsp::service::load_instance(is, "fuzz solve payload");
    } catch (const dsp::InvalidInput&) {
    }
  }
  if (type == frame::kSolveOk) {
    try {
      const dsp::service::SolveResponse response =
          frame::decode_solve_ok(payload, "fuzz solve_ok payload");
      expect(frame::encode_solve_ok(response) == payload,
             "solve_ok decode/encode round-trip mismatch");
    } catch (const dsp::InvalidInput&) {
    }
  }
  if (type == frame::kMetricsOk) {
    try {
      const std::string exposition =
          frame::decode_metrics(payload, "fuzz metrics_ok payload");
      expect(frame::encode_metrics(exposition) == payload,
             "metrics_ok decode/encode round-trip mismatch");
      // The exposition text is network input too: client mode parses
      // these samples out of it.  Each read gets its own net, so one
      // malformed line does not hide a crash on another name.
      for (const char* name : kClientSamples) {
        try {
          (void)dsp::obs::exposition_sample(exposition, name);
        } catch (const dsp::InvalidInput&) {
        }
      }
    } catch (const dsp::InvalidInput&) {
    }
  }
  // kMetrics (request) carries an empty payload — there is no decoder to
  // drive; the daemon ignores whatever bytes arrive with it.
  if (type == frame::kError || type == frame::kBusy) {
    try {
      const std::string message =
          frame::decode_message(payload, "fuzz message payload");
      expect(frame::encode_message(message) == payload,
             "message decode/encode round-trip mismatch");
    } catch (const dsp::InvalidInput&) {
    }
  }
  // Any other type: the daemon answers with an error frame and closes —
  // there is no decoder to drive.
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < frame::kHeaderSize) return 0;
  const frame::Header header =
      frame::parse_header(reinterpret_cast<const char*>(data));
  if (header.length > frame::kMaxPayload) return 0;  // answered + closed
  // Serve whatever payload bytes follow, exactly as the connection loop
  // would after recv'ing min(header.length, what arrived).
  std::string payload(reinterpret_cast<const char*>(data) + frame::kHeaderSize,
                      size - frame::kHeaderSize);
  if (payload.size() > header.length) payload.resize(header.length);
  decode_payload(header.type, payload);
  return 0;
}
