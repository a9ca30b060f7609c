#pragma once

// Benchmark-side spans.  Each span wraps one call the benchmark makes into
// a layer's public function and carries the id of the request it belongs
// to.  Spans stay in memory until the run ends, then go out as one Chrome
// trace-event document (the format tools/check_trace.py validates).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point start,
                                            Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

struct SpanEvent {
  std::string name;
  const char* layer = "";
  std::uint64_t request_id = 0;
  std::int64_t start_ns = 0;  ///< since the recorder's epoch
  std::int64_t duration_ns = 0;
};

/// The spans of one driving thread (not thread-safe: one per thread).
/// Past `capacity` spans are counted as dropped instead of stored, so a
/// long traced run has bounded memory; timings still reach the caller.
class SpanRecorder {
 public:
  SpanRecorder(Clock::time_point epoch, int tid, std::size_t capacity);

  void record(std::string name, const char* layer, std::uint64_t request_id,
              Clock::time_point start, Clock::time_point end);

  [[nodiscard]] int tid() const { return tid_; }
  [[nodiscard]] const std::vector<SpanEvent>& events() const { return events_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  Clock::time_point epoch_;
  int tid_;
  std::size_t capacity_;
  std::vector<SpanEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// Times one scope.  close() ends the span, records it (when a recorder is
/// attached) and returns its length; the destructor closes an open span.
class Span {
 public:
  Span(SpanRecorder* recorder, std::string name, const char* layer,
       std::uint64_t request_id);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Seconds the span lasted (idempotent: later calls return the same).
  double close();

 private:
  SpanRecorder* recorder_;
  std::string name_;
  const char* layer_;
  std::uint64_t request_id_;
  Clock::time_point start_;
  double seconds_ = -1.0;
};

/// `text` as a JSON string literal (quotes and backslashes escaped, control
/// characters dropped).
[[nodiscard]] std::string json_string(const std::string& text);

/// Writes every recorder's spans as one Chrome trace-event JSON document.
/// Returns false when the file cannot be written.
[[nodiscard]] bool write_chrome_trace(
    const std::string& path, const std::vector<const SpanRecorder*>& recorders);

}  // namespace e2e
