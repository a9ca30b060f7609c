#include "spans.hpp"

#include <fstream>
#include <utility>

namespace e2e {

namespace {

/// Integer nanoseconds as fixed-point microseconds ("12.345").
[[nodiscard]] std::string micros(std::int64_t nanos) {
  std::string digits = std::to_string(nanos / 1000);
  const std::string frac = std::to_string(1000 + nanos % 1000);
  return digits + "." + frac.substr(1);
}

}  // namespace

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + '"';
}

SpanRecorder::SpanRecorder(Clock::time_point epoch, int tid,
                           std::size_t capacity)
    : epoch_(epoch), tid_(tid), capacity_(capacity) {}

void SpanRecorder::record(std::string name, const char* layer,
                          std::uint64_t request_id, Clock::time_point start,
                          Clock::time_point end) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  const auto ns = [](Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  };
  events_.push_back(SpanEvent{std::move(name), layer, request_id,
                              ns(start - epoch_), ns(end - start)});
}

Span::Span(SpanRecorder* recorder, std::string name, const char* layer,
           std::uint64_t request_id)
    : recorder_(recorder),
      name_(std::move(name)),
      layer_(layer),
      request_id_(request_id),
      start_(Clock::now()) {}

Span::~Span() { (void)close(); }

double Span::close() {
  if (seconds_ >= 0.0) return seconds_;
  const Clock::time_point end = Clock::now();
  seconds_ = seconds_between(start_, end);
  if (recorder_ != nullptr) {
    recorder_->record(std::move(name_), layer_, request_id_, start_, end);
  }
  return seconds_;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<const SpanRecorder*>& recorders) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecorder* recorder : recorders) {
    for (const SpanEvent& event : recorder->events()) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\":" << json_string(event.name)
          << ",\"cat\":" << json_string(event.layer) << ",\"ph\":\"X\",\"ts\":"
          << micros(event.start_ns) << ",\"dur\":" << micros(event.duration_ns)
          << ",\"pid\":1,\"tid\":" << recorder->tid()
          << ",\"args\":{\"request_id\":" << event.request_id << "}}";
    }
  }
  out << "\n]}\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace e2e
