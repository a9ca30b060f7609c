#include "service/frame_codec.hpp"

#include <utility>

#include "service/binary_codec.hpp"

namespace dsp::service::frame {

Header parse_header(const char* bytes) {
  Header header;
  for (std::size_t i = 0; i < 4; ++i) {
    header.length |= static_cast<std::uint32_t>(
                         static_cast<std::uint8_t>(bytes[i]))
                     << (8 * i);
  }
  header.type = static_cast<std::uint8_t>(bytes[4]);
  return header;
}

std::string encode_frame(std::uint8_t type, const std::string& payload) {
  detail::BinaryWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u8(type);
  frame.raw(payload);
  return frame.take();
}

std::string encode_message(const std::string& message) {
  detail::BinaryWriter payload;
  payload.str(message);
  return payload.take();
}

std::string decode_message(std::string payload, const std::string& source) {
  detail::BinaryReader reader(std::move(payload), source);
  std::string message = reader.str();
  reader.done();
  return message;
}

std::string encode_solve_ok(const SolveResponse& response) {
  detail::BinaryWriter payload;
  payload.u8(static_cast<std::uint8_t>(response.outcome));
  payload.i64(response.peak);
  payload.str(response.winner);
  payload.u64(response.packing.start.size());
  for (const Length start : response.packing.start) payload.i64(start);
  return payload.take();
}

SolveResponse decode_solve_ok(std::string payload, const std::string& source) {
  detail::BinaryReader reader(std::move(payload), source);
  SolveResponse response;
  const std::uint8_t outcome = reader.u8();
  if (outcome > static_cast<std::uint8_t>(CacheOutcome::kJoined)) {
    reader.fail("bad cache-outcome byte " + std::to_string(outcome), 0);
  }
  response.outcome = static_cast<CacheOutcome>(outcome);
  response.peak = reader.i64();
  response.winner = reader.str();
  const std::size_t count = reader.count(8);
  response.packing.start.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    response.packing.start.push_back(reader.i64());
  }
  reader.done();
  return response;
}

std::string encode_metrics(const std::string& exposition) {
  detail::BinaryWriter payload;
  payload.u8(kMetricsVersion);
  payload.str(exposition);
  return payload.take();
}

std::string decode_metrics(std::string payload, const std::string& source) {
  detail::BinaryReader reader(std::move(payload), source);
  const std::uint8_t version = reader.u8();
  if (version != kMetricsVersion) {
    reader.fail("metrics payload version " + std::to_string(version) +
                    ", expected " + std::to_string(kMetricsVersion),
                0);
  }
  std::string exposition = reader.str();
  reader.done();
  return exposition;
}

}  // namespace dsp::service::frame
