#pragma once

// The DSPW binary primitives, shared by every serving-layer encoder: the
// wire records (wire.cpp), the at-rest cache persistence (persist.cpp) and
// the daemon's frame payloads (daemon.cpp) all speak the same vocabulary —
// fixed-width little-endian integers and length-prefixed strings.
//
// BinaryWriter appends to a growing buffer; BinaryReader walks a fully
// slurped buffer and reports the byte offset of every failure as an
// InvalidInput naming the source.  Record-level framing (magic, version,
// tags) stays with each format's own codec — these classes are the
// primitives underneath.

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

#include "util/check.hpp"

namespace dsp::service::detail {

class BinaryWriter {
 public:
  void u8(std::uint8_t value) { out_.push_back(static_cast<char>(value)); }
  void u32(std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      out_.push_back(static_cast<char>((value >> shift) & 0xff));
    }
  }
  void u64(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      out_.push_back(static_cast<char>((value >> shift) & 0xff));
    }
  }
  void i64(std::int64_t value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void str(const std::string& value) {
    DSP_REQUIRE(value.size() <= std::numeric_limits<std::uint32_t>::max(),
                "wire string too long: " << value.size() << " bytes");
    u32(static_cast<std::uint32_t>(value.size()));
    out_.append(value);
  }
  /// Appends raw bytes verbatim (record magics, nested records).
  void raw(std::string_view bytes) { out_.append(bytes); }

  [[nodiscard]] const std::string& bytes() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class BinaryReader {
 public:
  BinaryReader(std::string bytes, std::string source)
      : bytes_(std::move(bytes)), source_(std::move(source)) {}

  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] std::size_t remaining() const {
    return bytes_.size() - offset_;
  }
  [[nodiscard]] const std::string& source() const { return source_; }

  [[noreturn]] void fail(const std::string& what,
                         std::size_t at_offset) const {
    throw InvalidInput(source_ + ": " + what + " (offset " +
                       std::to_string(at_offset) + ")");
  }
  [[noreturn]] void fail(const std::string& what) const { fail(what, offset_); }

  std::uint8_t u8() {
    need(1, "u8");
    return static_cast<std::uint8_t>(bytes_[offset_++]);
  }
  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t value = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      value |= static_cast<std::uint32_t>(
                   static_cast<std::uint8_t>(bytes_[offset_++]))
               << shift;
    }
    return value;
  }
  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      value |= static_cast<std::uint64_t>(
                   static_cast<std::uint8_t>(bytes_[offset_++]))
               << shift;
    }
    return value;
  }
  std::int64_t i64() { return std::bit_cast<std::int64_t>(u64()); }
  std::string str() {
    const std::uint32_t length = u32();
    need(length, "string body");
    std::string value = bytes_.substr(offset_, length);
    offset_ += length;
    return value;
  }
  /// Consumes `count` raw bytes (record magics, nested records).  The view
  /// aliases the reader's buffer.
  std::string_view raw(std::size_t count, const char* what) {
    need(count, what);
    const std::string_view view(bytes_.data() + offset_, count);
    offset_ += count;
    return view;
  }
  /// Checked element count for a following array of `element_bytes`-sized
  /// records: a corrupt huge count fails here instead of as a bad_alloc.
  std::size_t count(std::size_t element_bytes) {
    const std::size_t at = offset_;
    const std::uint64_t value = u64();
    if (element_bytes > 0 &&
        value > (bytes_.size() - offset_) / element_bytes) {
      fail("element count " + std::to_string(value) +
               " exceeds the remaining payload",
           at);
    }
    return static_cast<std::size_t>(value);
  }
  void done() {
    if (offset_ != bytes_.size()) {
      fail(std::to_string(bytes_.size() - offset_) +
           " trailing bytes after the record");
    }
  }

 private:
  void need(std::size_t count, const char* what) {
    if (bytes_.size() - offset_ < count) {
      fail(std::string("truncated record while reading ") + what);
    }
  }

  std::string bytes_;
  std::string source_;
  std::size_t offset_ = 0;
};

}  // namespace dsp::service::detail
