#pragma once

// The serving layer's instance wire format (DESIGN.md, "The serving layer").
//
// Two encodings of the instance record, both versioned and round-trip exact
// (`load(save(x)) == x`, bit-identical fields):
//
//  * binary — magic "DSPW", a version byte, a record tag, then fixed-width
//    little-endian integers and length-prefixed strings.  The canonical
//    at-rest format: compact, offset-addressable, endian-stable.
//  * JSON  — one object with a `"dsp"` record-type key.  The text format
//    for corpora checked into review and for hand-written requests.
//
// `load_*` auto-detects the encoding (binary magic vs. leading '{') and
// validates on ingest: structurally broken bytes and semantically invalid
// instances throw InvalidInput naming the source, the offending item index,
// and the byte offset of the offending record.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"

namespace dsp::service {

/// Version byte written after the magic (binary) / as `"version"` (JSON).
/// Bump on any layout change; loaders reject versions they do not know.
inline constexpr std::uint8_t kWireVersion = 1;

enum class WireFormat {
  kBinary,
  kJson,
};

[[nodiscard]] std::string_view to_string(WireFormat format);

/// Largest strip width an instance record may declare (2^20).  Served
/// solves place on O(n) runs, but a loaded record may still reach code
/// that allocates per column: `LoadProfile` (core/packing.hpp; scoring,
/// validation and rendering) and the exact solver's column loads.  2^20
/// holds a week at one-second resolution and bounds one such array of
/// 64-bit loads to 8 MiB.
inline constexpr Length kMaxStripWidth = Length{1} << 20;

/// Most items an instance record may declare (2^14).  Placement is still
/// quadratic in n, so the cap bounds a request's solve time (DESIGN.md,
/// "The serving layer", states the measured bound).  The binary decoder
/// refuses a larger declared count before reserving anything; the JSON
/// parser stops at the first item past the cap.
inline constexpr std::size_t kMaxItems = std::size_t{1} << 14;

/// Largest W·Σh (strip width times total item height) an instance record
/// may declare (2^62).  Every load, area and lower bound is at most W·Σh,
/// and solve54's budget (5/4 + eps)·H' at most 7/4·W·Σh (eps <= 1/2), so
/// the cap keeps all of them inside int64; no sum past the budget is
/// formed.  Past the cap a peak could wrap below its own lower bound.
inline constexpr Height kMaxStripArea = Height{1} << 62;

/// One item as it travels on the wire: the geometric payload plus the
/// caller-facing identity (`id`, unique per instance) and a free-form
/// `label`.  Ids and labels survive save/load but are deliberately NOT part
/// of the canonical form — see canonical.hpp.
struct WireItem {
  std::int64_t id = 0;
  Length width = 0;
  Height height = 0;
  std::string label;

  [[nodiscard]] bool operator==(const WireItem&) const = default;
};

/// A DSP request as it travels on the wire.  Unlike core `Instance` this is
/// a plain record: it can hold invalid data after construction, and
/// `load_instance` is the single place that validates it on ingest.
struct WireInstance {
  std::string name;
  Length strip_width = 0;
  std::vector<WireItem> items;

  [[nodiscard]] bool operator==(const WireInstance&) const = default;

  /// The core instance with items in wire order.  Throws InvalidInput on
  /// invalid geometry (the same checks the Instance constructor makes).
  [[nodiscard]] Instance to_instance() const;

  /// Wraps a core instance: ids are the item indices, labels empty.
  [[nodiscard]] static WireInstance from_instance(const Instance& instance,
                                                  std::string name = "");
};

// ---------------------------------------------------------------------------
// Instance records.
// ---------------------------------------------------------------------------

void save_instance(std::ostream& os, const WireInstance& instance,
                   WireFormat format);

/// Parses (auto-detecting the encoding) and validates: rejects a missing or
/// unknown version, more than kMaxItems items, W > kMaxStripWidth,
/// nonpositive width/height, width > W, W·Σh > kMaxStripArea, duplicate
/// ids, and the empty instance.  Every error message names `source`, and a
/// per-item error also the offending item index and the byte offset of the
/// offending record.
[[nodiscard]] WireInstance load_instance(
    std::istream& is, const std::string& source = "<stream>");

void save_instance_file(const std::string& path, const WireInstance& instance,
                        WireFormat format);
[[nodiscard]] WireInstance load_instance_file(const std::string& path);

}  // namespace dsp::service
