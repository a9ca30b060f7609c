#include "service/wire.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "service/binary_codec.hpp"
#include "util/check.hpp"

namespace dsp::service {

namespace {

constexpr std::array<char, 4> kMagic = {'D', 'S', 'P', 'W'};

/// Record tags 2 and 3 (the packing and Approx54Report records) are retired
/// and never reused: a peer still sending one gets a tag error instead of a
/// misread.
enum class RecordTag : std::uint8_t {
  kInstance = 1,
};

// ---------------------------------------------------------------------------
// Binary encoding: the shared DSPW primitives (binary_codec.hpp) plus the
// record framing — magic, version byte, record tag — that is specific to
// the wire records.
// ---------------------------------------------------------------------------

class BinaryWriter : public detail::BinaryWriter {
 public:
  void header() {
    raw(std::string_view(kMagic.data(), kMagic.size()));
    u8(kWireVersion);
    u8(static_cast<std::uint8_t>(RecordTag::kInstance));
  }
};

class BinaryReader : public detail::BinaryReader {
 public:
  using detail::BinaryReader::BinaryReader;

  void header() {
    const std::string_view magic = raw(kMagic.size(), "magic");
    if (std::memcmp(magic.data(), kMagic.data(), kMagic.size()) != 0) {
      fail("bad magic (not a DSPW binary record)", 0);
    }
    const std::uint8_t version = u8();
    if (version != kWireVersion) {
      fail("unsupported wire version " + std::to_string(version) +
               " (this build reads version " + std::to_string(kWireVersion) +
               ")",
           offset() - 1);
    }
    const std::uint8_t tag = u8();
    if (tag != static_cast<std::uint8_t>(RecordTag::kInstance)) {
      fail("record tag " + std::to_string(tag) + " is not an instance record",
           offset() - 1);
    }
  }
};

// ---------------------------------------------------------------------------
// JSON encoding.  The writer emits a compact object (instances put one item
// per line so corpus diffs stay reviewable); the parser is a minimal
// recursive-descent reader for exactly the grammar the writer uses —
// objects, arrays, strings and 64-bit integers — tracking byte
// offsets for error messages.
// ---------------------------------------------------------------------------

void write_json_string(std::ostream& os, const std::string& value) {
  os << '"';
  for (const char c : value) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          os << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

class JsonParser {
 public:
  JsonParser(std::string text, std::string source)
      : text_(std::move(text)), source_(std::move(source)) {}

  [[noreturn]] void fail(const std::string& what,
                         std::size_t at_offset) const {
    throw InvalidInput(source_ + ": " + what + " (offset " +
                       std::to_string(at_offset) + ")");
  }
  [[noreturn]] void fail(const std::string& what) const { fail(what, offset_); }

  void skip_ws() {
    while (offset_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[offset_]))) {
      ++offset_;
    }
  }
  [[nodiscard]] std::size_t offset_after_ws() {
    skip_ws();
    return offset_;
  }
  [[nodiscard]] char peek() {
    skip_ws();
    if (offset_ >= text_.size()) fail("unexpected end of input");
    return text_[offset_];
  }
  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[offset_] + "'");
    }
    ++offset_;
  }
  /// True (and consumes) if the next token is `c`.
  bool accept(char c) {
    if (offset_ < text_.size() && peek() == c) {
      ++offset_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::string parse_string() {
    expect('"');
    std::string value;
    while (true) {
      if (offset_ >= text_.size()) fail("unterminated string");
      const char c = text_[offset_++];
      if (c == '"') return value;
      if (c != '\\') {
        value.push_back(c);
        continue;
      }
      if (offset_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[offset_++];
      switch (escape) {
        case '"': value.push_back('"'); break;
        case '\\': value.push_back('\\'); break;
        case '/': value.push_back('/'); break;
        case 'b': value.push_back('\b'); break;
        case 'f': value.push_back('\f'); break;
        case 'n': value.push_back('\n'); break;
        case 'r': value.push_back('\r'); break;
        case 't': value.push_back('\t'); break;
        case 'u': {
          if (text_.size() - offset_ < 4) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[offset_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit", offset_ - 1);
          }
          if (code > 0x7f) {
            fail("\\u escapes above 0x7f are not supported by this reader",
                 offset_ - 6);
          }
          value.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape", offset_ - 1);
      }
    }
  }

  [[nodiscard]] std::int64_t parse_int() {
    skip_ws();
    const std::size_t start = offset_;
    const bool negative = accept_raw('-');
    if (offset_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[offset_]))) {
      fail("expected an integer", start);
    }
    std::uint64_t magnitude = 0;
    const std::uint64_t limit =
        negative ? (std::uint64_t{1} << 63)
                 : static_cast<std::uint64_t>(
                       std::numeric_limits<std::int64_t>::max());
    while (offset_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[offset_]))) {
      const auto digit =
          static_cast<std::uint64_t>(text_[offset_] - '0');
      if (magnitude > (limit - digit) / 10) {
        fail("integer does not fit in 64 bits", start);
      }
      magnitude = magnitude * 10 + digit;
      ++offset_;
    }
    if (negative) {
      return magnitude == (std::uint64_t{1} << 63)
                 ? std::numeric_limits<std::int64_t>::min()
                 : -static_cast<std::int64_t>(magnitude);
    }
    return static_cast<std::int64_t>(magnitude);
  }

  void done() {
    skip_ws();
    if (offset_ != text_.size()) fail("trailing content after the record");
  }

  /// Drives `{ "key": <value read by on_key> , ... }`.  `on_key` must
  /// consume exactly one value; unknown keys fail.
  template <typename OnKey>
  void parse_object(OnKey&& on_key) {
    expect('{');
    if (accept('}')) return;
    while (true) {
      const std::size_t key_offset = offset_after_ws();
      const std::string key = parse_string();
      expect(':');
      on_key(key, key_offset);
      if (accept(',')) continue;
      expect('}');
      return;
    }
  }

  /// Drives `[ <element read by on_element> , ... ]`.
  template <typename OnElement>
  void parse_array(OnElement&& on_element) {
    expect('[');
    if (accept(']')) return;
    std::size_t index = 0;
    while (true) {
      on_element(index++, offset_after_ws());
      if (accept(',')) continue;
      expect(']');
      return;
    }
  }

 private:
  bool accept_raw(char c) {
    if (offset_ < text_.size() && text_[offset_] == c) {
      ++offset_;
      return true;
    }
    return false;
  }

  std::string text_;
  std::string source_;
  std::size_t offset_ = 0;
};

/// Checks the `"dsp"` / `"version"` envelope values every JSON record
/// carries, as collected by the key loop.
void check_json_envelope(const JsonParser& parser,
                         const std::string& record_type, bool saw_type,
                         std::int64_t version, bool saw_version) {
  if (!saw_type) parser.fail("missing \"dsp\" record-type key", 0);
  if (record_type != "instance") {
    parser.fail("record type \"" + record_type + "\" is not an instance record",
                0);
  }
  if (!saw_version) parser.fail("missing \"version\" key", 0);
  if (version != kWireVersion) {
    parser.fail("unsupported wire version " + std::to_string(version) +
                    " (this build reads version " +
                    std::to_string(kWireVersion) + ")",
                0);
  }
}

// ---------------------------------------------------------------------------
// Ingest validation, shared by both decoders.  `item_offsets[i]` is the byte
// offset where item i's record starts in the parsed input.
// ---------------------------------------------------------------------------

void validate_wire_instance(const WireInstance& instance,
                            const std::vector<std::size_t>& item_offsets,
                            const std::string& source) {
  const auto reject = [&](std::size_t index, const std::string& what) {
    std::ostringstream oss;
    oss << source << ": item " << index << " (id "
        << instance.items[index].id << ", offset " << item_offsets[index]
        << "): " << what;
    throw InvalidInput(oss.str());
  };
  DSP_REQUIRE(!instance.items.empty(),
              source << ": instance has no items (empty instances are not "
                        "servable)");
  DSP_REQUIRE(instance.strip_width >= 1,
              source << ": strip width " << instance.strip_width
                     << " must be >= 1");
  DSP_REQUIRE(instance.strip_width <= kMaxStripWidth,
              source << ": strip width " << instance.strip_width
                     << " exceeds the cap " << kMaxStripWidth
                     << " (profiles are O(W) memory)");
  std::unordered_map<std::int64_t, std::size_t> first_index;
  for (std::size_t i = 0; i < instance.items.size(); ++i) {
    const WireItem& item = instance.items[i];
    if (item.width < 1) {
      reject(i, "width " + std::to_string(item.width) + " is not positive");
    }
    if (item.height < 1) {
      reject(i, "height " + std::to_string(item.height) + " is not positive");
    }
    if (item.width > instance.strip_width) {
      reject(i, "width " + std::to_string(item.width) +
                    " exceeds the strip width " +
                    std::to_string(instance.strip_width));
    }
    const auto [it, inserted] = first_index.emplace(item.id, i);
    if (!inserted) {
      reject(i, "duplicate id (first used by item " +
                    std::to_string(it->second) + ")");
    }
  }
  // W·Σh <= kMaxStripArea, checked as Σh <= kMaxStripArea / W so nothing
  // overflows: the running sum stops at the first item past the cap, and
  // one height (< 2^63) on top of a sum <= 2^62 still fits in a uint64.
  const auto height_cap =
      static_cast<std::uint64_t>(kMaxStripArea / instance.strip_width);
  std::uint64_t total_height = 0;
  for (const WireItem& item : instance.items) {
    total_height += static_cast<std::uint64_t>(item.height);
    if (total_height > height_cap) break;
  }
  DSP_REQUIRE(total_height <= height_cap,
              source << ": total item height reaches " << total_height
                     << ", so strip width " << instance.strip_width
                     << " x total height exceeds the cap " << kMaxStripArea
                     << " (loads must fit in 64 bits)");
}

[[nodiscard]] std::string slurp(std::istream& is, const std::string& source) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  DSP_REQUIRE(!is.bad(), source << ": stream read failed");
  return std::move(buffer).str();
}

[[nodiscard]] bool looks_binary(const std::string& bytes) {
  return bytes.size() >= kMagic.size() &&
         std::memcmp(bytes.data(), kMagic.data(), kMagic.size()) == 0;
}

// ---------------------------------------------------------------------------
// Instance codec.
// ---------------------------------------------------------------------------

void save_instance_binary(std::ostream& os, const WireInstance& instance) {
  BinaryWriter writer;
  writer.header();
  writer.str(instance.name);
  writer.i64(instance.strip_width);
  writer.u64(instance.items.size());
  for (const WireItem& item : instance.items) {
    writer.i64(item.id);
    writer.i64(item.width);
    writer.i64(item.height);
    writer.str(item.label);
  }
  os << writer.bytes();
}

void save_instance_json(std::ostream& os, const WireInstance& instance) {
  os << "{\"dsp\":\"instance\",\"version\":" << int{kWireVersion}
     << ",\"name\":";
  write_json_string(os, instance.name);
  os << ",\"strip_width\":" << instance.strip_width << ",\"items\":[";
  for (std::size_t i = 0; i < instance.items.size(); ++i) {
    const WireItem& item = instance.items[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"id\":" << item.id
       << ",\"width\":" << item.width << ",\"height\":" << item.height;
    if (!item.label.empty()) {
      os << ",\"label\":";
      write_json_string(os, item.label);
    }
    os << '}';
  }
  os << "\n]}\n";
}

[[nodiscard]] WireInstance load_instance_binary(std::string bytes,
                                                const std::string& source) {
  BinaryReader reader(std::move(bytes), source);
  reader.header();
  WireInstance instance;
  instance.name = reader.str();
  instance.strip_width = reader.i64();
  // An item is at least 3 x i64 + one empty string length.
  const std::size_t count_offset = reader.offset();
  const std::size_t count = reader.count(3 * 8 + 4);
  if (count > kMaxItems) {
    reader.fail("item count " + std::to_string(count) + " exceeds the cap " +
                    std::to_string(kMaxItems),
                count_offset);
  }
  std::vector<std::size_t> item_offsets;
  item_offsets.reserve(count);
  instance.items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    item_offsets.push_back(reader.offset());
    WireItem item;
    item.id = reader.i64();
    item.width = reader.i64();
    item.height = reader.i64();
    item.label = reader.str();
    instance.items.push_back(std::move(item));
  }
  reader.done();
  validate_wire_instance(instance, item_offsets, source);
  return instance;
}

[[nodiscard]] WireInstance load_instance_json(std::string text,
                                              const std::string& source) {
  JsonParser parser(std::move(text), source);
  WireInstance instance;
  std::vector<std::size_t> item_offsets;
  std::string record_type;
  std::int64_t version = -1;
  bool saw_type = false, saw_version = false, saw_items = false,
       saw_width = false;
  parser.parse_object([&](const std::string& key, std::size_t key_offset) {
    if (key == "dsp") {
      record_type = parser.parse_string();
      saw_type = true;
    } else if (key == "version") {
      version = parser.parse_int();
      saw_version = true;
    } else if (key == "name") {
      instance.name = parser.parse_string();
    } else if (key == "strip_width") {
      instance.strip_width = parser.parse_int();
      saw_width = true;
    } else if (key == "items") {
      saw_items = true;
      parser.parse_array([&](std::size_t index, std::size_t element_offset) {
        if (index >= kMaxItems) {
          parser.fail("item count reaches " + std::to_string(index + 1) +
                          ", past the cap " + std::to_string(kMaxItems),
                      element_offset);
        }
        item_offsets.push_back(element_offset);
        WireItem item;
        bool saw_id = false, saw_w = false, saw_h = false;
        parser.parse_object([&](const std::string& item_key,
                                std::size_t item_key_offset) {
          if (item_key == "id") {
            item.id = parser.parse_int();
            saw_id = true;
          } else if (item_key == "width") {
            item.width = parser.parse_int();
            saw_w = true;
          } else if (item_key == "height") {
            item.height = parser.parse_int();
            saw_h = true;
          } else if (item_key == "label") {
            item.label = parser.parse_string();
          } else {
            parser.fail("unknown item key \"" + item_key + "\"",
                        item_key_offset);
          }
        });
        if (!saw_id || !saw_w || !saw_h) {
          parser.fail("item needs id, width and height", element_offset);
        }
        instance.items.push_back(std::move(item));
      });
    } else {
      parser.fail("unknown instance key \"" + key + "\"", key_offset);
    }
  });
  parser.done();
  check_json_envelope(parser, record_type, saw_type, version, saw_version);
  if (!saw_width) parser.fail("missing \"strip_width\" key", 0);
  if (!saw_items) parser.fail("missing \"items\" key", 0);
  validate_wire_instance(instance, item_offsets, source);
  return instance;
}

}  // namespace

std::string_view to_string(WireFormat format) {
  return format == WireFormat::kBinary ? "binary" : "json";
}

Instance WireInstance::to_instance() const {
  std::vector<Item> core_items;
  core_items.reserve(items.size());
  for (const WireItem& item : items) {
    core_items.push_back(Item{item.width, item.height});
  }
  return Instance(strip_width, std::move(core_items));
}

WireInstance WireInstance::from_instance(const Instance& instance,
                                         std::string name) {
  WireInstance wire;
  wire.name = std::move(name);
  wire.strip_width = instance.strip_width();
  wire.items.reserve(instance.size());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    wire.items.push_back(WireItem{static_cast<std::int64_t>(i),
                                  instance.item(i).width,
                                  instance.item(i).height, ""});
  }
  return wire;
}

void save_instance(std::ostream& os, const WireInstance& instance,
                   WireFormat format) {
  if (format == WireFormat::kBinary) save_instance_binary(os, instance);
  else save_instance_json(os, instance);
}

WireInstance load_instance(std::istream& is, const std::string& source) {
  std::string bytes = slurp(is, source);
  return looks_binary(bytes) ? load_instance_binary(std::move(bytes), source)
                             : load_instance_json(std::move(bytes), source);
}

void save_instance_file(const std::string& path, const WireInstance& instance,
                        WireFormat format) {
  std::ofstream os(path, std::ios::binary);
  DSP_REQUIRE(os.good(), path << ": cannot open for writing");
  save_instance(os, instance, format);
  os.flush();
  DSP_REQUIRE(os.good(), path << ": write failed");
}

WireInstance load_instance_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  DSP_REQUIRE(is.good(), path << ": cannot open for reading");
  return load_instance(is, path);
}

}  // namespace dsp::service
