// The serving layer's wire format and canonicalization: round-trip
// guarantees across every generator family, ingest validation with
// index/offset diagnostics, the canonical-hash invariants the solve
// cache's dedup correctness rests on, and the --engine flag parser.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "gen/corpus.hpp"
#include "gen/families.hpp"
#include "gen/gap.hpp"
#include "gen/hardness.hpp"
#include "gen/smart_grid.hpp"
#include "service/canonical.hpp"
#include "service/cli.hpp"
#include "service/wire.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace dsp::service {
namespace {

// ---------------------------------------------------------------------------
// Shared family list (mirrors tests/test_properties.cpp).
// ---------------------------------------------------------------------------

struct GenFamily {
  const char* name;
  Instance (*make)(Rng& rng);
};

void PrintTo(const GenFamily& family, std::ostream* os) { *os << family.name; }

Instance make_uniform(Rng& rng) { return gen::random_uniform(20, 32, 16, 8, rng); }
Instance make_tall(Rng& rng) { return gen::tall_items(16, 32, 12, rng); }
Instance make_wide(Rng& rng) { return gen::wide_items(14, 32, 6, rng); }
Instance make_equal_width(Rng& rng) {
  return gen::equal_width(18, 30, 5, 8, rng);
}
Instance make_correlated(Rng& rng) {
  return gen::correlated(18, 32, 16, 8, rng);
}
Instance make_perfect(Rng& rng) { return gen::perfect_packing(16, 24, 12, rng); }
Instance make_smart_grid(Rng& rng) { return gen::smart_grid(16, 96, rng); }
Instance make_gap(Rng& rng) {
  return gen::gap_instance_replicated(
      static_cast<std::size_t>(rng.uniform(1, 3)));
}
Instance make_hardness(Rng& rng) {
  return gen::planted_yes(2, 16, rng).instance;
}

const GenFamily kFamilies[] = {
    {"uniform", make_uniform},       {"tall", make_tall},
    {"wide", make_wide},             {"equal-width", make_equal_width},
    {"correlated", make_correlated}, {"perfect", make_perfect},
    {"smart-grid", make_smart_grid}, {"gap", make_gap},
    {"hardness", make_hardness},
};

/// A wire instance with non-trivial ids and labels, so round trips exercise
/// more than the from_instance defaults.
WireInstance decorated(const Instance& instance, const std::string& name) {
  WireInstance wire = WireInstance::from_instance(instance, name);
  for (std::size_t i = 0; i < wire.items.size(); ++i) {
    wire.items[i].id = static_cast<std::int64_t>(1000 + 7 * i);
    wire.items[i].label = "item-" + std::to_string(i);
  }
  return wire;
}

WireInstance save_load(const WireInstance& wire, WireFormat format) {
  std::ostringstream out;
  save_instance(out, wire, format);
  std::istringstream in(out.str());
  return load_instance(in, "<test>");
}

// ---------------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------------

class WireFamilyRoundTrip
    : public ::testing::TestWithParam<std::tuple<GenFamily, int>> {};

TEST_P(WireFamilyRoundTrip, BinaryAndJsonAreExact) {
  const auto& [family, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 55441 + 3);
  const Instance instance = family.make(rng);
  const WireInstance wire = decorated(instance, family.name);
  for (const WireFormat format : {WireFormat::kBinary, WireFormat::kJson}) {
    const WireInstance loaded = save_load(wire, format);
    EXPECT_EQ(loaded, wire) << family.name << " via " << to_string(format);
    // The core instance reconstructs bit-exactly too (same order).
    const Instance roundtripped = loaded.to_instance();
    ASSERT_EQ(roundtripped.size(), instance.size());
    EXPECT_EQ(roundtripped.strip_width(), instance.strip_width());
    for (std::size_t i = 0; i < instance.size(); ++i) {
      EXPECT_EQ(roundtripped.item(i), instance.item(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, WireFamilyRoundTrip,
    ::testing::Combine(::testing::ValuesIn(kFamilies), ::testing::Range(0, 3)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param).name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(WireInstanceTest, GoldenCorpusRoundTripsBothFormats) {
  for (const gen::GoldenInstance& golden : gen::golden_corpus()) {
    const WireInstance wire =
        WireInstance::from_instance(golden.instance, golden.name);
    EXPECT_EQ(save_load(wire, WireFormat::kBinary), wire) << golden.name;
    EXPECT_EQ(save_load(wire, WireFormat::kJson), wire) << golden.name;
  }
}

TEST(WireInstanceTest, JsonEscapesSurviveLabels) {
  Instance instance(10, {Item{3, 2}, Item{4, 1}});
  WireInstance wire = WireInstance::from_instance(instance, "esc\"ape\\name");
  wire.items[0].label = "tab\there \"quoted\" back\\slash";
  wire.items[1].label = std::string("nul-free ctrl:\x01", 15);
  EXPECT_EQ(save_load(wire, WireFormat::kJson), wire);
}

TEST(WireInstanceTest, LoadAutoDetectsFormat) {
  const WireInstance wire =
      decorated(Instance(12, {Item{2, 3}, Item{5, 1}}), "auto");
  for (const WireFormat format : {WireFormat::kBinary, WireFormat::kJson}) {
    std::ostringstream out;
    save_instance(out, wire, format);
    std::istringstream in(out.str());
    EXPECT_EQ(load_instance(in), wire) << to_string(format);
  }
}

TEST(WireInstanceTest, SavedGoldenCorpusMatchesCheckedInFiles) {
  // examples/instances/ is the golden corpus as `dsp_solve --emit-corpus`
  // writes it; the JSON encoding must reproduce those files byte for byte.
  for (const gen::GoldenInstance& golden : gen::golden_corpus()) {
    const std::string path = std::string(DSP_SOURCE_DIR) +
                             "/examples/instances/" + golden.name + ".json";
    std::ifstream file(path, std::ios::binary);
    ASSERT_TRUE(file) << "cannot open " << path;
    std::ostringstream checked_in;
    checked_in << file.rdbuf();
    std::ostringstream saved;
    save_instance(saved,
                  WireInstance::from_instance(golden.instance, golden.name),
                  WireFormat::kJson);
    EXPECT_EQ(saved.str(), checked_in.str()) << golden.name;
  }
}

TEST(WireInstanceTest, BinaryLayoutIsPinned) {
  // magic, version, tag, then u32-length-prefixed strings and fixed-width
  // little-endian integers (two's complement for negative ids).
  const WireInstance wire{"ab", 8, {{-1, 3, 2, "x"}, {258, 5, 7, ""}}};
  std::ostringstream out;
  save_instance(out, wire, WireFormat::kBinary);
  std::string expected = "DSPW";
  expected += '\x01';                                   // version
  expected += '\x01';                                   // instance tag
  expected += std::string("\x02\0\0\0ab", 6);          // name
  expected += std::string("\x08\0\0\0\0\0\0\0", 8);  // strip width
  expected += std::string("\x02\0\0\0\0\0\0\0", 8);  // item count
  expected += std::string(8, '\xff');                   // id -1
  expected += std::string("\x03\0\0\0\0\0\0\0", 8);  // width
  expected += std::string("\x02\0\0\0\0\0\0\0", 8);  // height
  expected += std::string("\x01\0\0\0x", 5);           // label
  expected += std::string("\x02\x01\0\0\0\0\0\0", 8);  // id 258
  expected += std::string("\x05\0\0\0\0\0\0\0", 8);
  expected += std::string("\x07\0\0\0\0\0\0\0", 8);
  expected += std::string("\0\0\0\0", 4);              // empty label
  EXPECT_EQ(out.str(), expected);
  std::istringstream in(expected);
  EXPECT_EQ(load_instance(in), wire);
}

TEST(WireInstanceTest, FilesRoundTripBothFormats) {
  const WireInstance wire =
      decorated(Instance(16, {Item{4, 3}, Item{16, 1}, Item{1, 9}}), "file");
  for (const WireFormat format : {WireFormat::kBinary, WireFormat::kJson}) {
    const std::string path = ::testing::TempDir() + "dsp_wire_file_" +
                             std::string(to_string(format));
    save_instance_file(path, wire, format);
    EXPECT_EQ(load_instance_file(path), wire) << to_string(format);
    std::remove(path.c_str());
  }
  EXPECT_THROW((void)load_instance_file(::testing::TempDir() +
                                        "dsp_wire_file_missing"),
               InvalidInput);
}

// ---------------------------------------------------------------------------
// Ingest validation.
// ---------------------------------------------------------------------------

/// Expects `load_instance` on the JSON serialization of `wire` to throw,
/// with every `needle` present in the message.
void expect_rejected(const WireInstance& wire,
                     const std::vector<std::string>& needles) {
  std::ostringstream out;
  save_instance(out, wire, WireFormat::kJson);
  std::istringstream in(out.str());
  try {
    (void)load_instance(in, "bad.json");
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("bad.json"), std::string::npos) << message;
    for (const std::string& needle : needles) {
      EXPECT_NE(message.find(needle), std::string::npos)
          << "missing \"" << needle << "\" in: " << message;
    }
  }
}

/// Expects `load_instance(in)` to throw InvalidInput containing `needle`.
void expect_throw_contains(std::istringstream& in, const std::string& needle) {
  try {
    (void)load_instance(in, "bad.bin");
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& error) {
    EXPECT_NE(std::string(error.what()).find(needle), std::string::npos)
        << "missing \"" << needle << "\" in: " << error.what();
  }
}

TEST(WireValidationTest, RejectsNonpositiveWidth) {
  WireInstance wire{"", 10, {{0, 3, 2, ""}, {1, 0, 2, ""}}};
  expect_rejected(wire, {"item 1", "width 0", "offset"});
}

TEST(WireValidationTest, RejectsNonpositiveHeight) {
  WireInstance wire{"", 10, {{0, 3, -2, ""}}};
  expect_rejected(wire, {"item 0", "height -2", "offset"});
}

TEST(WireValidationTest, RejectsWidthBeyondStrip) {
  WireInstance wire{"", 10, {{0, 3, 2, ""}, {1, 11, 2, ""}}};
  expect_rejected(wire, {"item 1", "width 11", "strip width 10", "offset"});
}

TEST(WireValidationTest, RejectsStripWidthBeyondTheCap) {
  // A two-item request must not be able to demand an O(W) profile of
  // gigabytes: the width is rejected at ingest, before any allocation.
  const WireInstance huge{"", 300000000, {{0, 1, 1, ""}, {1, 2, 3, ""}}};
  expect_rejected(huge, {"strip width 300000000", "cap 1048576"});
  for (const WireFormat format : {WireFormat::kBinary, WireFormat::kJson}) {
    std::ostringstream out;
    save_instance(out, huge, format);
    std::istringstream in(out.str());
    expect_throw_contains(in, "exceeds the cap");
  }
  // The cap itself is servable.
  const WireInstance widest{"", kMaxStripWidth, {{0, 1, 1, ""}}};
  std::ostringstream out;
  save_instance(out, widest, WireFormat::kBinary);
  std::istringstream in(out.str());
  EXPECT_EQ(load_instance(in).strip_width, kMaxStripWidth);
}

TEST(WireValidationTest, RejectsStripWidthOneAboveTheCap) {
  const Length over = kMaxStripWidth + 1;
  const WireInstance wire{"", over, {{0, 1, 1, ""}}};
  expect_rejected(wire, {"strip width " + std::to_string(over),
                         "cap " + std::to_string(kMaxStripWidth)});
  std::ostringstream out;
  save_instance(out, wire, WireFormat::kBinary);
  std::istringstream in(out.str());
  expect_throw_contains(in, "strip width " + std::to_string(over));
}

TEST(WireValidationTest, HugeWidthCorpusEntryIsRejected) {
  // The checked-in fuzz seed is the ~150-byte request that used to drive
  // the solver into bad_alloc; it must fail at ingest, naming the cap.
  const std::string path = std::string(DSP_SOURCE_DIR) +
                           "/fuzz/corpus/load_instance/huge_width.json";
  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file) << "cannot open " << path;
  std::ostringstream bytes;
  bytes << file.rdbuf();
  EXPECT_LT(bytes.str().size(), 200u);
  std::istringstream in(bytes.str());
  expect_throw_contains(in, "exceeds the cap");
}

TEST(WireValidationTest, RejectsStripAreaBeyondTheCap) {
  // Two full-width items of height 2^62 on W = 4: the true peak 2^63 does
  // not fit in int64, so the instance is refused before any solver sums
  // its heights.
  const Height cap = Height{1} << 62;  // 2^62, the W·Σh cap
  const WireInstance wire{"", 4, {{0, 4, cap, ""}, {1, 4, cap, ""}}};
  expect_rejected(wire, {"total item height reaches " + std::to_string(cap),
                         "cap " + std::to_string(cap)});
  for (const WireFormat format : {WireFormat::kBinary, WireFormat::kJson}) {
    std::ostringstream out;
    save_instance(out, wire, format);
    std::istringstream in(out.str());
    expect_throw_contains(in, "exceeds the cap");
  }
  // W·Σh == 2^62 is servable; one more unit of height is not.
  const Height at_cap = cap / 4;
  WireInstance edge{"", 4, {{0, 4, at_cap - 1, ""}, {1, 1, 1, ""}}};
  std::ostringstream out;
  save_instance(out, edge, WireFormat::kBinary);
  std::istringstream in(out.str());
  EXPECT_EQ(load_instance(in), edge);
  edge.items[1].height = 2;
  expect_rejected(edge, {"total item height reaches " +
                         std::to_string(at_cap + 1)});
}

TEST(WireValidationTest, RejectsItemCountBeyondTheCap) {
  // kMaxItems items are servable; one more is refused by either decoder,
  // naming the count and the cap.
  WireInstance wire{"", 4, {}};
  for (std::size_t i = 0; i < kMaxItems; ++i) {
    wire.items.push_back({static_cast<std::int64_t>(i), 1, 1, ""});
  }
  for (const WireFormat format : {WireFormat::kBinary, WireFormat::kJson}) {
    std::ostringstream out;
    save_instance(out, wire, format);
    std::istringstream in(out.str());
    EXPECT_EQ(load_instance(in).items.size(), kMaxItems) << to_string(format);
  }
  wire.items.push_back({static_cast<std::int64_t>(kMaxItems), 1, 1, ""});
  const std::string over = std::to_string(kMaxItems + 1);
  const std::string cap = "cap " + std::to_string(kMaxItems);
  expect_rejected(wire, {"item count", over, cap});
  std::ostringstream out;
  save_instance(out, wire, WireFormat::kBinary);
  const std::string bytes = out.str();
  for (const std::string& needle : {std::string("item count"), over, cap}) {
    std::istringstream in(bytes);
    expect_throw_contains(in, needle);
  }
}

TEST(WireValidationTest, AreaOverflowCorpusEntryIsRejected) {
  // The checked-in fuzz seed used to be served with a peak (0) below its
  // own lower bound; it must fail at ingest, naming the cap.
  const std::string path = std::string(DSP_SOURCE_DIR) +
                           "/fuzz/corpus/load_instance/area_overflow.json";
  std::ifstream file(path, std::ios::binary);
  ASSERT_TRUE(file) << "cannot open " << path;
  std::ostringstream bytes;
  bytes << file.rdbuf();
  std::istringstream in(bytes.str());
  expect_throw_contains(in, "exceeds the cap 4611686018427387904");
}

TEST(WireValidationTest, RejectsDuplicateIds) {
  WireInstance wire{"", 10, {{7, 3, 2, ""}, {8, 2, 2, ""}, {7, 1, 1, ""}}};
  expect_rejected(wire, {"item 2", "duplicate id", "first used by item 0"});
}

TEST(WireValidationTest, RejectsEmptyInstance) {
  WireInstance wire{"", 10, {}};
  expect_rejected(wire, {"no items"});
}

TEST(WireValidationTest, ReportedOffsetPointsAtTheBadItem) {
  WireInstance wire{"", 10, {{0, 3, 2, ""}, {1, 0, 2, ""}}};
  std::ostringstream out;
  save_instance(out, wire, WireFormat::kJson);
  const std::string text = out.str();
  try {
    std::istringstream in(text);
    (void)load_instance(in, "bad.json");
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& error) {
    // Parse the offset back out of the message and check the text there
    // really is the second item's record.
    const std::string message = error.what();
    const auto at = message.find("offset ");
    ASSERT_NE(at, std::string::npos) << message;
    const std::size_t offset = std::stoul(message.substr(at + 7));
    ASSERT_LT(offset, text.size());
    EXPECT_EQ(text.compare(offset, 8, "{\"id\":1,"), 0)
        << "offset " << offset << " points at: " << text.substr(offset, 20);
  }
}

TEST(WireValidationTest, BinaryValidationMatchesJson) {
  WireInstance wire{"", 10, {{0, 3, 2, ""}, {1, 0, 2, ""}}};
  std::ostringstream out;
  save_instance(out, wire, WireFormat::kBinary);
  std::istringstream in(out.str());
  EXPECT_THROW((void)load_instance(in, "bad.bin"), InvalidInput);
}

TEST(WireValidationTest, RejectsUnknownVersion) {
  const WireInstance wire = decorated(Instance(8, {Item{2, 2}}), "v");
  std::ostringstream out;
  save_instance(out, wire, WireFormat::kBinary);
  std::string bytes = out.str();
  bytes[4] = 9;  // version byte follows the 4-byte magic
  std::istringstream in(bytes);
  expect_throw_contains(in, "unsupported wire version");
}

TEST(WireValidationTest, RejectsTruncatedBinary) {
  const WireInstance wire = decorated(Instance(8, {Item{2, 2}, Item{3, 1}}), "t");
  std::ostringstream out;
  save_instance(out, wire, WireFormat::kBinary);
  std::string bytes = out.str();
  bytes.resize(bytes.size() - 5);
  std::istringstream in(bytes);
  expect_throw_contains(in, "truncated");
}

TEST(WireValidationTest, RejectsTrailingBytes) {
  const WireInstance wire = decorated(Instance(8, {Item{2, 2}}), "t");
  std::ostringstream out;
  save_instance(out, wire, WireFormat::kBinary);
  std::string bytes = out.str() + "xx";
  std::istringstream in(bytes);
  expect_throw_contains(in, "trailing");
}

TEST(WireValidationTest, RejectsMalformedJson) {
  std::istringstream in("{\"dsp\":\"instance\",\"version\":1,");
  EXPECT_THROW((void)load_instance(in, "cut.json"), InvalidInput);
}

TEST(WireValidationTest, RejectsWrongRecordType) {
  // Only instance records exist; the retired packing (tag 2) and
  // Approx54Report (tag 3) records are rejected in both encodings.
  std::istringstream packing(
      "{\"dsp\":\"packing\",\"version\":1,\"start\":[1,2]}\n");
  EXPECT_THROW((void)load_instance(packing, "mix.json"), InvalidInput);
  // An instance body under another record type fails on the type itself.
  std::istringstream retyped(
      "{\"dsp\":\"approx54_report\",\"version\":1,\"strip_width\":8,"
      "\"items\":[{\"id\":0,\"width\":2,\"height\":2}]}\n");
  expect_throw_contains(retyped, "is not an instance record");

  const WireInstance wire = decorated(Instance(8, {Item{2, 2}}), "tag");
  std::ostringstream out;
  save_instance(out, wire, WireFormat::kBinary);
  for (const char retired_tag : {'\x02', '\x03'}) {
    std::string bytes = out.str();
    ASSERT_EQ(bytes[5], '\x01');  // magic (4) + version (1), then the tag
    bytes[5] = retired_tag;
    std::istringstream in(bytes);
    expect_throw_contains(in, "is not an instance record");
  }
}

TEST(WireValidationTest, RejectsUnknownInstanceKey) {
  // Solver settings are not part of the record; a request carrying one is
  // refused rather than silently served under the defaults.
  std::istringstream in(
      "{\"dsp\":\"instance\",\"version\":1,\"strip_width\":8,"
      "\"epsilon\":1,\"items\":[{\"id\":0,\"width\":2,\"height\":2}]}");
  expect_throw_contains(in, "unknown instance key \"epsilon\"");
}

TEST(WireValidationTest, RejectsUnknownItemKey) {
  std::istringstream in(
      "{\"dsp\":\"instance\",\"version\":1,\"strip_width\":8,\"items\":["
      "{\"id\":0,\"width\":2,\"height\":2,\"start\":0}]}");
  expect_throw_contains(in, "unknown item key \"start\"");
}

TEST(WireValidationTest, RejectsBooleanValues) {
  // The JSON reader knows strings, integers, objects and arrays only.
  std::istringstream as_width(
      "{\"dsp\":\"instance\",\"version\":1,\"strip_width\":true,"
      "\"items\":[{\"id\":0,\"width\":2,\"height\":2}]}");
  expect_throw_contains(as_width, "expected an integer");
  std::istringstream as_height(
      "{\"dsp\":\"instance\",\"version\":1,\"strip_width\":8,"
      "\"items\":[{\"id\":0,\"width\":2,\"height\":false}]}");
  expect_throw_contains(as_height, "expected an integer");
  std::istringstream as_label(
      "{\"dsp\":\"instance\",\"version\":1,\"strip_width\":8,"
      "\"items\":[{\"id\":0,\"width\":2,\"height\":2,\"label\":true}]}");
  EXPECT_THROW((void)load_instance(as_label, "bool.json"), InvalidInput);
}

TEST(WireValidationTest, RejectsMissingRequiredKeys) {
  const std::string items = "\"items\":[{\"id\":0,\"width\":2,\"height\":2}]";
  std::istringstream no_type("{\"version\":1,\"strip_width\":8," + items +
                             "}");
  expect_throw_contains(no_type, "missing \"dsp\" record-type key");
  std::istringstream no_version("{\"dsp\":\"instance\",\"strip_width\":8," +
                                items + "}");
  expect_throw_contains(no_version, "missing \"version\" key");
  std::istringstream no_width("{\"dsp\":\"instance\",\"version\":1," +
                              items + "}");
  expect_throw_contains(no_width, "missing \"strip_width\" key");
  std::istringstream no_items(
      "{\"dsp\":\"instance\",\"version\":1,\"strip_width\":8}");
  expect_throw_contains(no_items, "missing \"items\" key");
  std::istringstream no_height(
      "{\"dsp\":\"instance\",\"version\":1,\"strip_width\":8,"
      "\"items\":[{\"id\":0,\"width\":2}]}");
  expect_throw_contains(no_height, "item needs id, width and height");
}

TEST(WireValidationTest, JsonIntegersAreExactlySixtyFourBit) {
  // Both int64 extremes load as ids; one past either end is refused.
  std::istringstream extremes(
      "{\"dsp\":\"instance\",\"version\":1,\"strip_width\":8,\"items\":["
      "{\"id\":9223372036854775807,\"width\":2,\"height\":2},"
      "{\"id\":-9223372036854775808,\"width\":2,\"height\":2}]}");
  const WireInstance loaded = load_instance(extremes, "extremes.json");
  ASSERT_EQ(loaded.items.size(), 2u);
  EXPECT_EQ(loaded.items[0].id, std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(loaded.items[1].id, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(save_load(loaded, WireFormat::kJson), loaded);
  for (const char* id : {"9223372036854775808", "-9223372036854775809"}) {
    std::istringstream in(
        std::string("{\"dsp\":\"instance\",\"version\":1,\"strip_width\":8,"
                    "\"items\":[{\"id\":") +
        id + ",\"width\":2,\"height\":2}]}");
    expect_throw_contains(in, "integer does not fit in 64 bits");
  }
}

// ---------------------------------------------------------------------------
// Canonical form and hashing.
// ---------------------------------------------------------------------------

TEST(CanonicalTest, SortsByWidthThenHeightStable) {
  const Instance instance(10, {Item{5, 1}, Item{2, 9}, Item{2, 3}, Item{2, 3}});
  const CanonicalForm form = canonicalize(instance);
  ASSERT_EQ(form.instance.size(), 4u);
  EXPECT_EQ(form.instance.item(0), (Item{2, 3}));
  EXPECT_EQ(form.instance.item(1), (Item{2, 3}));
  EXPECT_EQ(form.instance.item(2), (Item{2, 9}));
  EXPECT_EQ(form.instance.item(3), (Item{5, 1}));
  // Stable tie-break: the two equal items keep their original order.
  EXPECT_EQ(form.original_index, (std::vector<std::size_t>{2, 3, 1, 0}));
}

class CanonicalHashInvariance
    : public ::testing::TestWithParam<std::tuple<GenFamily, int>> {};

TEST_P(CanonicalHashInvariance, PermutationAndRelabelingPreserveTheHash) {
  const auto& [family, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 31);
  const Instance instance = family.make(rng);
  const Hash128 reference = canonical_hash(instance);

  // Permute items.
  std::vector<Item> shuffled(instance.items().begin(), instance.items().end());
  std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
  const Instance permuted(instance.strip_width(), shuffled);
  EXPECT_EQ(canonical_hash(permuted), reference) << family.name;

  // Rename ids and labels on the wire (and permute again): still the hash.
  WireInstance wire = WireInstance::from_instance(permuted, "renamed");
  for (std::size_t i = 0; i < wire.items.size(); ++i) {
    wire.items[i].id = static_cast<std::int64_t>(5000 - i);
    wire.items[i].label = "relabeled-" + std::to_string(i * 3);
  }
  EXPECT_EQ(canonical_hash(wire.to_instance()), reference) << family.name;

  // And the canonical instances themselves agree item by item.
  const CanonicalForm a = canonicalize(instance);
  const CanonicalForm b = canonicalize(permuted);
  ASSERT_EQ(a.instance.size(), b.instance.size());
  for (std::size_t i = 0; i < a.instance.size(); ++i) {
    EXPECT_EQ(a.instance.item(i), b.instance.item(i)) << family.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, CanonicalHashInvariance,
    ::testing::Combine(::testing::ValuesIn(kFamilies), ::testing::Range(0, 3)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param).name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(CanonicalTest, HashSeparatesDifferentInstances) {
  // Not a collision-resistance proof — just that the obvious near-misses
  // (width change, height change, multiplicity change, strip change) all
  // move the hash.
  const Instance base(10, {Item{2, 3}, Item{4, 5}});
  const Hash128 reference = canonical_hash(base);
  EXPECT_NE(canonical_hash(Instance(10, {Item{2, 3}, Item{4, 6}})), reference);
  EXPECT_NE(canonical_hash(Instance(10, {Item{3, 3}, Item{4, 5}})), reference);
  EXPECT_NE(canonical_hash(Instance(10, {Item{2, 3}, Item{2, 3}, Item{4, 5}})),
            reference);
  EXPECT_NE(canonical_hash(Instance(11, {Item{2, 3}, Item{4, 5}})), reference);
  EXPECT_NE(canonical_hash(Instance(10, {Item{2, 3}})), reference);
}

TEST(CanonicalTest, RestoreItemOrderInvertsThePermutation) {
  Rng rng(5);
  const Instance instance = gen::random_uniform(24, 32, 16, 8, rng);
  const CanonicalForm form = canonicalize(instance);
  // A recognizable canonical packing: canonical item p starts at p, clamped
  // into the strip.
  Packing canonical_packing;
  for (std::size_t p = 0; p < form.instance.size(); ++p) {
    canonical_packing.start.push_back(
        std::min<Length>(static_cast<Length>(p),
                         instance.strip_width() - form.instance.item(p).width));
  }
  const Packing restored = restore_item_order(form, canonical_packing);
  ASSERT_EQ(restored.start.size(), instance.size());
  for (std::size_t p = 0; p < form.instance.size(); ++p) {
    EXPECT_EQ(restored.start[form.original_index[p]],
              canonical_packing.start[p]);
  }
  // The restored packing is feasible for the original instance and has the
  // same profile peak (same multiset of placed rectangles).
  EXPECT_EQ(peak_height(instance, restored),
            peak_height(form.instance, canonical_packing));
}

TEST(CanonicalTest, RestoreItemOrderChecksSizes) {
  const CanonicalForm form = canonicalize(Instance(10, {Item{2, 3}}));
  Packing wrong;
  wrong.start = {0, 0};
  EXPECT_THROW((void)restore_item_order(form, wrong), InvalidInput);
}

// ---------------------------------------------------------------------------
// The --engine flag value (both front doors parse it through parse_engine).
// ---------------------------------------------------------------------------

TEST(CliTest, ParseEngineAcceptsExactlyTheEngineNames) {
  EXPECT_EQ(parse_engine("portfolio"), ServeEngine::kPortfolio);
  EXPECT_EQ(parse_engine("solve54"), ServeEngine::kSolve54);
  for (const std::string_view bad :
       {"", "auto", "solve", "solve54 ", " portfolio", "Portfolio",
        "SOLVE54", "Solve54"}) {
    EXPECT_FALSE(parse_engine(bad).has_value()) << "'" << bad << "'";
  }
}

// ---------------------------------------------------------------------------
// Count flags and the --metrics-out / --trace-out writer (both front doors).
// ---------------------------------------------------------------------------

/// A usage-error handler that throws instead of exiting, so the test
/// process survives and can read the message.
void throwing_usage_error(const std::string& message) {
  throw std::runtime_error(message);
}

TEST(CliTest, ParseCountAcceptsOnlyNonnegativeIntegers) {
  EXPECT_EQ(parse_count("--max-queue", "0", throwing_usage_error), 0u);
  EXPECT_EQ(parse_count("--max-queue", "12", throwing_usage_error), 12u);
  for (const std::string bad : {"", "4x", "-1", " 4", "+", "1e3"}) {
    try {
      (void)parse_count("--max-queue", bad, throwing_usage_error);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()),
                "bad value for --max-queue: " + bad +
                    " (expected a nonnegative integer)");
    }
  }
}

TEST(CliTest, ParseRepeatRejectsZero) {
  // Regression: both front doors clamped --repeat 0 to 1 and served the
  // files once instead of reporting a usage error.
  EXPECT_EQ(parse_repeat("1", throwing_usage_error), 1u);
  EXPECT_EQ(parse_repeat("3", throwing_usage_error), 3u);
  for (const std::string bad : {"0", "00"}) {
    try {
      (void)parse_repeat(bad, throwing_usage_error);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()),
                "bad value for --repeat: " + bad +
                    " (expected a positive integer)");
    }
  }
  EXPECT_THROW((void)parse_repeat("-1", throwing_usage_error),
               std::runtime_error);
}

TEST(CliTest, WriteOutputFileWritesTheBodyOrWarns) {
  const std::string path =
      ::testing::TempDir() + "cli_write_output_file.txt";
  write_output_file("dsp_solve", path, "trace",
                    [](std::ostream& os) { os << "body\n"; });
  std::ifstream in(path, std::ios::binary);
  std::stringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), "body\n");
  std::remove(path.c_str());

  const std::string missing = ::testing::TempDir() + "no/such/dir/m.prom";
  ::testing::internal::CaptureStderr();
  write_output_file("dsp_served", missing, "metrics exposition",
                    [](std::ostream& os) { os << "body\n"; });
  EXPECT_EQ(::testing::internal::GetCapturedStderr(),
            "dsp_served: warning: cannot write metrics exposition to " +
                missing + "\n");
}

}  // namespace
}  // namespace dsp::service
