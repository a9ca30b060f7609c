#pragma once

// Machine-readable row output shared by the bench harnesses
// (bench/bench_common.hpp) and the dsp_solve serving CLI: one flat JSON
// object per line, so downstream tooling can scrape runs without parsing
// the human-facing tables.

#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace dsp {

/// `value` as a JSON string literal: quotes, backslashes and control
/// characters escaped, every other byte copied as is.  The one string
/// quoter shared by JsonRow and the JSON wire format (service/wire.cpp),
/// whose outputs are diffed byte for byte.
[[nodiscard]] inline std::string json_quote(const std::string& value) {
  std::string quoted = "\"";
  for (const char c : value) {
    switch (c) {
      case '"': quoted += "\\\""; break;
      case '\\': quoted += "\\\\"; break;
      case '\n': quoted += "\\n"; break;
      case '\r': quoted += "\\r"; break;
      case '\t': quoted += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          quoted += "\\u00";
          quoted += kHex[(c >> 4) & 0xf];
          quoted += kHex[c & 0xf];
        } else {
          quoted += c;
        }
    }
  }
  quoted += '"';
  return quoted;
}

/// One flat JSON object, printed as a single line.  Keys appear in insertion
/// order and must be plain identifiers (they are always caller literals);
/// string values are escaped, so untrusted text (instance names, file
/// paths) is safe to emit.
class JsonRow {
 public:
  JsonRow& field(const std::string& key, const std::string& value) {
    return raw(key, json_quote(value));
  }
  JsonRow& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  template <typename T>
    requires std::is_integral_v<T>
  JsonRow& field(const std::string& key, T value) {
    return raw(key, std::to_string(value));
  }
  JsonRow& field(const std::string& key, double value) {
    std::ostringstream oss;
    oss.precision(std::numeric_limits<double>::max_digits10);
    oss << value;
    return raw(key, oss.str());
  }

  void print(std::ostream& os) const {
    os << '{';
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      if (i > 0) os << ',';
      os << parts_[i];
    }
    os << "}\n";
  }

 private:
  JsonRow& raw(const std::string& key, std::string value) {
    parts_.push_back('"' + key + "\":" + std::move(value));
    return *this;
  }

  std::vector<std::string> parts_;
};

/// Appends the machine/compiler provenance fields every bench JSON row
/// carries: cpu ISA flags (runtime-detected), compiler id+version, build
/// type.  Rows from different machines/toolchains then self-describe, so a
/// checked-in trajectory (BENCH_PR6.json) can be compared apples-to-apples.
/// The dsp_solve serving wire format deliberately does NOT call this — its
/// output is golden-diffed byte for byte in CI and must stay
/// machine-independent.
inline JsonRow& machine_fields(JsonRow& row) {
  std::string cpu;
#if defined(__GNUC__) && defined(__x86_64__)
  __builtin_cpu_init();
  const auto append = [&cpu](bool supported, const char* flag) {
    if (!supported) return;
    if (!cpu.empty()) cpu += ' ';
    cpu += flag;
  };
  // __builtin_cpu_supports demands literal arguments, hence the unrolling.
  append(__builtin_cpu_supports("sse4.2"), "sse4.2");
  append(__builtin_cpu_supports("avx"), "avx");
  append(__builtin_cpu_supports("avx2"), "avx2");
  append(__builtin_cpu_supports("avx512f"), "avx512f");
#endif
  row.field("cpu_flags", cpu);
#if defined(__clang__)
  row.field("compiler", std::string("clang ") + __VERSION__);
#elif defined(__GNUC__)
  row.field("compiler", std::string("gcc ") + __VERSION__);
#else
  row.field("compiler", "unknown");
#endif
#if defined(NDEBUG)
  row.field("build", "release");
#else
  row.field("build", "debug");
#endif
  return row;
}

/// Rvalue overload so the usual `machine_fields(JsonRow()).field(...)`
/// chain-from-a-temporary works (the reference stays valid for the full
/// statement, exactly like JsonRow's own chaining).
inline JsonRow& machine_fields(JsonRow&& row) { return machine_fields(row); }

}  // namespace dsp
