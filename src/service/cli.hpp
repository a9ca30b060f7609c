#pragma once

// Helpers shared by the serving executables (dsp_solve, dsp_served): strict
// flag-value parsing (integers, counts, engine names), instance-path
// expansion with load-time diagnostics, the --metrics-out / --trace-out
// file writer, and the JSON-lines row format both front doors print —
// dsp_served's client mode must stay byte-identical to dsp_solve so the
// golden corpus (examples/dsp_solve_expected.jsonl) guards both.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "service/cache.hpp"

namespace dsp::service {

/// Strict full-string signed-integer parse: the entire text must be one
/// base-10 integer (optional leading '-'), or nullopt.  Unlike std::stoll,
/// trailing garbage is a parse failure — "--threads 4x" must be rejected,
/// not silently served as 4.
[[nodiscard]] std::optional<long long> parse_integer(std::string_view text);

/// A front door's usage-error handler: prints the message and the usage
/// text to stderr, then exits with status 1.  Never returns.
using UsageError = void (*)(const std::string& message);

/// Parses a nonnegative integer flag value with the strict full-string rule
/// (parse_integer): "--threads 4x" is rejected, not served as 4.  Garbage
/// goes to `usage_error` as "bad value for FLAG: VALUE (expected a
/// nonnegative integer)".
[[nodiscard]] std::size_t parse_count(const std::string& flag,
                                      const std::string& value,
                                      UsageError usage_error);

/// The `--engine` flag value: "portfolio" or "solve54" exactly (the
/// to_string spellings), or nullopt for anything else, including the empty
/// string and other letter cases.
[[nodiscard]] std::optional<ServeEngine> parse_engine(std::string_view name);

/// Largest `--cache-mb` value: its byte count (M << 20) must fit in size_t.
inline constexpr std::size_t kMaxCacheMb =
    std::numeric_limits<std::size_t>::max() >> 20;

/// The solve-cache byte budget for `--cache-mb M`, or nullopt when M is 0 (a
/// cache that can hold nothing) or above kMaxCacheMb (M << 20 would wrap).
[[nodiscard]] std::optional<std::size_t> cache_mb_to_bytes(std::size_t cache_mb);

/// Expands files and directories into the served file list.  Directories
/// contribute their *.json / *.dspi entries in sorted order, so runs are
/// reproducible regardless of readdir order.  Throws InvalidInput naming
/// the offending path when a path does not exist or a directory
/// contributes no matching files — a mistyped path is a usage error at
/// expansion time, not a load failure halfway through serving.
[[nodiscard]] std::vector<std::string> expand_instance_paths(
    const std::vector<std::string>& paths);

/// Writes `body(os)` to `path` (binary, truncating).  An I/O error is a
/// warning on stderr, "PROGRAM: warning: cannot write WHAT to PATH", not a
/// failure: a full disk must not turn a finished run into a nonzero exit.
void write_output_file(std::string_view program, const std::string& path,
                       std::string_view what,
                       const std::function<void(std::ostream&)>& body);

/// The flag-value spelling of a cache outcome ("miss" / "hit" / "join").
[[nodiscard]] std::string_view outcome_name(CacheOutcome outcome);

/// One served answer as a JSON-lines row.  Field order is fixed; both
/// front doors print through this so their outputs diff clean.
struct AnswerRow {
  std::string file;
  std::string name;
  std::size_t items = 0;
  Length strip_width = 0;
  std::string engine;
  Height lower_bound = 0;
  Height peak = 0;
  std::string winner;
  CacheOutcome outcome = CacheOutcome::kMiss;
};

void print_answer_row(std::ostream& os, const AnswerRow& row);

/// The trailing counters summary.  The label stays "dsp_solve" for every
/// front door: it names the row format, and the golden diff depends on it.
struct SummaryRow {
  std::size_t requests = 0;
  std::size_t files = 0;
  std::size_t repeat = 1;
  CacheStats stats;
  std::size_t cache_mb = 0;
};

void print_summary_row(std::ostream& os, const SummaryRow& row);

}  // namespace dsp::service
