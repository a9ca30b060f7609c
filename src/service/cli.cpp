#include "service/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "util/check.hpp"
#include "util/json_row.hpp"

namespace dsp::service {

std::optional<long long> parse_integer(std::string_view text) {
  if (text.empty()) return std::nullopt;
  long long value = 0;
  const char* const first = text.data();
  const char* const last = first + text.size();
  const std::from_chars_result result = std::from_chars(first, last, value);
  // Full-string or nothing: from_chars stopping early means trailing
  // garbage ("4x"), a lone '-', or an out-of-range magnitude.
  if (result.ec != std::errc() || result.ptr != last) return std::nullopt;
  return value;
}

std::size_t parse_count(const std::string& flag, const std::string& value,
                        UsageError usage_error) {
  const std::optional<long long> parsed = parse_integer(value);
  if (!parsed || *parsed < 0) {
    usage_error("bad value for " + flag + ": " + value +
                " (expected a nonnegative integer)");
    std::exit(1);  // usage_error exits; never reached
  }
  return static_cast<std::size_t>(*parsed);
}

std::size_t parse_repeat(const std::string& value, UsageError usage_error) {
  const std::size_t repeat = parse_count("--repeat", value, usage_error);
  if (repeat == 0) {
    usage_error("bad value for --repeat: " + value +
                " (expected a positive integer)");
    std::exit(1);  // usage_error exits; never reached
  }
  return repeat;
}

std::optional<ServeEngine> parse_engine(std::string_view name) {
  for (const ServeEngine engine :
       {ServeEngine::kPortfolio, ServeEngine::kSolve54}) {
    if (name == to_string(engine)) return engine;
  }
  return std::nullopt;
}

std::optional<std::size_t> cache_mb_to_bytes(std::size_t cache_mb) {
  if (cache_mb == 0 || cache_mb > kMaxCacheMb) return std::nullopt;
  return cache_mb << 20;
}

std::vector<std::string> expand_instance_paths(
    const std::vector<std::string>& paths) {
  std::vector<std::string> files;
  for (const std::string& path : paths) {
    DSP_REQUIRE(std::filesystem::exists(path),
                path << ": no such file or directory");
    if (std::filesystem::is_directory(path)) {
      std::vector<std::string> entries;
      for (const auto& entry : std::filesystem::directory_iterator(path)) {
        if (!entry.is_regular_file()) continue;
        const std::string extension = entry.path().extension().string();
        if (extension == ".json" || extension == ".dspi") {
          entries.push_back(entry.path().string());
        }
      }
      DSP_REQUIRE(!entries.empty(),
                  path << ": directory contains no *.json / *.dspi instance "
                          "files");
      std::sort(entries.begin(), entries.end());
      files.insert(files.end(), entries.begin(), entries.end());
    } else {
      files.push_back(path);
    }
  }
  return files;
}

void write_output_file(std::string_view program, const std::string& path,
                       std::string_view what,
                       const std::function<void(std::ostream&)>& body) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (os) body(os);
  os.flush();
  if (!os) {
    std::cerr << program << ": warning: cannot write " << what << " to "
              << path << "\n";
  }
}

std::string_view outcome_name(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kHit: return "hit";
    case CacheOutcome::kJoined: return "join";
    case CacheOutcome::kMiss: break;
  }
  return "miss";
}

void print_answer_row(std::ostream& os, const AnswerRow& row) {
  JsonRow()
      .field("file", row.file)
      .field("name", row.name)
      .field("n", row.items)
      .field("W", row.strip_width)
      .field("engine", row.engine)
      .field("lb", row.lower_bound)
      .field("peak", row.peak)
      .field("winner", row.winner)
      .field("cache", std::string(outcome_name(row.outcome)))
      .print(os);
}

void print_summary_row(std::ostream& os, const SummaryRow& row) {
  JsonRow()
      .field("summary", "dsp_solve")
      .field("requests", row.requests)
      .field("files", row.files)
      .field("repeat", row.repeat)
      .field("hits", row.stats.hits)
      .field("misses", row.stats.misses)
      .field("inflight_joins", row.stats.inflight_joins)
      .field("evictions", row.stats.evictions)
      .field("entries", row.stats.entries)
      .field("cache_mb", row.cache_mb)
      .print(os);
}

}  // namespace dsp::service
