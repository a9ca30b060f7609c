#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <limits>
#include <sstream>

#include "util/check.hpp"

namespace dsp::obs {

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

std::size_t Histogram::bucket_index(std::uint64_t v) noexcept {
  return std::min<std::size_t>(std::bit_width(v), kHistogramBuckets - 1);
}

std::uint64_t Histogram::bucket_upper(std::size_t index) noexcept {
  if (index >= kHistogramBuckets - 1) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return (std::uint64_t{1} << index) - 1;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    snap.counts[b] = counts_[b].load(std::memory_order_relaxed);
    snap.total += snap.counts[b];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  return snap;
}

std::uint64_t HistogramSnapshot::quantile(std::uint64_t num,
                                          std::uint64_t den) const {
  if (total == 0 || den == 0) return 0;
  // ceil(q * total), clamped into [1, total]: the rank of the sample whose
  // bucket bound we report.
  std::uint64_t rank = (total * num + den - 1) / den;
  rank = std::max<std::uint64_t>(1, std::min(rank, total));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    cumulative += counts[b];
    if (cumulative >= rank) return Histogram::bucket_upper(b);
  }
  return Histogram::bucket_upper(kHistogramBuckets - 1);
}

HistogramSnapshot HistogramSnapshot::since(const HistogramSnapshot& base) const {
  HistogramSnapshot delta;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    delta.counts[b] = counts[b] - base.counts[b];
    delta.total += delta.counts[b];
  }
  delta.sum = sum - base.sum;
  return delta;
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Histogram& Registry::histogram(std::string_view name) {
  const runtime::MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

Registry::Source Registry::register_source(SourceFn fn) {
  const runtime::MutexLock lock(mutex_);
  const std::uint64_t token = next_token_++;
  sources_.push_back(SourceEntry{token, std::move(fn)});
  return Source(this, token);
}

void Registry::unregister_source(std::uint64_t token) {
  const runtime::MutexLock lock(mutex_);
  std::erase_if(sources_,
                [token](const SourceEntry& e) { return e.token == token; });
}

void Registry::Source::reset() {
  if (registry_ != nullptr) {
    registry_->unregister_source(token_);
    registry_ = nullptr;
  }
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  {
    const runtime::MutexLock lock(mutex_);
    // Sources run in registration order; a later source's duplicate name
    // replaces an earlier one's below.
    for (const SourceEntry& source : sources_) source.fn(snap.samples);
    for (const auto& [name, histogram] : histograms_) {
      snap.histograms.emplace_back(name, histogram->snapshot());
    }
  }
  // Stable sort keeps registration order inside a name group, so "latest
  // registration wins" is the last element of each group.
  std::stable_sort(snap.samples.begin(), snap.samples.end(),
                   [](const Sample& a, const Sample& b) { return a.name < b.name; });
  std::vector<Sample> deduped;
  deduped.reserve(snap.samples.size());
  for (Sample& sample : snap.samples) {
    if (!deduped.empty() && deduped.back().name == sample.name) {
      deduped.back() = std::move(sample);
    } else {
      deduped.push_back(std::move(sample));
    }
  }
  snap.samples = std::move(deduped);
  return snap;
}

std::uint64_t MetricsSnapshot::sample_value(std::string_view name) const {
  for (const Sample& sample : samples) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

namespace {

/// `cache.hits` -> `dsp_cache_hits` (Prometheus names take [a-zA-Z0-9_:]).
[[nodiscard]] std::string exposition_name(std::string_view name) {
  std::string out = "dsp_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

std::string Registry::prometheus_text() const {
  const MetricsSnapshot snap = snapshot();
  std::ostringstream os;
  for (const Sample& sample : snap.samples) {
    const std::string name = exposition_name(sample.name);
    os << "# TYPE " << name << (sample.is_gauge ? " gauge" : " counter")
       << "\n";
    os << name << " " << sample.value << "\n";
  }
  for (const auto& [raw_name, histogram] : snap.histograms) {
    const std::string name = exposition_name(raw_name);
    os << "# TYPE " << name << " histogram\n";
    std::uint64_t cumulative = 0;
    // Every populated bucket plus the one before it (so a scraper sees the
    // lower edge), always ending with +Inf.
    for (std::size_t b = 0; b < kHistogramBuckets - 1; ++b) {
      cumulative += histogram.counts[b];
      if (histogram.counts[b] == 0 &&
          (b + 1 >= kHistogramBuckets - 1 || histogram.counts[b + 1] == 0)) {
        continue;
      }
      os << name << "_bucket{le=\"" << Histogram::bucket_upper(b) << "\"} "
         << cumulative << "\n";
    }
    os << name << "_bucket{le=\"+Inf\"} " << histogram.total << "\n";
    os << name << "_sum " << histogram.sum << "\n";
    os << name << "_count " << histogram.total << "\n";
  }
  return std::move(os).str();
}

std::optional<std::uint64_t> exposition_sample(std::string_view text,
                                               std::string_view name) {
  const std::string wanted = exposition_name(name);
  while (!text.empty()) {
    const std::size_t end = text.find('\n');
    const std::string_view line = text.substr(0, end);
    text = end == std::string_view::npos ? std::string_view{}
                                         : text.substr(end + 1);
    // `dsp_x` must not match `dsp_x_sum` or `dsp_x_bucket{...}`: the name
    // ends at a space or at the end of the line.
    if (!line.starts_with(wanted)) continue;
    const std::string_view rest = line.substr(wanted.size());
    if (!rest.empty() && rest.front() != ' ') continue;
    const std::string_view digits = rest.empty() ? rest : rest.substr(1);
    const char* const last = digits.data() + digits.size();
    std::uint64_t value = 0;
    const auto [at, error] = std::from_chars(digits.data(), last, value);
    DSP_REQUIRE(error == std::errc{} && at == last,
                "metrics exposition: " << wanted << " has no u64 value");
    return value;
  }
  return std::nullopt;
}

}  // namespace dsp::obs
