#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>

#include "gen/families.hpp"
#include "gen/gap.hpp"
#include "gen/hardness.hpp"
#include "gen/smart_grid.hpp"

namespace e2e {

namespace {

using dsp::Instance;
using dsp::Length;
using dsp::Rng;

// Stream ids under one workload seed; disjoint ranges keep the draws of the
// pool and of each client independent of one another.
constexpr std::uint64_t kPoolStream = 1'000'000;
constexpr std::uint64_t kClientStream = 3'000'000;

/// Draws per golden family in the serve-zipf pool (the fixed gap instance
/// contributes one entry).  With 8 x 64 + 1 entries the pool is about four
/// times what kZipfCacheBytes holds, so the cache evicts.
constexpr std::size_t kPoolDraws = 64;

[[nodiscard]] Rng workload_rng(Workload workload, std::uint64_t seed) {
  return Rng(Rng::mix_seed(seed ^ (0xe2eull << 8 | static_cast<std::uint64_t>(workload))));
}

/// Word hasher for workload_hash: SplitMix64-mixed FNV-style chaining.
/// Deliberately independent of the program's own content hashes.
class Hasher {
 public:
  void absorb(std::uint64_t word) {
    state_ = Rng::mix_seed(state_ ^ word) * 0x100000001b3ull;
  }
  void absorb(std::string_view text) {
    for (const char c : text) absorb(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    absorb(text.size());
  }
  void absorb(const Instance& instance) {
    absorb(static_cast<std::uint64_t>(instance.strip_width()));
    absorb(instance.size());
    for (const dsp::Item& item : instance.items()) {
      absorb(static_cast<std::uint64_t>(item.width));
      absorb(static_cast<std::uint64_t>(item.height));
    }
  }
  [[nodiscard]] std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// The smart-grid catalog at minute resolution: every duration x15.
[[nodiscard]] const std::vector<dsp::gen::Appliance>& minute_catalog() {
  static const std::vector<dsp::gen::Appliance> catalog = [] {
    std::vector<dsp::gen::Appliance> minutes = dsp::gen::default_catalog();
    for (dsp::gen::Appliance& a : minutes) {
      a.min_slots *= 15;
      a.max_slots *= 15;
    }
    return minutes;
  }();
  return catalog;
}

/// One golden family at its golden-corpus size (gen/corpus.cpp).
[[nodiscard]] Instance golden_family_draw(std::size_t family, Rng& rng) {
  switch (family) {
    case 0: return dsp::gen::correlated(18, 48, 24, 10, rng);
    case 1: return dsp::gen::equal_width(16, 36, 6, 9, rng);
    case 2: return dsp::gen::gap_instance();
    case 3: return dsp::gen::planted_yes(3, 24, rng).instance;
    case 4: return dsp::gen::perfect_packing(20, 40, 18, rng);
    case 5: return dsp::gen::smart_grid(24, 96, rng);
    case 6: return dsp::gen::tall_items(16, 40, 14, rng);
    case 7: return dsp::gen::random_uniform(20, 48, 20, 12, rng);
    default: return dsp::gen::wide_items(14, 40, 8, rng);
  }
}

constexpr const char* kGoldenFamilies[] = {
    "correlated", "equal-width", "gap",     "hardness", "perfect",
    "smart-grid", "tall",        "uniform", "wide"};

/// Sorted (W, width, height...) key: equal keys are the same request to the
/// solve cache, so the pool keeps one of them.
[[nodiscard]] std::vector<std::int64_t> content_key(const Instance& instance) {
  std::vector<std::pair<std::int64_t, std::int64_t>> items;
  for (const dsp::Item& item : instance.items()) items.emplace_back(item.width, item.height);
  std::sort(items.begin(), items.end());
  std::vector<std::int64_t> key{instance.strip_width()};
  for (const auto& [w, h] : items) {
    key.push_back(w);
    key.push_back(h);
  }
  return key;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w :
       {Workload::kSolveCold, Workload::kSolveWide, Workload::kServeZipf}) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

std::string_view workload_name(Workload workload) {
  switch (workload) {
    case Workload::kSolveCold: return "solve-cold";
    case Workload::kSolveWide: return "solve-wide";
    case Workload::kServeZipf: return "serve-zipf";
  }
  return "unknown";
}

std::vector<Cell> workload_cells(Workload workload) {
  std::vector<Cell> cells;
  if (workload == Workload::kSolveCold) {
    for (const char* family :
         {"uniform", "tall", "wide", "perfect", "correlated", "smart-grid"}) {
      for (const std::size_t n : {100, 400}) {
        for (const Length width : {256, 1024, 2048}) {
          cells.push_back({family, n, width});
        }
      }
    }
  } else if (workload == Workload::kSolveWide) {
    // A week at minute resolution, and a 2^16-column uniform strip.  Five
    // cells whose latencies barely overlap: an odd count puts the median
    // inside the middle cell (smart-grid-week n = 150), not on the gap
    // between two cells, where it would jump with every run.
    for (const std::size_t n : {50, 100, 150}) cells.push_back({"smart-grid-week", n, 10080});
    for (const std::size_t n : {30, 60}) cells.push_back({"uniform", n, 65536});
  }
  return cells;
}

Instance make_cell_instance(const Cell& cell, Rng& rng) {
  const Length w = cell.width;
  if (cell.family == "uniform") return dsp::gen::random_uniform(cell.n, w, w / 4, 100, rng);
  if (cell.family == "tall") return dsp::gen::tall_items(cell.n, w, 100, rng);
  if (cell.family == "wide") return dsp::gen::wide_items(cell.n, w, 20, rng);
  if (cell.family == "perfect") return dsp::gen::perfect_packing(cell.n, w, 200, rng);
  if (cell.family == "correlated") return dsp::gen::correlated(cell.n, w, w / 4, 100, rng);
  if (cell.family == "smart-grid") return dsp::gen::smart_grid(cell.n, w, rng);
  if (cell.family == "smart-grid-week") {
    return dsp::gen::smart_grid(cell.n, w, rng, minute_catalog());
  }
  throw std::invalid_argument("unknown family " + cell.family);
}

Instance stream_request(const std::vector<Cell>& cells, std::uint64_t seed,
                        std::size_t index) {
  Rng rng = Rng(Rng::mix_seed(seed)).spawn(index);
  return make_cell_instance(cells[index % cells.size()], rng);
}

Instance warmup_instance(Workload workload) {
  Rng rng(0xe2e0);
  switch (workload) {
    case Workload::kSolveCold: return make_cell_instance({"uniform", 100, 1024}, rng);
    case Workload::kSolveWide: return make_cell_instance({"smart-grid-week", 100, 10080}, rng);
    case Workload::kServeZipf: break;
  }
  return dsp::gen::smart_grid(24, 96, rng);
}

ZipfSampler::ZipfSampler(std::size_t ranks, double exponent) {
  if (ranks == 0) throw std::invalid_argument("ZipfSampler needs >= 1 rank");
  cumulative_.reserve(ranks);
  double total = 0.0;
  for (std::size_t rank = 0; rank < ranks; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), exponent);
    cumulative_.push_back(total);
  }
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double needle = rng.real(0.0, cumulative_.back());
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), needle);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cumulative_.begin()),
                               cumulative_.size() - 1);
}

ZipfTraffic make_zipf_traffic(std::uint64_t seed) {
  const Rng root = workload_rng(Workload::kServeZipf, seed);
  std::vector<PoolInstance> pool;
  std::set<std::vector<std::int64_t>> seen;
  constexpr std::size_t kFamilies = std::size(kGoldenFamilies);
  std::vector<std::vector<std::size_t>> by_family(kFamilies);
  for (std::size_t family = 0; family < kFamilies; ++family) {
    // Small families (hardness, gap) run out of distinct draws early; the
    // attempt cap keeps the loop bounded.
    for (std::size_t attempt = 0;
         by_family[family].size() < kPoolDraws && attempt < 4 * kPoolDraws; ++attempt) {
      Rng rng = root.spawn(kPoolStream + family * kPoolDraws * 4 + attempt);
      Instance instance = golden_family_draw(family, rng);
      if (!seen.insert(content_key(instance)).second) continue;
      by_family[family].push_back(pool.size());
      pool.push_back({kGoldenFamilies[family], std::move(instance)});
    }
  }
  // Ranks go to the families in turn (rank r to family r mod 9 while every
  // family has draws left), so every seed serves the same family mix at
  // each popularity level and only the draws depend on the seed.  That
  // keeps seed-to-seed spread down: the head of the Zipf curve is a few
  // instances, and their family sets their cost.
  std::vector<std::size_t> rank_to_pool;
  for (std::size_t round = 0; rank_to_pool.size() < pool.size(); ++round) {
    for (std::size_t family = 0; family < kFamilies; ++family) {
      if (round < by_family[family].size()) rank_to_pool.push_back(by_family[family][round]);
    }
  }
  ZipfSampler sampler(pool.size(), kZipfExponent);
  return ZipfTraffic{std::move(pool), std::move(rank_to_pool), std::move(sampler)};
}

ZipfStream::ZipfStream(const ZipfTraffic& traffic, std::uint64_t seed,
                       std::size_t client)
    : traffic_(&traffic),
      rng_(workload_rng(Workload::kServeZipf, seed).spawn(kClientStream + client)) {}

ZipfRequest ZipfStream::next() {
  ZipfRequest request;
  request.pool_index = traffic_->rank_to_pool[traffic_->sampler.sample(rng_)];
  request.order.resize(traffic_->pool[request.pool_index].instance.size());
  std::iota(request.order.begin(), request.order.end(), std::size_t{0});
  std::shuffle(request.order.begin(), request.order.end(), rng_.engine());
  return request;
}

dsp::service::WireInstance permuted_wire(const Instance& instance,
                                         const std::vector<std::size_t>& order) {
  dsp::service::WireInstance wire;
  wire.strip_width = instance.strip_width();
  wire.items.reserve(order.size());
  for (const std::size_t index : order) {
    const dsp::Item& item = instance.item(index);
    wire.items.push_back({static_cast<std::int64_t>(index), item.width, item.height, ""});
  }
  return wire;
}

std::uint64_t workload_hash(Workload workload, std::uint64_t seed) {
  Hasher hasher;
  hasher.absorb(workload_name(workload));
  hasher.absorb(seed);
  if (workload == Workload::kServeZipf) {
    const ZipfTraffic traffic = make_zipf_traffic(seed);
    for (const PoolInstance& entry : traffic.pool) {
      hasher.absorb(entry.family);
      hasher.absorb(entry.instance);
    }
    for (const std::size_t rank_target : traffic.rank_to_pool) hasher.absorb(rank_target);
    for (std::size_t client = 0; client < kZipfClients; ++client) {
      ZipfStream stream(traffic, seed, client);
      for (std::size_t r = 0; r < kHashedRequests; ++r) {
        const ZipfRequest request = stream.next();
        hasher.absorb(request.pool_index);
        for (const std::size_t index : request.order) hasher.absorb(index);
      }
    }
    return hasher.digest();
  }
  const std::vector<Cell> cells = workload_cells(workload);
  for (std::size_t r = 0; r < kHashedRequests; ++r) {
    hasher.absorb(stream_request(cells, seed, r));
  }
  return hasher.digest();
}

}  // namespace e2e
