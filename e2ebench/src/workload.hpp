#pragma once

// The benchmark's workloads: generated inputs only.  Everything here is a
// deterministic function of the workload seed, so the program under test
// sees the same requests in the same order for the same seed, and
// workload_hash() lets each result row prove it.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/instance.hpp"
#include "service/wire.hpp"
#include "util/prng.hpp"

namespace e2e {

enum class Workload {
  kSolveCold,  ///< in-process, distinct dense-regime instances (all misses)
  kSolveWide,  ///< in-process, distinct wide-strip instances (kAuto: sparse)
  kServeZipf,  ///< loopback daemon, Zipf repeats over a pool of small instances
};

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(Workload workload);

/// Requests whose instances enter the workload hash (per stream).
inline constexpr std::size_t kHashedRequests = 144;

// ---------------------------------------------------------------------------
// In-process workloads: a grid of (family, n, W) cells, cycled in order.
// ---------------------------------------------------------------------------

struct Cell {
  std::string family;
  std::size_t n = 0;
  dsp::Length width = 0;
};

/// The cells an in-process workload cycles through (empty for serve-zipf).
[[nodiscard]] std::vector<Cell> workload_cells(Workload workload);

/// Draws one instance of a cell's family and size.
[[nodiscard]] dsp::Instance make_cell_instance(const Cell& cell, dsp::Rng& rng);

/// Request `index` of an in-process stream: cell index % cells.size(), with
/// items drawn from stream `index` of the seed, so every request is a
/// distinct instance.
[[nodiscard]] dsp::Instance stream_request(const std::vector<Cell>& cells,
                                           std::uint64_t seed,
                                           std::size_t index);

/// The fixed instance set-up answers before timing starts (independent of
/// the seed, so set-up time compares across seeds).
[[nodiscard]] dsp::Instance warmup_instance(Workload workload);

// ---------------------------------------------------------------------------
// serve-zipf: Zipf-distributed repeats over a pool of small instances.
// ---------------------------------------------------------------------------

inline constexpr double kZipfExponent = 1.1;
inline constexpr std::size_t kZipfClients = 2;
/// Daemon cache budget: about a quarter of the pool's cached bytes.
inline constexpr std::size_t kZipfCacheBytes = 32 << 10;

/// Ranks 0..ranks-1 drawn with probability proportional to 1/(rank+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t ranks, double exponent);

  [[nodiscard]] std::size_t sample(dsp::Rng& rng) const;
  [[nodiscard]] std::size_t ranks() const { return cumulative_.size(); }

 private:
  std::vector<double> cumulative_;
};

struct PoolInstance {
  std::string family;
  dsp::Instance instance;
};

/// The serve-zipf pool and popularity order for one seed: every golden
/// family at its golden-corpus size, many distinct draws each, and a
/// seeded shuffle deciding which pool entry gets which Zipf rank.
struct ZipfTraffic {
  std::vector<PoolInstance> pool;
  std::vector<std::size_t> rank_to_pool;
  ZipfSampler sampler;
};

[[nodiscard]] ZipfTraffic make_zipf_traffic(std::uint64_t seed);

/// One serve-zipf request: a pool entry and the item order it is sent in.
struct ZipfRequest {
  std::size_t pool_index = 0;
  std::vector<std::size_t> order;
};

/// The closed-loop request sequence of one client.
class ZipfStream {
 public:
  ZipfStream(const ZipfTraffic& traffic, std::uint64_t seed,
             std::size_t client);

  [[nodiscard]] ZipfRequest next();

 private:
  const ZipfTraffic* traffic_;
  dsp::Rng rng_;
};

/// `instance` with its items in `order` (item k of the result is item
/// order[k] of the instance, keeping that index as its wire id).
[[nodiscard]] dsp::service::WireInstance permuted_wire(
    const dsp::Instance& instance, const std::vector<std::size_t>& order);

/// Hash of the generated workload for a seed: the serve-zipf pool plus the
/// first kHashedRequests requests of every stream.
[[nodiscard]] std::uint64_t workload_hash(Workload workload,
                                          std::uint64_t seed);

}  // namespace e2e
