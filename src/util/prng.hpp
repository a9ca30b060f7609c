#pragma once

#include <cstdint>
#include <random>

namespace dsp {

/// Deterministic pseudo-random source used by all instance generators and
/// randomized tests.  A thin wrapper over std::mt19937_64 with convenience
/// samplers; seeding is always explicit so every experiment is reproducible.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  /// SplitMix64 finalizer: a bijective avalanche mix, the standard way to
  /// derive well-separated seeds from correlated inputs.
  [[nodiscard]] static std::uint64_t mix_seed(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  /// Deterministic per-task child generator: stream `s` of this Rng's seed.
  /// Independent of how many draws this Rng has made, so parallel tasks can
  /// seed their own Rng from (seed, task index) and reproduce the exact
  /// sequential run regardless of worker scheduling.
  [[nodiscard]] Rng spawn(std::uint64_t stream) const {
    return Rng(mix_seed(seed_ ^ mix_seed(stream)));
  }

  /// Uniform integer in the inclusive range [lo, hi].
  [[nodiscard]] std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi).
  [[nodiscard]] double real(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Index into a discrete distribution given non-negative weights.
  template <typename Container>
  [[nodiscard]] std::size_t weighted(const Container& weights) {
    std::discrete_distribution<std::size_t> d(weights.begin(), weights.end());
    return d(engine_);
  }

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
};

}  // namespace dsp
