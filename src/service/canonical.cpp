#include "service/canonical.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"
#include "util/prng.hpp"

namespace dsp::service {

namespace {

/// The canonical item order: by width, then height, then original position
/// (the stable tie-break that makes the permutation deterministic).
[[nodiscard]] std::vector<std::size_t> sorted_order(
    std::span<const Item> items) {
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&items](std::size_t a, std::size_t b) {
              if (items[a].width != items[b].width) {
                return items[a].width < items[b].width;
              }
              if (items[a].height != items[b].height) {
                return items[a].height < items[b].height;
              }
              return a < b;
            });
  return order;
}

[[nodiscard]] CanonicalForm canonicalize_items(Length strip_width,
                                               std::span<const Item> items) {
  std::vector<std::size_t> order = sorted_order(items);
  std::vector<Item> sorted;
  sorted.reserve(items.size());
  for (const std::size_t index : order) sorted.push_back(items[index]);
  return CanonicalForm{Instance(strip_width, std::move(sorted)),
                       std::move(order)};
}

/// Digest of the strip width, the item count and the (width, height)
/// stream of `instance.item(index(p))` for p = 0, 1, ...
template <typename Index>
[[nodiscard]] Hash128 hash_stream(const Instance& instance, Index index) {
  ContentHasher hasher;
  hasher.absorb_signed(instance.strip_width());
  hasher.absorb(instance.size());
  for (std::size_t p = 0; p < instance.size(); ++p) {
    const Item& item = instance.item(index(p));
    hasher.absorb_signed(item.width);
    hasher.absorb_signed(item.height);
  }
  return hasher.digest();
}

}  // namespace

void ContentHasher::absorb(std::uint64_t word) {
  // Each lane folds the word in under a different salt before the SplitMix64
  // finalizer; the lanes never see the same pre-mix value, so they stay
  // independent across any absorb sequence.
  hi_ = Rng::mix_seed(hi_ ^ word);
  lo_ = Rng::mix_seed(lo_ + (word ^ 0x9e3779b97f4a7c15ull));
  ++words_;
}

Hash128 ContentHasher::digest() const {
  // Length-extension guard: the word count is folded in at the end, so
  // absorbing {a} never collides with {a, 0}.
  Hash128 digest;
  digest.hi = Rng::mix_seed(hi_ ^ Rng::mix_seed(words_));
  digest.lo = Rng::mix_seed(lo_ + Rng::mix_seed(~words_));
  return digest;
}

std::uint64_t ContentHasher::digest64() const {
  const Hash128 full = digest();
  return full.hi ^ Rng::mix_seed(full.lo);
}

CanonicalForm canonicalize(const Instance& instance) {
  return canonicalize_items(instance.strip_width(), instance.items());
}

Hash128 canonical_hash(const Instance& instance) {
  // Hash the sorted (width, height) stream directly — building the full
  // CanonicalForm (and a second Instance) is not needed for the digest.
  const std::vector<std::size_t> order = sorted_order(instance.items());
  return hash_stream(instance, [&](std::size_t p) { return order[p]; });
}

Hash128 canonical_hash(const CanonicalForm& form) {
  // The form is already in canonical order: hash it as it stands.
  return hash_stream(form.instance, [](std::size_t p) { return p; });
}

Packing restore_item_order(const CanonicalForm& form,
                           const Packing& canonical_packing) {
  DSP_REQUIRE(canonical_packing.start.size() == form.original_index.size(),
              "canonical packing has " << canonical_packing.start.size()
                                       << " starts for "
                                       << form.original_index.size()
                                       << " items");
  Packing restored;
  restored.start.resize(canonical_packing.start.size());
  for (std::size_t p = 0; p < canonical_packing.start.size(); ++p) {
    restored.start[form.original_index[p]] = canonical_packing.start[p];
  }
  return restored;
}

}  // namespace dsp::service
