#pragma once

// Canonical form and content hashing for the serving layer (DESIGN.md,
// "The serving layer").
//
// Two requests are *semantically identical* when they describe the same
// strip width and the same multiset of (width, height) items — ids, labels
// and item order are presentation.  The canonical form quotients all of
// that out: items sorted by (width, height), ties broken by original
// position (a stable sort), labels stripped.  The content hash is computed
// over the canonical form, so semantically identical requests collide by
// construction and the solve cache dedupes them (cache.hpp).

#include <cstdint>
#include <vector>

#include "core/instance.hpp"
#include "core/packing.hpp"

namespace dsp::service {

/// 128-bit content hash: two independently mixed 64-bit lanes.  Built for
/// dedup (collision probability ~2^-128 across honest requests), not for
/// adversarial collision resistance.
struct Hash128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  [[nodiscard]] bool operator==(const Hash128&) const = default;
};

/// Streaming word hasher behind Hash128 (and the 64-bit params
/// fingerprints): absorb 64-bit words, then take the digest.  The mixing is
/// the SplitMix64 finalizer per lane with distinct lane salts.
class ContentHasher {
 public:
  void absorb(std::uint64_t word);
  void absorb_signed(std::int64_t word) {
    absorb(static_cast<std::uint64_t>(word));
  }
  [[nodiscard]] Hash128 digest() const;
  [[nodiscard]] std::uint64_t digest64() const;

 private:
  std::uint64_t hi_ = 0x243f6a8885a308d3ull;  // pi digits: arbitrary, fixed
  std::uint64_t lo_ = 0x13198a2e03707344ull;
  std::uint64_t words_ = 0;
};

/// An instance in canonical item order, plus the permutation that links it
/// back to the request it came from.
struct CanonicalForm {
  Instance instance;
  /// `original_index[p]` = the requester's item index sitting at canonical
  /// position p.  Stable on (width, height) ties, so the mapping is a
  /// deterministic function of the request.
  std::vector<std::size_t> original_index;
};

/// Sorts items by (width, height), stable in the original order.
[[nodiscard]] CanonicalForm canonicalize(const Instance& instance);

/// Content hash of the canonical form: invariant under item permutation and
/// label/id renaming, sensitive to the strip width and every (width,
/// height) multiplicity.
[[nodiscard]] Hash128 canonical_hash(const Instance& instance);
/// canonical_hash(form.instance), without sorting the already-canonical
/// items a second time.
[[nodiscard]] Hash128 canonical_hash(const CanonicalForm& form);

/// Maps a packing of the canonical instance back to the requester's item
/// order: item `original_index[p]` starts where canonical item p starts.
/// Peak and feasibility are preserved (same multiset of placed rectangles).
[[nodiscard]] Packing restore_item_order(const CanonicalForm& form,
                                         const Packing& canonical_packing);

}  // namespace dsp::service
