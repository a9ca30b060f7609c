#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace dsp {

/// Cache-line / vector-register alignment used by the flat hot-path buffers
/// (StripOccupancy's load array, the window-maxima scratch, the arena's
/// chunks).  64 covers one cache line and any AVX2 access.
inline constexpr std::size_t kHotPathAlignment = 64;

/// Minimal aligned allocator so the flat hot-path storage keeps std::vector
/// ergonomics (growth, size bookkeeping) while guaranteeing aligned bases
/// for the SIMD kernels.
template <typename T, std::size_t Alignment = kHotPathAlignment>
struct AlignedAllocator {
  static_assert(Alignment >= alignof(std::max_align_t) && Alignment <= 128 &&
                    (Alignment & (Alignment - 1)) == 0,
                "the shift to the aligned address must fit in one byte");
  using value_type = T;
  /// Explicit rebind: allocator_traits cannot synthesize one because the
  /// alignment is a non-type template parameter.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  /// Over-allocates by `Alignment` through the plain operator new, rounds
  /// the address up and keeps the shift in the byte below it.  glibc's
  /// aligned operator new (memalign) requests size + alignment + a header
  /// and trims the block back to `size`, so a freed block cannot serve the
  /// next aligned request of the same size unless a neighbour is free too:
  /// solves that build megabyte profiles between long-lived small
  /// allocations grew the heap by gigabytes.  A plain block is reused.
  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > (std::numeric_limits<std::size_t>::max() - Alignment) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    auto* raw =
        static_cast<unsigned char*>(::operator new(n * sizeof(T) + Alignment));
    const std::size_t shift =
        Alignment - reinterpret_cast<std::uintptr_t>(raw) % Alignment;
    unsigned char* out = raw + shift;
    out[-1] = static_cast<unsigned char>(shift);
    return reinterpret_cast<T*>(out);
  }
  void deallocate(T* p, std::size_t) noexcept {
    auto* out = reinterpret_cast<unsigned char*>(p);
    ::operator delete(out - out[-1]);
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Alignment>&) const noexcept {
    return true;
  }
};

/// Aligned flat buffer of Heights/Lengths/doubles: the storage type of every
/// rebuilt hot path.
template <typename T>
using AlignedVec = std::vector<T, AlignedAllocator<T>>;

/// Chunked bump arena for transient hot-path scratch (pricing-DP rows,
/// sliding-window prefix/suffix buffers, realization queues).  One `reset`
/// recycles every allocation without freeing the chunks, so steady-state
/// callers — a solve54 bisection probing dozens of attempts, a pricing loop
/// running dozens of rounds — stop hitting the system allocator entirely.
///
/// Only trivially destructible types may be allocated (nothing is destroyed
/// on reset).  Allocations are valid until the next reset(); the arena never
/// moves live chunks (growth appends a new chunk), so returned pointers are
/// stable.  Not thread-safe: one arena per worker, like every other scratch
/// structure in this repo.
class Arena {
 public:
  explicit Arena(std::size_t first_chunk_bytes = 1 << 16)
      : first_chunk_bytes_(first_chunk_bytes) {}

  /// Allocates `count` value-initialized Ts aligned to kHotPathAlignment.
  template <typename T>
  [[nodiscard]] T* alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is recycled without running destructors");
    const std::size_t bytes = count * sizeof(T);
    T* out = static_cast<T*>(take(bytes));
    for (std::size_t i = 0; i < count; ++i) new (out + i) T();
    return out;
  }

  /// Recycles every allocation; capacity is retained.
  void reset() {
    for (Chunk& chunk : chunks_) chunk.used = 0;
    active_ = 0;
  }

  /// Total bytes currently reserved across chunks (for diagnostics).
  [[nodiscard]] std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const Chunk& chunk : chunks_) total += chunk.size;
    return total;
  }

 private:
  struct Deleter {
    void operator()(std::byte* p) const {
      ::operator delete(p, std::align_val_t(kHotPathAlignment));
    }
  };
  struct Chunk {
    std::unique_ptr<std::byte[], Deleter> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  [[nodiscard]] void* take(std::size_t bytes) {
    const std::size_t aligned =
        (bytes + kHotPathAlignment - 1) & ~(kHotPathAlignment - 1);
    while (active_ < chunks_.size()) {
      Chunk& chunk = chunks_[active_];
      if (chunk.used + aligned <= chunk.size) {
        void* out = chunk.data.get() + chunk.used;
        chunk.used += aligned;
        return out;
      }
      ++active_;
    }
    std::size_t size = chunks_.empty() ? first_chunk_bytes_
                                       : chunks_.back().size * 2;
    if (size < aligned) size = aligned;
    Chunk chunk;
    chunk.data.reset(static_cast<std::byte*>(
        ::operator new(size, std::align_val_t(kHotPathAlignment))));
    chunk.size = size;
    chunk.used = aligned;
    chunks_.push_back(std::move(chunk));
    active_ = chunks_.size() - 1;
    return chunks_.back().data.get();
  }

  std::size_t first_chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;
};

}  // namespace dsp
