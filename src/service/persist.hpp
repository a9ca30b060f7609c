#pragma once

// Cache persistence: the at-rest encoding of SolveCache entries and the
// snapshot + append-log store behind the dsp_served daemon (DESIGN.md,
// "The serving daemon").
//
// The at-rest format reuses the DSPW binary vocabulary (binary_codec.hpp:
// little-endian fixed-width integers, length-prefixed strings):
//
//   file    := "DSPC" u8 version  u8 kind(1 = snapshot, 2 = log)  entry*
//   entry   := u32 payload_len  payload
//   payload := u64 hash_hi  u64 hash_lo  u64 params_fingerprint
//              i64 peak  str winner  u64 n  i64 start[n]
//
// Crash-recovery argument: the log is append-only and each entry is
// length-prefixed, so a crash mid-append leaves a *detectably* torn tail —
// the loader stops at the first short record, keeps every complete entry,
// and reports `truncated_tail` (the in-flight answer is simply recomputed
// on its next request).  Snapshots are written to a temporary file and
// renamed into place, which is atomic on POSIX: a reader sees either the
// old snapshot or the new one, never a torn one — so a torn snapshot is
// real corruption and the loader throws instead of silently serving a
// partial cache.  Warm boot = load snapshot, replay log over it (later
// entries win), then compact (fresh snapshot, truncated log).

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "runtime/sync.hpp"
#include "service/cache.hpp"

namespace dsp::service {

/// Version byte of the at-rest cache encoding; bump on any layout or
/// key-derivation change so a stale store is rejected, not misread.
inline constexpr std::uint8_t kPersistVersion = 1;

enum class PersistKind : std::uint8_t {
  kSnapshot = 1,
  kLog = 2,
};

/// One at-rest cache entry (the owning twin of CacheEntryView).
struct PersistedEntry {
  CacheKey key;
  CachedSolve value;
};

struct PersistLoad {
  std::vector<PersistedEntry> entries;
  /// True when the stream ended inside a record (torn log tail after a
  /// crash); the complete prefix is in `entries`.
  bool truncated_tail = false;
};

/// Serializes `entries` as one `kind` stream.
void save_entries(std::ostream& os, PersistKind kind,
                  const std::vector<CacheEntryView>& entries);

/// Parses and validates a persisted stream.  `kind` must match the file's
/// kind byte.  A torn tail throws for snapshots (they are renamed into
/// place whole) and is tolerated for logs (see the header comment).
[[nodiscard]] PersistLoad load_entries(std::istream& is, PersistKind kind,
                                       const std::string& source);

/// The snapshot + append-log store over a state directory:
///
///   <dir>/cache.snapshot — full cache image, atomically replaced
///   <dir>/cache.log      — entries inserted since the last snapshot
///
/// Thread-safe: `append` (the cache's insert observer) may race `append`
/// from other solves; `warm_load`/`compact` are serialized with it by the
/// store mutex.  Compaction runs automatically every kSnapshotEvery
/// appends, so the log stays short and a warm boot replays little.
class PersistentStore {
 public:
  /// Log appends between automatic compactions.
  static constexpr std::size_t kSnapshotEvery = 256;

  /// Creates `dir` if needed.  Throws InvalidInput when the directory
  /// cannot be created or an existing store is corrupt/unreadable.
  explicit PersistentStore(std::string dir);
  ~PersistentStore();

  PersistentStore(const PersistentStore&) = delete;
  PersistentStore& operator=(const PersistentStore&) = delete;

  /// Loads snapshot + log into `cache` (log entries win), then compacts.
  /// Returns the number of entries now resident from disk.  Call once, at
  /// boot, before the cache is shared.
  std::size_t warm_load(SolveCache& cache);

  /// Appends one freshly computed entry to the log (flushed per append);
  /// every kSnapshotEvery appends, compacts against `cache`.  Wire this
  /// as the cache's insert observer.
  void append(const SolveCache& cache, const CacheKey& key,
              const CachedSolve& value);

  /// Snapshots `cache` atomically and truncates the log.  Also called on
  /// daemon drain so a clean shutdown restarts from a pure snapshot.
  void compact(const SolveCache& cache);

  /// True when the last warm_load recovered a torn log tail.
  [[nodiscard]] bool recovered_truncated_log() const;
  [[nodiscard]] std::uint64_t appends() const;
  [[nodiscard]] std::uint64_t compactions() const;

  [[nodiscard]] std::string snapshot_path() const;
  [[nodiscard]] std::string log_path() const;

 private:
  void compact_locked(const SolveCache& cache) DSP_REQUIRES(mutex_);
  void open_log_locked(bool truncate) DSP_REQUIRES(mutex_);

  const std::string dir_;

  mutable runtime::Mutex mutex_;
  std::ofstream log_ DSP_GUARDED_BY(mutex_);
  std::size_t appends_since_compact_ DSP_GUARDED_BY(mutex_) = 0;
  std::uint64_t appends_ DSP_GUARDED_BY(mutex_) = 0;
  std::uint64_t compactions_ DSP_GUARDED_BY(mutex_) = 0;
  bool recovered_truncated_log_ DSP_GUARDED_BY(mutex_) = false;
};

}  // namespace dsp::service
