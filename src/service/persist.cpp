#include "service/persist.hpp"

#include <array>
#include <cstring>
#include <filesystem>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "service/binary_codec.hpp"
#include "util/check.hpp"

namespace dsp::service {

namespace {

constexpr std::array<char, 4> kPersistMagic = {'D', 'S', 'P', 'C'};

[[nodiscard]] std::string_view kind_name(PersistKind kind) {
  return kind == PersistKind::kSnapshot ? "snapshot" : "log";
}

[[nodiscard]] std::string encode_entry(const CacheKey& key,
                                       const CachedSolve& value) {
  detail::BinaryWriter payload;
  payload.u64(key.instance_hash.hi);
  payload.u64(key.instance_hash.lo);
  payload.u64(key.params_fingerprint);
  payload.i64(value.peak);
  payload.str(value.winner);
  payload.u64(value.packing.start.size());
  for (const Length start : value.packing.start) payload.i64(start);

  detail::BinaryWriter framed;
  DSP_REQUIRE(payload.bytes().size() <= 0xffffffffull,
              "persisted cache entry too large: " << payload.bytes().size()
                                                  << " bytes");
  framed.u32(static_cast<std::uint32_t>(payload.bytes().size()));
  framed.raw(payload.bytes());
  return framed.take();
}

[[nodiscard]] PersistedEntry decode_entry(std::string payload,
                                          const std::string& source) {
  detail::BinaryReader reader(std::move(payload), source);
  PersistedEntry entry;
  entry.key.instance_hash.hi = reader.u64();
  entry.key.instance_hash.lo = reader.u64();
  entry.key.params_fingerprint = reader.u64();
  entry.value.peak = reader.i64();
  entry.value.winner = reader.str();
  const std::size_t count = reader.count(8);
  entry.value.packing.start.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    entry.value.packing.start.push_back(reader.i64());
  }
  reader.done();
  return entry;
}

[[nodiscard]] std::string slurp(std::istream& is, const std::string& source) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  DSP_REQUIRE(!is.bad(), source << ": stream read failed");
  return std::move(buffer).str();
}

}  // namespace

void save_entries(std::ostream& os, PersistKind kind,
                  const std::vector<CacheEntryView>& entries) {
  detail::BinaryWriter header;
  header.raw(std::string_view(kPersistMagic.data(), kPersistMagic.size()));
  header.u8(kPersistVersion);
  header.u8(static_cast<std::uint8_t>(kind));
  os << header.bytes();
  for (const CacheEntryView& entry : entries) {
    os << encode_entry(entry.key, *entry.value);
  }
}

PersistLoad load_entries(std::istream& is, PersistKind kind,
                         const std::string& source) {
  detail::BinaryReader reader(slurp(is, source), source);
  const std::string_view magic =
      reader.raw(kPersistMagic.size(), "persist magic");
  if (std::memcmp(magic.data(), kPersistMagic.data(), kPersistMagic.size()) !=
      0) {
    reader.fail("bad magic (not a DSPC persisted-cache file)", 0);
  }
  const std::uint8_t version = reader.u8();
  if (version != kPersistVersion) {
    reader.fail("unsupported persist version " + std::to_string(version) +
                    " (this build reads version " +
                    std::to_string(kPersistVersion) + ")",
                reader.offset() - 1);
  }
  const std::uint8_t file_kind = reader.u8();
  if (file_kind != static_cast<std::uint8_t>(kind)) {
    reader.fail("file kind " + std::to_string(file_kind) + " is not a " +
                    std::string(kind_name(kind)) + " file",
                reader.offset() - 1);
  }

  PersistLoad load;
  while (reader.remaining() > 0) {
    // A torn tail is detectable by construction: either the 4-byte length
    // prefix or the payload it promises is short.
    if (reader.remaining() < 4) {
      load.truncated_tail = true;
      break;
    }
    const std::uint32_t length = reader.u32();
    if (reader.remaining() < length) {
      load.truncated_tail = true;
      break;
    }
    const std::string_view payload = reader.raw(length, "entry payload");
    load.entries.push_back(decode_entry(std::string(payload), source));
  }
  if (load.truncated_tail && kind == PersistKind::kSnapshot) {
    // Snapshots are renamed into place whole; a torn one is corruption,
    // not a crash artifact.
    throw InvalidInput(source + ": snapshot has a truncated trailing entry");
  }
  return load;
}

// ---------------------------------------------------------------------------
// PersistentStore.
// ---------------------------------------------------------------------------

PersistentStore::PersistentStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  DSP_REQUIRE(!ec, dir_ << ": cannot create state directory: " << ec.message());
}

PersistentStore::~PersistentStore() = default;

std::string PersistentStore::snapshot_path() const {
  return dir_ + "/cache.snapshot";
}

std::string PersistentStore::log_path() const { return dir_ + "/cache.log"; }

std::size_t PersistentStore::warm_load(SolveCache& cache) {
  const runtime::MutexLock lock(mutex_);
  std::size_t loaded = 0;
  if (std::filesystem::exists(snapshot_path())) {
    std::ifstream is(snapshot_path(), std::ios::binary);
    DSP_REQUIRE(is.good(), snapshot_path() << ": cannot open for reading");
    PersistLoad snapshot =
        load_entries(is, PersistKind::kSnapshot, snapshot_path());
    for (PersistedEntry& entry : snapshot.entries) {
      cache.insert(entry.key, std::move(entry.value));
      ++loaded;
    }
  }
  if (std::filesystem::exists(log_path())) {
    std::ifstream is(log_path(), std::ios::binary);
    DSP_REQUIRE(is.good(), log_path() << ": cannot open for reading");
    PersistLoad log = load_entries(is, PersistKind::kLog, log_path());
    recovered_truncated_log_ = log.truncated_tail;
    for (PersistedEntry& entry : log.entries) {
      // Replay over the snapshot: a key present in both takes the log's
      // (younger) value and the log's recency.
      cache.insert(entry.key, std::move(entry.value));
      ++loaded;
    }
  }
  // Boot-time compaction: restart from a pure snapshot so the log never
  // grows across restarts (and a recovered torn tail is discarded now).
  compact_locked(cache);
  return loaded;
}

void PersistentStore::append(const SolveCache& cache, const CacheKey& key,
                             const CachedSolve& value) {
  const runtime::MutexLock lock(mutex_);
  if (!log_.is_open()) open_log_locked(/*truncate=*/false);
  log_ << encode_entry(key, value);
  log_.flush();
  DSP_REQUIRE(log_.good(), log_path() << ": append failed");
  ++appends_;
  if (++appends_since_compact_ >= kSnapshotEvery) compact_locked(cache);
}

void PersistentStore::compact(const SolveCache& cache) {
  const runtime::MutexLock lock(mutex_);
  compact_locked(cache);
}

void PersistentStore::compact_locked(const SolveCache& cache) {
  // Write the full image beside the live snapshot, then rename over it:
  // atomic on POSIX, so a crash at any point leaves a whole snapshot.
  const std::string tmp = snapshot_path() + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    DSP_REQUIRE(os.good(), tmp << ": cannot open for writing");
    save_entries(os, PersistKind::kSnapshot, cache.export_entries());
    os.flush();
    DSP_REQUIRE(os.good(), tmp << ": write failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, snapshot_path(), ec);
  DSP_REQUIRE(!ec, snapshot_path()
                       << ": cannot replace snapshot: " << ec.message());
  // The snapshot now covers everything the log held; truncate it.  A crash
  // between the rename and this truncation only means some log entries are
  // replayed onto a snapshot that already has them — insert() is
  // idempotent, so recovery stays correct.
  open_log_locked(/*truncate=*/true);
  appends_since_compact_ = 0;
  ++compactions_;
}

void PersistentStore::open_log_locked(bool truncate) {
  if (log_.is_open()) log_.close();
  std::error_code ec;
  const bool fresh = truncate ||
                     !std::filesystem::exists(log_path(), ec) ||
                     std::filesystem::file_size(log_path(), ec) == 0;
  log_.open(log_path(), std::ios::binary |
                            (truncate ? std::ios::trunc : std::ios::app));
  DSP_REQUIRE(log_.good(), log_path() << ": cannot open for appending");
  // A fresh/empty log gets its header; an appended-to log keeps its own.
  if (fresh) {
    save_entries(log_, PersistKind::kLog, {});
    log_.flush();
    DSP_REQUIRE(log_.good(), log_path() << ": cannot write log header");
  }
}

bool PersistentStore::recovered_truncated_log() const {
  const runtime::MutexLock lock(mutex_);
  return recovered_truncated_log_;
}

std::uint64_t PersistentStore::appends() const {
  const runtime::MutexLock lock(mutex_);
  return appends_;
}

std::uint64_t PersistentStore::compactions() const {
  const runtime::MutexLock lock(mutex_);
  return compactions_;
}

}  // namespace dsp::service
