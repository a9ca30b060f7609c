// The serving daemon and its supporting layers: admission control
// (bounded queue, shed, drain), cache persistence (snapshot + log
// round-trip, torn-tail crash recovery, warm restart), the strict CLI
// helpers shared by the serving executables, and dsp_served end-to-end
// over real loopback TCP — including the concurrent-client soak the
// sanitizer jobs lean on, a retired frame type answered as unknown, and
// accept under descriptor exhaustion.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/smart_grid.hpp"
#include "obs/metrics.hpp"
#include "runtime/admission.hpp"
#include "service/cli.hpp"
#include "service/daemon.hpp"
#include "service/frame_codec.hpp"
#include "service/persist.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

#include "cache_outcome_print.hpp"

namespace dsp::service {
namespace {

using obs::exposition_sample;
using runtime::AdmissionGate;

CacheKey key_of(std::uint64_t a, std::uint64_t fingerprint = 1) {
  return CacheKey{Hash128{a, ~a}, fingerprint};
}

CachedSolve solve_of(Height peak, std::string winner = "test") {
  CachedSolve solve;
  solve.packing.start = {0, static_cast<Length>(peak), 2 * peak};
  solve.peak = peak;
  solve.winner = std::move(winner);
  return solve;
}

/// A unique, auto-removed state directory per test.
class StateDir {
 public:
  explicit StateDir(const std::string& tag)
      : path_((std::filesystem::temp_directory_path() /
               ("dsp_test_" + tag + "_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                  .string()) {
    std::filesystem::remove_all(path_);
  }
  ~StateDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

WireInstance small_wire(std::uint64_t seed) {
  Rng rng(9000 + seed);
  return WireInstance::from_instance(gen::smart_grid(24, 96, rng),
                                     "inst-" + std::to_string(seed));
}

// ---------------------------------------------------------------------------
// AdmissionGate.
// ---------------------------------------------------------------------------

TEST(AdmissionGateTest, AdmitsUpToCapacityThenSheds) {
  AdmissionGate gate(/*capacity=*/2, /*max_queue=*/0);
  ASSERT_EQ(gate.enter(), AdmissionGate::Ticket::kAdmitted);
  ASSERT_EQ(gate.enter(), AdmissionGate::Ticket::kAdmitted);
  // Capacity reached, queue size zero: immediate shed.
  EXPECT_EQ(gate.enter(), AdmissionGate::Ticket::kShed);
  gate.leave();
  EXPECT_EQ(gate.enter(), AdmissionGate::Ticket::kAdmitted);
  gate.leave();
  gate.leave();
  const AdmissionGate::Counters counters = gate.counters();
  EXPECT_EQ(counters.admitted, 3u);
  EXPECT_EQ(counters.shed, 1u);
  EXPECT_EQ(counters.active, 0u);
}

TEST(AdmissionGateTest, QueuedCallerRunsWhenASlotFrees) {
  AdmissionGate gate(/*capacity=*/1, /*max_queue=*/1);
  ASSERT_EQ(gate.enter(), AdmissionGate::Ticket::kAdmitted);
  std::atomic<bool> queued_ran{false};
  std::thread queued([&]() {
    const AdmissionGate::Ticket ticket = gate.enter();  // blocks in the queue
    EXPECT_EQ(ticket, AdmissionGate::Ticket::kAdmitted);
    queued_ran.store(true);
    gate.leave();
  });
  // Wait until the thread is actually waiting, then shed a third caller.
  while (gate.counters().waiting == 0) std::this_thread::yield();
  EXPECT_FALSE(queued_ran.load());
  EXPECT_EQ(gate.enter(), AdmissionGate::Ticket::kShed);
  gate.leave();
  queued.join();
  EXPECT_TRUE(queued_ran.load());
  const AdmissionGate::Counters counters = gate.counters();
  EXPECT_EQ(counters.queued, 1u);
  EXPECT_EQ(counters.peak_waiting, 1u);
}

TEST(AdmissionGateTest, CloseRejectsNewButQueuedCallersComplete) {
  AdmissionGate gate(/*capacity=*/1, /*max_queue=*/4);
  ASSERT_EQ(gate.enter(), AdmissionGate::Ticket::kAdmitted);
  std::atomic<int> completed{0};
  std::thread queued([&]() {
    EXPECT_EQ(gate.enter(), AdmissionGate::Ticket::kAdmitted);
    ++completed;
    gate.leave();
  });
  while (gate.counters().waiting == 0) std::this_thread::yield();
  gate.close();
  // Drain semantics: the queued caller is grandfathered, new ones are not.
  EXPECT_EQ(gate.enter(), AdmissionGate::Ticket::kClosed);
  gate.leave();
  queued.join();
  EXPECT_EQ(completed.load(), 1);
  EXPECT_EQ(gate.counters().closed_rejects, 1u);
}

TEST(AdmissionGateTest, ConcurrentEnterLeaveNeverExceedsCapacity) {
  constexpr std::size_t kCapacity = 3;
  AdmissionGate gate(kCapacity, /*max_queue=*/64);
  std::atomic<std::size_t> inside{0};
  std::atomic<bool> overflowed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 200; ++i) {
        const runtime::AdmissionSlot slot(gate, gate.enter());
        if (slot.ticket() != AdmissionGate::Ticket::kAdmitted) continue;
        if (inside.fetch_add(1) + 1 > kCapacity) overflowed.store(true);
        inside.fetch_sub(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(overflowed.load());
  EXPECT_EQ(gate.counters().active, 0u);
}

// ---------------------------------------------------------------------------
// CLI helpers (the strict-parsing and path-diagnostic bugfixes).
// ---------------------------------------------------------------------------

TEST(CliHelpersTest, ParseIntegerRejectsTrailingGarbage) {
  // Regression: std::stoll silently accepted "4x" as 4, so a mistyped
  // "--max-queue 4x" was served with a queue of 4 instead of failing.
  EXPECT_EQ(parse_integer("4"), 4);
  EXPECT_EQ(parse_integer("0"), 0);
  EXPECT_EQ(parse_integer("-17"), -17);
  EXPECT_FALSE(parse_integer("4x").has_value());
  EXPECT_FALSE(parse_integer("x4").has_value());
  EXPECT_FALSE(parse_integer("4 ").has_value());
  EXPECT_FALSE(parse_integer(" 4").has_value());
  EXPECT_FALSE(parse_integer("").has_value());
  EXPECT_FALSE(parse_integer("-").has_value());
  EXPECT_FALSE(parse_integer("4.5").has_value());
  EXPECT_FALSE(parse_integer("99999999999999999999").has_value());  // overflow
}

TEST(CliHelpersTest, CacheMbRejectsZeroAndOverflow) {
  // Regression: both front doors computed `cache_mb << 20` unchecked, so
  // 2^44 wrapped to a zero-byte cache and 2^44 + 1 to a silent 1 MiB one.
  EXPECT_EQ(cache_mb_to_bytes(1), std::size_t{1} << 20);
  EXPECT_EQ(cache_mb_to_bytes(64), std::size_t{64} << 20);
  EXPECT_EQ(cache_mb_to_bytes(kMaxCacheMb), kMaxCacheMb << 20);
  EXPECT_EQ(kMaxCacheMb, std::numeric_limits<std::size_t>::max() >> 20);
  EXPECT_FALSE(cache_mb_to_bytes(0).has_value());
  EXPECT_FALSE(cache_mb_to_bytes(kMaxCacheMb + 1).has_value());  // 2^44
  EXPECT_FALSE(cache_mb_to_bytes(kMaxCacheMb + 2).has_value());  // 2^44 + 1
  EXPECT_FALSE(cache_mb_to_bytes(std::numeric_limits<std::size_t>::max())
                   .has_value());
}

TEST(CliHelpersTest, ExpandPathsDiagnosesMissingAndEmptyPaths) {
  StateDir dir("expand");
  std::filesystem::create_directories(dir.path());
  // Regression: a nonexistent path used to be treated as a file and only
  // failed at load time; now expansion itself names the offender.
  EXPECT_THROW(expand_instance_paths({dir.path() + "/no_such_file.json"}),
               InvalidInput);
  // A directory with no instance files is an error naming the directory,
  // not a silently empty serve.
  EXPECT_THROW(expand_instance_paths({dir.path()}), InvalidInput);

  save_instance_file(dir.path() + "/b.json", small_wire(1), WireFormat::kJson);
  save_instance_file(dir.path() + "/a.json", small_wire(2), WireFormat::kJson);
  std::ofstream(dir.path() + "/notes.txt") << "ignored";
  const std::vector<std::string> files = expand_instance_paths({dir.path()});
  ASSERT_EQ(files.size(), 2u);  // sorted, non-instance files skipped
  EXPECT_EQ(files[0], dir.path() + "/a.json");
  EXPECT_EQ(files[1], dir.path() + "/b.json");
}

// ---------------------------------------------------------------------------
// Persistence: the at-rest encoding and the snapshot + log store.
// ---------------------------------------------------------------------------

TEST(PersistTest, SaveLoadRoundTripsEntriesBitExactly) {
  SolveCache cache(CacheOptions{1 << 20});
  (void)cache.get_or_compute(key_of(1),
                             []() { return solve_of(7, "steinberg"); });
  (void)cache.get_or_compute(key_of(2), []() { return solve_of(9, "nfdh"); });

  std::stringstream stream;
  save_entries(stream, PersistKind::kSnapshot, cache.export_entries());
  const PersistLoad load =
      load_entries(stream, PersistKind::kSnapshot, "<test>");
  EXPECT_FALSE(load.truncated_tail);
  ASSERT_EQ(load.entries.size(), 2u);
  for (const PersistedEntry& entry : load.entries) {
    const auto lookup = cache.get_or_compute(
        entry.key, []() -> CachedSolve { throw InvalidInput("must hit"); });
    EXPECT_EQ(lookup.outcome, CacheOutcome::kHit);
    EXPECT_EQ(lookup.value->peak, entry.value.peak);
    EXPECT_EQ(lookup.value->winner, entry.value.winner);
    EXPECT_EQ(lookup.value->packing.start, entry.value.packing.start);
  }
}

TEST(PersistTest, KindAndVersionAreValidated) {
  SolveCache cache(CacheOptions{1 << 20});
  (void)cache.get_or_compute(key_of(1), []() { return solve_of(7); });
  std::stringstream stream;
  save_entries(stream, PersistKind::kLog, cache.export_entries());
  // A log file is not a snapshot.
  EXPECT_THROW(load_entries(stream, PersistKind::kSnapshot, "<test>"),
               InvalidInput);
  std::istringstream garbage("not a DSPC file at all");
  EXPECT_THROW(load_entries(garbage, PersistKind::kLog, "<test>"),
               InvalidInput);
}

TEST(PersistTest, TornLogTailIsRecoveredTornSnapshotThrows) {
  SolveCache cache(CacheOptions{1 << 20});
  (void)cache.get_or_compute(key_of(1), []() { return solve_of(7); });
  (void)cache.get_or_compute(key_of(2), []() { return solve_of(9); });
  std::stringstream stream;
  save_entries(stream, PersistKind::kLog, cache.export_entries());
  std::string bytes = stream.str();
  bytes.resize(bytes.size() - 5);  // crash mid-append: torn final entry

  // Log: the complete prefix loads, the torn tail is reported.
  std::istringstream torn_log(bytes);
  const PersistLoad load = load_entries(torn_log, PersistKind::kLog, "<test>");
  EXPECT_TRUE(load.truncated_tail);
  EXPECT_EQ(load.entries.size(), 1u);

  // Snapshot: renamed into place whole, so the same tear is corruption.
  bytes[5] = static_cast<char>(PersistKind::kSnapshot);
  std::istringstream torn_snapshot(bytes);
  EXPECT_THROW(load_entries(torn_snapshot, PersistKind::kSnapshot, "<test>"),
               InvalidInput);
}

TEST(PersistTest, StoreWarmLoadEqualsLiveCacheAcrossRestart) {
  StateDir dir("store");
  const CacheOptions cache_options{1 << 20};
  constexpr std::uint64_t kKeys = PersistentStore::kSnapshotEvery + 3;
  {
    SolveCache cache(cache_options);
    PersistentStore store(dir.path());
    EXPECT_EQ(store.warm_load(cache), 0u);
    const std::uint64_t boot_compactions = store.compactions();
    cache.set_insert_observer(
        [&](const CacheKey& key,
            const std::shared_ptr<const CachedSolve>& value) {
          store.append(cache, key, *value);
        });
    for (std::uint64_t k = 1; k <= kKeys; ++k) {
      (void)cache.get_or_compute(key_of(k), [k]() {
        return solve_of(static_cast<Height>(k),
                        std::string("w").append(std::to_string(k)));
      });
    }
    // kSnapshotEvery + 3 appends: one automatic compaction happened and the
    // log holds the 3-entry tail.
    EXPECT_EQ(store.appends(), kKeys);
    EXPECT_EQ(store.compactions(), boot_compactions + 1);
  }
  // "Restart": a fresh cache warm-loaded from disk equals the live one,
  // bit for bit, for every key.
  SolveCache restarted(cache_options);
  PersistentStore store(dir.path());
  EXPECT_EQ(store.warm_load(restarted), kKeys);
  EXPECT_FALSE(store.recovered_truncated_log());
  const CacheStats stats = restarted.stats();
  EXPECT_EQ(stats.entries, kKeys);
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    const auto lookup = restarted.get_or_compute(
        key_of(k), []() -> CachedSolve { throw InvalidInput("must hit"); });
    EXPECT_EQ(lookup.outcome, CacheOutcome::kHit);
    EXPECT_EQ(lookup.value->peak, static_cast<Height>(k));
    EXPECT_EQ(lookup.value->winner, std::string("w").append(std::to_string(k)));
  }
}

TEST(PersistTest, CrashTornLogTailIsDroppedOnWarmLoad) {
  StateDir dir("torn");
  {
    SolveCache cache(CacheOptions{1 << 20});
    PersistentStore store(dir.path());
    (void)store.warm_load(cache);
    cache.set_insert_observer(
        [&](const CacheKey& key,
            const std::shared_ptr<const CachedSolve>& value) {
          store.append(cache, key, *value);
        });
    (void)cache.get_or_compute(key_of(1), []() { return solve_of(1); });
    (void)cache.get_or_compute(key_of(2), []() { return solve_of(2); });
    // Simulate the crash: the store object dies with the log un-compacted.
  }
  // Tear the last log record (a mid-append crash).
  const std::string log_path = dir.path() + "/cache.log";
  const auto size = std::filesystem::file_size(log_path);
  std::filesystem::resize_file(log_path, size - 3);

  SolveCache cache(CacheOptions{1 << 20});
  PersistentStore store(dir.path());
  EXPECT_EQ(store.warm_load(cache), 1u);  // the complete entry survives
  EXPECT_TRUE(store.recovered_truncated_log());
  EXPECT_EQ(cache.stats().entries, 1u);
  // Recovery re-compacted: the next warm load is clean.
  SolveCache again(CacheOptions{1 << 20});
  PersistentStore clean(dir.path());
  EXPECT_EQ(clean.warm_load(again), 1u);
  EXPECT_FALSE(clean.recovered_truncated_log());
}

// ---------------------------------------------------------------------------
// The daemon end-to-end, over real loopback TCP.
// ---------------------------------------------------------------------------

DaemonOptions test_options() {
  DaemonOptions options;
  options.cache.capacity_bytes = 4 << 20;
  options.max_queue = 64;
  return options;
}

TEST(DaemonTest, ServesSolveAndStatsOverTcp) {
  Daemon daemon(test_options());
  daemon.start();
  DaemonClient client(daemon.port());

  const WireInstance wire = small_wire(1);
  const SolveResponse first = client.solve(wire);
  EXPECT_EQ(first.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(first.packing.start.size(), wire.items.size());
  const SolveResponse second = client.solve(wire, WireFormat::kJson);
  EXPECT_EQ(second.outcome, CacheOutcome::kHit);
  // Binary and JSON requests are the same request: identical payloads.
  EXPECT_EQ(second.peak, first.peak);
  EXPECT_EQ(second.winner, first.winner);
  EXPECT_EQ(second.packing.start, first.packing.start);

  // The daemon's solver is the only CachingSolver alive, so the cache.*
  // samples are its own.
  const std::string metrics = client.metrics();
  EXPECT_EQ(exposition_sample(metrics, "serve.engine"),
            static_cast<std::uint64_t>(ServeEngine::kPortfolio));
  EXPECT_EQ(exposition_sample(metrics, "cache.misses"), 1u);
  EXPECT_EQ(exposition_sample(metrics, "cache.hits"), 1u);
  EXPECT_EQ(exposition_sample(metrics, "daemon.served"), 2u);
  EXPECT_EQ(exposition_sample(metrics, "daemon.draining"), 0u);
  daemon.stop();
}

TEST(DaemonTest, ResponsesMatchLocalCachingSolverBitExactly) {
  // The byte-identity contract behind the golden-corpus CI diff: the
  // daemon's answer over TCP equals a local CachingSolver's.
  const DaemonOptions options = test_options();
  Daemon daemon(options);
  daemon.start();
  DaemonClient client(daemon.port());
  CachingSolver local(options.serve, options.cache);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const WireInstance wire = small_wire(seed);
    const SolveResponse remote = client.solve(wire);
    const SolveResponse expected = local.solve(wire.to_instance());
    EXPECT_EQ(remote.peak, expected.peak);
    EXPECT_EQ(remote.winner, expected.winner);
    EXPECT_EQ(remote.packing.start, expected.packing.start);
  }
  daemon.stop();
}

TEST(DaemonTest, InvalidRequestGetsAnErrorFrameAndConnectionSurvives) {
  Daemon daemon(test_options());
  daemon.start();
  DaemonClient client(daemon.port());
  WireInstance bad = small_wire(1);
  bad.items[0].width = -5;  // invalid geometry: load_instance rejects it
  EXPECT_THROW((void)client.solve(bad), InvalidInput);
  // The error was answered in-band; the same connection keeps serving.
  const SolveResponse good = client.solve(small_wire(2));
  EXPECT_GT(good.packing.start.size(), 0u);
  EXPECT_EQ(exposition_sample(client.metrics(), "daemon.errors"), 1u);
  daemon.stop();
}

TEST(DaemonTest, WarmRestartKeepsTheCacheBitExactly) {
  StateDir dir("daemon_warm");
  DaemonOptions options = test_options();
  options.persist_dir = dir.path();

  std::vector<SolveResponse> cold;
  {
    Daemon daemon(options);
    daemon.start();
    DaemonClient client(daemon.port());
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      cold.push_back(client.solve(small_wire(seed)));
      EXPECT_EQ(cold.back().outcome, CacheOutcome::kMiss);
    }
    daemon.stop();  // graceful drain compacts the store
  }
  {
    Daemon daemon(options);
    daemon.start();
    EXPECT_EQ(daemon.stats().warm_loaded, 3u);
    DaemonClient client(daemon.port());
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const SolveResponse warm = client.solve(small_wire(seed));
      // Every request hits the restored cache with the identical payload.
      EXPECT_EQ(warm.outcome, CacheOutcome::kHit);
      EXPECT_EQ(warm.peak, cold[seed].peak);
      EXPECT_EQ(warm.winner, cold[seed].winner);
      EXPECT_EQ(warm.packing.start, cold[seed].packing.start);
    }
    EXPECT_EQ(exposition_sample(client.metrics(), "cache.misses"), 0u);
    daemon.stop();
  }
}

TEST(DaemonTest, RetiredStatsFrameIsAnUnknownTypeAndTheDaemonServesOn) {
  Daemon daemon(test_options());
  daemon.start();
  // DaemonClient cannot send type 2 any more, so speak raw frames.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const timeval timeout{5, 0};  // a daemon that never closes fails, not hangs
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                         sizeof(timeout)),
            0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  address.sin_port = htons(daemon.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);
  const std::string request = frame::encode_frame(2, std::string());
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string reply;
  char buffer[256];
  ssize_t got = 0;
  while ((got = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    reply.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  EXPECT_EQ(got, 0) << "the daemon must close the connection (EOF)";

  // Exactly one error frame, then EOF.
  ASSERT_GE(reply.size(), frame::kHeaderSize);
  const frame::Header header = frame::parse_header(reply.data());
  EXPECT_EQ(header.type, frame::kError);
  ASSERT_EQ(header.length, reply.size() - frame::kHeaderSize);
  const std::string message =
      frame::decode_message(reply.substr(frame::kHeaderSize), "test");
  EXPECT_NE(message.find("unknown request frame type 2"), std::string::npos)
      << message;

  // Only that connection closed: a fresh client is still served.
  DaemonClient client(daemon.port());
  EXPECT_GT(client.solve(small_wire(1)).packing.start.size(), 0u);
  EXPECT_EQ(exposition_sample(client.metrics(), "daemon.errors"), 1u);
  daemon.stop();
}

TEST(DaemonTest, DrainClosesConnectionsAndRefusesNewOnes) {
  Daemon daemon(test_options());
  daemon.start();
  DaemonClient client(daemon.port());
  (void)client.solve(small_wire(1));
  daemon.stop();  // blocks until every connection is answered and closed
  EXPECT_TRUE(daemon.stats().draining);
  // The drained daemon closed the idle connection...
  EXPECT_THROW((void)client.try_solve(small_wire(2)), InvalidInput);
  // ...and the listener: new connections are refused, not backlogged.
  EXPECT_THROW(DaemonClient(daemon.port(), "127.0.0.1", 100), InvalidInput);
}

std::size_t open_fd_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(DaemonTest, FailedConstructionClosesItsDescriptors) {
  // Binding a port another daemon listens on throws from the constructor,
  // after the stop pipe and the socket are open; neither may leak.
  Daemon holder(test_options());
  DaemonOptions options = test_options();
  options.port = holder.port();
  const std::size_t before = open_fd_count();
  for (int attempt = 0; attempt < 10; ++attempt) {
    EXPECT_THROW(Daemon{options}, InvalidInput);
  }
  EXPECT_EQ(open_fd_count(), before);
}

TEST(DaemonTest, TinyGateShedsInsteadOfQueueingUnbounded) {
  DaemonOptions options = test_options();
  options.max_concurrent = 1;
  options.max_queue = 0;
  Daemon daemon(options);
  daemon.start();
  constexpr std::size_t kClients = 4;
  std::atomic<std::uint64_t> ok{0}, busy{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      DaemonClient client(daemon.port());
      for (std::uint64_t r = 0; r < 6; ++r) {
        const auto reply = client.try_solve(small_wire(c * 17 + r));
        if (reply.status == DaemonClient::SolveReply::Status::kOk) {
          ++ok;
        } else {
          ASSERT_EQ(reply.status, DaemonClient::SolveReply::Status::kBusy);
          ++busy;
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(ok.load() + busy.load(), kClients * 6);
  EXPECT_GT(ok.load(), 0u);
  EXPECT_EQ(daemon.stats().shed, busy.load());
  daemon.stop();
}

TEST(DaemonTest, FinishedConnectionThreadsAreJoined) {
  // Every closed connection's thread is joined on a later accept, so a
  // long-running daemon holds only the threads of live connections.
  Daemon daemon(test_options());
  daemon.start();
  for (int cycle = 0; cycle < 64; ++cycle) {
    DaemonClient client(daemon.port());
    (void)client.metrics();
  }
  // The live one plus, at most, the previous one still winding down: its
  // thread may not have seen the close yet.  A fresh connection per try
  // reaps whatever finished since the last one.
  std::uint64_t threads = 0;
  for (int attempt = 0; attempt < 50; ++attempt) {
    DaemonClient client(daemon.port());
    threads = exposition_sample(client.metrics(), "daemon.connection_threads")
                  .value_or(0);
    if (threads <= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(threads, 1u);
  EXPECT_LE(threads, 2u);
  daemon.stop();
}

// Descriptor exhaustion.  Each scenario runs in a forked child that lowers
// its own RLIMIT_NOFILE, so the test process keeps its limit; the child
// reports through its exit code, and an alarm kills a hung one.

/// Lowers this process's descriptor limit to a few above its highest open
/// descriptor, then opens /dev/null until open fails with EMFILE.  Returns
/// the descriptors opened; empty if the limit could not be reached.
std::vector<int> exhaust_descriptors() {
  int highest = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    highest = std::max(highest, std::stoi(entry.path().filename().string()));
  }
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return {};
  limit.rlim_cur = static_cast<rlim_t>(highest) + 5;
  if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) return {};
  std::vector<int> opened;
  for (int tries = 0; tries < 64; ++tries) {
    const int fd = ::open("/dev/null", O_RDONLY);
    if (fd >= 0) {
      opened.push_back(fd);
      continue;
    }
    if (errno == EMFILE) return opened;
    break;
  }
  for (const int fd : opened) ::close(fd);
  return {};
}

/// Runs `scenario` in a forked child; returns its exit code, or 128 plus
/// the signal that ended it.
int run_in_child(int (*scenario)()) {
  const pid_t child = ::fork();
  if (child == 0) {
    ::alarm(10);  // a hung scenario is killed, not waited for
    int code = 100;
    try {
      code = scenario();
    } catch (const std::exception&) {
      code = 101;
    }
    ::_exit(code);
  }
  if (child < 0) return -1;
  int status = 0;
  if (::waitpid(child, &status, 0) != child) return -1;
  return WIFSIGNALED(status) ? 128 + WTERMSIG(status) : WEXITSTATUS(status);
}

/// A client connects while every descriptor is taken, so the daemon's
/// accept fails with EMFILE; once descriptors are freed, its request is
/// served on that same connection.
int serve_after_descriptor_exhaustion() {
  Daemon daemon(test_options());
  daemon.start();
  std::vector<int> fillers = exhaust_descriptors();
  if (fillers.empty()) return 2;
  ::close(fillers.back());  // the client's socket takes the last slot
  fillers.pop_back();
  DaemonClient client(daemon.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  if (daemon.stats().accepted != 0) return 3;  // accept never failed
  for (const int fd : fillers) ::close(fd);
  const WireInstance wire = small_wire(1);
  if (client.solve(wire).packing.start.size() != wire.items.size()) return 4;
  daemon.stop();
  return daemon.stats().accepted == 1 ? 0 : 5;
}

/// stop() drains promptly while accept keeps failing with EMFILE.
int stop_while_descriptors_exhausted() {
  Daemon daemon(test_options());
  daemon.start();
  std::vector<int> fillers = exhaust_descriptors();
  if (fillers.empty()) return 2;
  ::close(fillers.back());
  fillers.pop_back();
  DaemonClient client(daemon.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto begin = std::chrono::steady_clock::now();
  daemon.stop();
  const auto took = std::chrono::steady_clock::now() - begin;
  return took < std::chrono::seconds(1) ? 0 : 3;
}

TEST(DaemonTest, AcceptRetriesAfterDescriptorExhaustion) {
  EXPECT_EQ(run_in_child(serve_after_descriptor_exhaustion), 0);
}

TEST(DaemonTest, StopDrainsPromptlyWhileDescriptorsAreExhausted) {
  EXPECT_EQ(run_in_child(stop_while_descriptors_exhausted), 0);
}

TEST(DaemonTest, ConcurrentClientsGetConsistentAnswers) {
  // The sanitizer soak: many connections, overlapping identical and
  // distinct requests, every answer checked against a local reference.
  const DaemonOptions options = test_options();
  Daemon daemon(options);
  daemon.start();
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kDistinct = 4;
  CachingSolver local(options.serve, options.cache);
  std::vector<SolveResponse> expected;
  for (std::uint64_t seed = 0; seed < kDistinct; ++seed) {
    expected.push_back(local.solve(small_wire(seed).to_instance()));
  }
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      DaemonClient client(daemon.port());
      for (std::uint64_t r = 0; r < 12; ++r) {
        const std::uint64_t seed = (c + r) % kDistinct;
        const SolveResponse response = client.solve(small_wire(seed));
        if (response.peak != expected[seed].peak ||
            response.winner != expected[seed].winner ||
            response.packing.start != expected[seed].packing.start) {
          mismatch.store(true);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_FALSE(mismatch.load());
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.served, kClients * 12);
  EXPECT_EQ(stats.errors, 0u);
  daemon.stop();
}

}  // namespace
}  // namespace dsp::service
