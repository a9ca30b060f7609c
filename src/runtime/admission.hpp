#pragma once

// Admission control for serving front ends (DESIGN.md, "The serving
// daemon").  A saturated solver must not take unbounded work: the
// gate caps concurrent admissions at `capacity`, queues up to `max_queue`
// callers (blocking them — backpressure propagates to the client's socket
// instead of ballooning memory), and sheds everything beyond that with an
// immediate rejection the caller can surface as a "busy" response.
//
// Drain semantics: after close(), new arrivals are rejected with kClosed,
// but callers already admitted or already queued complete normally — a
// graceful shutdown finishes the work it accepted.

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "runtime/sync.hpp"

namespace dsp::runtime {

class AdmissionGate {
 public:
  enum class Ticket {
    kAdmitted,  ///< run now (enter() may have blocked in the queue first)
    kShed,      ///< queue full — reject immediately, nothing to release
    kClosed,    ///< gate closed (drain) — reject, nothing to release
  };

  /// `capacity` = concurrent admissions (clamped to >= 1); `max_queue` =
  /// callers allowed to wait for a slot before new arrivals shed.
  AdmissionGate(std::size_t capacity, std::size_t max_queue)
      : capacity_(std::max<std::size_t>(1, capacity)), max_queue_(max_queue) {}

  AdmissionGate(const AdmissionGate&) = delete;
  AdmissionGate& operator=(const AdmissionGate&) = delete;

  /// Acquires an admission slot, blocking in the bounded queue if the gate
  /// is at capacity.  Every kAdmitted must be paired with one leave().
  [[nodiscard]] Ticket enter() {
    MutexLock lock(mutex_);
    if (closed_) {
      ++closed_rejects_;
      return Ticket::kClosed;
    }
    if (active_ >= capacity_) {
      if (waiting_ >= max_queue_) {
        ++shed_;
        return Ticket::kShed;
      }
      ++waiting_;
      ++queued_;
      peak_waiting_ = std::max(peak_waiting_, waiting_);
      while (active_ >= capacity_) slot_free_.wait(lock);
      --waiting_;
    }
    ++active_;
    ++admitted_;
    return Ticket::kAdmitted;
  }

  /// Releases an admission slot (pairs with a kAdmitted ticket).
  void leave() {
    {
      const MutexLock lock(mutex_);
      --active_;
    }
    slot_free_.notify_one();
  }

  /// Starts the drain: new enter() calls get kClosed; admitted and queued
  /// callers are unaffected.  Idempotent.
  void close() {
    const MutexLock lock(mutex_);
    closed_ = true;
  }

  struct Counters {
    std::uint64_t admitted = 0;  ///< tickets handed out (straight or queued)
    std::uint64_t queued = 0;    ///< admissions that had to wait first
    std::uint64_t shed = 0;      ///< rejected on a full queue
    std::uint64_t closed_rejects = 0;  ///< rejected after close()
    std::size_t active = 0;            ///< currently admitted
    std::size_t waiting = 0;           ///< currently queued
    std::size_t peak_waiting = 0;      ///< high-water queue depth
  };

  [[nodiscard]] Counters counters() const {
    const MutexLock lock(mutex_);
    return Counters{admitted_, queued_,  shed_,        closed_rejects_,
                    active_,   waiting_, peak_waiting_};
  }

 private:
  const std::size_t capacity_;
  const std::size_t max_queue_;

  mutable Mutex mutex_;
  CondVar slot_free_;
  bool closed_ DSP_GUARDED_BY(mutex_) = false;
  std::size_t active_ DSP_GUARDED_BY(mutex_) = 0;
  std::size_t waiting_ DSP_GUARDED_BY(mutex_) = 0;
  std::size_t peak_waiting_ DSP_GUARDED_BY(mutex_) = 0;
  std::uint64_t admitted_ DSP_GUARDED_BY(mutex_) = 0;
  std::uint64_t queued_ DSP_GUARDED_BY(mutex_) = 0;
  std::uint64_t shed_ DSP_GUARDED_BY(mutex_) = 0;
  std::uint64_t closed_rejects_ DSP_GUARDED_BY(mutex_) = 0;
};

/// Releases the gate slot at scope exit when the ticket was kAdmitted.
class AdmissionSlot {
 public:
  AdmissionSlot(AdmissionGate& gate, AdmissionGate::Ticket ticket)
      : gate_(gate), ticket_(ticket) {}
  ~AdmissionSlot() {
    if (ticket_ == AdmissionGate::Ticket::kAdmitted) gate_.leave();
  }
  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;

  [[nodiscard]] AdmissionGate::Ticket ticket() const { return ticket_; }

 private:
  AdmissionGate& gate_;
  AdmissionGate::Ticket ticket_;
};

}  // namespace dsp::runtime
