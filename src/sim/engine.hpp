#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/small_fn.hpp"
#include "sim/time.hpp"

/// \file engine.hpp
/// Single-threaded discrete-event simulation engine.
///
/// Every component of the reproduction (network links, CUDA streams, PE
/// schedulers, UCX protocol state machines) advances virtual time by
/// scheduling callbacks here. Determinism guarantee: events with equal
/// timestamps fire in scheduling order (a monotonically increasing sequence
/// number breaks ties), so repeated runs produce identical traces.
///
/// Hot-path design: an event performs zero hash lookups and zero per-event
/// heap allocations. Callbacks live in a slot pool (`SmallFn` inline
/// storage, recycled through a free list); the priority queue holds 24-byte
/// POD entries only. A scheduled event always runs: there is no
/// cancellation, so every queued entry is live.

namespace cux::sim {

class Engine {
 public:
  using Callback = SmallFn;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Sentinel returned by nextEventTime() when no event is pending.
  static constexpr TimePoint kNoEvent = ~TimePoint{0};

  /// Current virtual time.
  [[nodiscard]] TimePoint now() const noexcept { return now_; }

  /// Schedules `cb` at absolute virtual time `t` (clamped to now()). A
  /// past-time schedule increments pastClamped().
  void schedule(TimePoint t, Callback cb);

  /// Schedules `cb` after `delay` nanoseconds of virtual time.
  void after(Duration delay, Callback cb) { schedule(now_ + delay, std::move(cb)); }

  /// Runs until the event queue drains or stop() is called.
  void run();

  /// Executes exactly one event if available; returns false on empty queue.
  bool step();

  /// Requests the current — or, if none is active, the NEXT — run() call to
  /// return before processing further events. Exactly one run() consumes the
  /// request: a stop() issued outside the run loop is honored by the next
  /// run() (which returns immediately) rather than silently discarded, and
  /// the call after that proceeds normally.
  void stop() noexcept { stopped_ = true; }

  /// Whether a stop() request is pending (not yet consumed by a run call).
  [[nodiscard]] bool stopRequested() const noexcept { return stopped_; }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::uint64_t eventsProcessed() const noexcept { return processed_; }
  [[nodiscard]] std::uint64_t eventsScheduled() const noexcept { return scheduled_; }

  /// Timestamp of the earliest pending event, or kNoEvent when empty().
  [[nodiscard]] TimePoint nextEventTime() const noexcept {
    return heap_.empty() ? kNoEvent : heap_.front().time;
  }

  /// Number of schedule() calls whose target time lay in the past and was
  /// clamped to now().
  [[nodiscard]] std::uint64_t pastClamped() const noexcept { return past_clamped_; }

 private:
  /// Heap entry: POD only, so priority-queue sifts move 24 bytes instead of
  /// a type-erased callable. `seq` is the global scheduling sequence number
  /// providing FIFO order among equal timestamps.
  struct HeapEntry {
    TimePoint time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;  // FIFO among simultaneous events
    }
  };

  /// Callbacks live in fixed-size blocks so pool growth never moves a stored
  /// callable (a std::vector<Callback> would relocate every element through
  /// the ops table on reallocation).
  static constexpr std::uint32_t kSlotBlockShift = 10;
  static constexpr std::uint32_t kSlotBlockSize = 1u << kSlotBlockShift;

  bool popAndRun();
  void pushHeap(HeapEntry e);
  void popHeap() noexcept;
  [[nodiscard]] std::uint32_t acquireSlot();
  [[nodiscard]] Callback& slotCb(std::uint32_t slot) noexcept {
    return cb_blocks_[slot >> kSlotBlockShift][slot & (kSlotBlockSize - 1)];
  }

  std::vector<HeapEntry> heap_;  ///< binary min-heap via std::push_heap/pop_heap
  std::vector<std::unique_ptr<Callback[]>> cb_blocks_;
  std::uint32_t slot_count_ = 0;  ///< slots ever handed out
  std::vector<std::uint32_t> free_slots_;
  TimePoint now_ = 0;
  std::uint64_t scheduled_ = 0;  ///< total events ever scheduled (also the seq source)
  std::uint64_t processed_ = 0;
  std::uint64_t past_clamped_ = 0;
  bool stopped_ = false;
};

}  // namespace cux::sim
