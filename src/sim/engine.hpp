#pragma once

#include <cstdint>
#include <memory>
#include <utility>
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
/// storage, recycled through a free list): schedule() builds the callable
/// straight in its slot and the event runs it there, so a callable is not
/// moved once built. The priority queue is a binary heap of 16-byte keys,
/// each compared as one 128-bit integer. A scheduled event always runs:
/// there is no cancellation, so every queued key is live.

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

  /// Schedules the callable `f` at absolute virtual time `t` (clamped to
  /// now()); `f` is built directly in its callback slot. A past-time
  /// schedule increments pastClamped(). Throws std::length_error when the
  /// event key's slot or sequence field is full (see Key).
  template <class F>
  void schedule(TimePoint t, F&& f) {
    const std::uint32_t slot = acquireSlot();
    try {
      slotCb(slot).emplace(std::forward<F>(f));
    } catch (...) {
      free_slots_.push_back(slot);
      throw;
    }
    pushKey(t, slot);
  }

  /// Schedules `f` after `delay` nanoseconds of virtual time.
  template <class F>
  void after(Duration delay, F&& f) {
    schedule(now_ + delay, std::forward<F>(f));
  }

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
    return heap_.empty() ? kNoEvent : static_cast<TimePoint>(heap_.front() >> 64);
  }

  /// Number of schedule() calls whose target time lay in the past and was
  /// clamped to now().
  [[nodiscard]] std::uint64_t pastClamped() const noexcept { return past_clamped_; }

 private:
  /// Heap entry: one 16-byte key, ordered as a single unsigned 128-bit
  /// integer. The high 64 bits are the event's time; the low 64 bits are
  /// `seq << kSlotBits | slot`, where `seq` is the global scheduling
  /// sequence number (FIFO among equal timestamps) and `slot` the index of
  /// the event's callback. Sequence numbers are unique, so the slot bits
  /// never decide an order: events fire in exactly (time, seq) order.
  ///
  /// Limits: a slot index must stay below 2^24 (16.7 M callbacks pending at
  /// once) and a sequence number below 2^40 (1.1 * 10^12 events scheduled
  /// on one engine). schedule() throws std::length_error, in every build,
  /// rather than let either field overflow into the next.
  using Key = unsigned __int128;
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = std::uint64_t{1} << (64 - kSlotBits);

  /// Callbacks live in fixed-size blocks so pool growth never moves a stored
  /// callable (a std::vector<Callback> would relocate every element through
  /// the ops table on reallocation), and a running callback stays put while
  /// it schedules more.
  static constexpr std::uint32_t kSlotBlockShift = 10;
  static constexpr std::uint32_t kSlotBlockSize = 1u << kSlotBlockShift;

  /// Frees a running event's slot on return and on unwind alike, so a
  /// callback that throws still releases its captures and its slot.
  struct SlotRelease {
    Engine& engine;
    std::uint32_t slot;
    ~SlotRelease();
  };

  bool popAndRun();
  void pushKey(TimePoint t, std::uint32_t slot);
  [[nodiscard]] Key popMin() noexcept;
  [[nodiscard]] std::uint32_t acquireSlot();
  [[nodiscard]] Callback& slotCb(std::uint32_t slot) noexcept {
    return cb_blocks_[slot >> kSlotBlockShift][slot & (kSlotBlockSize - 1)];
  }

  /// Binary min-heap. Its capacity and free_slots_' always cover every slot
  /// ever handed out, so a push onto either never reallocates.
  std::vector<Key> heap_;
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
