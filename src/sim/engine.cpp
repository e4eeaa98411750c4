#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace cux::sim {

std::uint32_t Engine::acquireSlot() {
  if (scheduled_ == kMaxSeq) {
    throw std::length_error("sim::Engine: 2^40 events scheduled, the key's sequence field is full");
  }
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (slot_count_ == kMaxSlots) {
    throw std::length_error("sim::Engine: 2^24 callbacks pending, the key's slot field is full");
  }
  if ((slot_count_ >> kSlotBlockShift) == cb_blocks_.size()) {
    // Grow the heap and the free list with the slot pool, so neither push
    // can throw once a callable sits in its slot.
    const std::size_t capacity = (cb_blocks_.size() + 1) * kSlotBlockSize;
    if (heap_.capacity() < capacity) heap_.reserve(std::max(capacity, 2 * heap_.capacity()));
    if (free_slots_.capacity() < capacity) {
      free_slots_.reserve(std::max(capacity, 2 * free_slots_.capacity()));
    }
    cb_blocks_.push_back(std::make_unique<Callback[]>(kSlotBlockSize));
  }
  return slot_count_++;
}

void Engine::pushKey(TimePoint t, std::uint32_t slot) {
  if (t < now_) {
    ++past_clamped_;
    t = now_;
  }
  const Key key = Key{t} << 64 | (scheduled_++ << kSlotBits | slot);
  heap_.push_back(key);
  Key* h = heap_.data();
  std::size_t hole = heap_.size() - 1;
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (h[parent] < key) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = key;
}

Engine::Key Engine::popMin() noexcept {
  Key* h = heap_.data();
  const Key top = h[0];
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  // Bottom-up pop: walk the hole at the root down to a leaf along the
  // smaller child (one compare per level, picked without a branch), then
  // sift the former last key up from there. It belongs near the bottom, so
  // this takes about half the compares of a top-down sift.
  std::size_t hole = 0;
  std::size_t child = 1;
  for (; child + 1 < n; child = 2 * hole + 1) {
    child += static_cast<std::size_t>(h[child + 1] < h[child]);
    h[hole] = h[child];
    hole = child;
  }
  if (child < n) {
    h[hole] = h[child];
    hole = child;
  }
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 2;
    if (h[parent] < last) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = last;
  return top;
}

Engine::SlotRelease::~SlotRelease() {
  engine.slotCb(slot).reset();
  engine.free_slots_.push_back(slot);
}

bool Engine::popAndRun() {
  if (heap_.empty()) return false;
  const Key top = popMin();
  const auto slot = static_cast<std::uint32_t>(top) & (kMaxSlots - 1);
  now_ = static_cast<TimePoint>(top >> 64);
  ++processed_;
  // The callback runs in its slot. The slot stays off the free list until
  // the callback has returned, so reentrant schedule() calls take other
  // slots, and slot blocks never move.
  const SlotRelease release{*this, slot};
  slotCb(slot)();
  return true;
}

void Engine::run() {
  while (!stopped_ && popAndRun()) {
  }
  // Consume the stop request (whether it interrupted this call or was
  // pending at entry): each stop() affects exactly one run call.
  stopped_ = false;
}

bool Engine::step() { return popAndRun(); }

}  // namespace cux::sim
