#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

namespace cux::sim {

std::uint32_t Engine::acquireSlot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::uint32_t slot = slot_count_++;
  if ((slot >> kSlotBlockShift) == cb_blocks_.size()) {
    cb_blocks_.push_back(std::make_unique<Callback[]>(kSlotBlockSize));
  }
  return slot;
}

void Engine::pushHeap(HeapEntry e) {
  heap_.push_back(e);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void Engine::popHeap() noexcept {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

void Engine::schedule(TimePoint t, Callback cb) {
  if (t < now_) {
    ++past_clamped_;
    t = now_;
  }
  const std::uint32_t slot = acquireSlot();
  slotCb(slot) = std::move(cb);
  pushHeap(HeapEntry{t, scheduled_++, slot});
}

bool Engine::popAndRun() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  popHeap();
  // Move the callback out before running it: reentrant schedule() calls may
  // recycle the slot, and a block-stored callback must not be live while its
  // slot is on the free list.
  Callback cb = std::move(slotCb(top.slot));
  free_slots_.push_back(top.slot);
  now_ = top.time;
  ++processed_;
  cb();
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
