#include "obs/span.hpp"

#include <algorithm>

#include "obs/sink.hpp"

/// \file span.cpp
/// obs::SpanCollector's open-span slot pool, retirement into the windowed
/// aggregates, and sink fan-out. Out of line so span.hpp only
/// forward-declares obs::Sink.

namespace cux::obs {

namespace {
constexpr std::size_t kReserveOpenSpans = 256;  ///< slot-pool pre-reservation
constexpr std::size_t kEventsPerSpan = 8;       ///< per-slot event reservation
}  // namespace

void SpanCollector::enableStreaming(const StreamConfig& cfg, Sink* sink) {
  enabled_ = true;
  windows_.configure(WindowConfig{cfg.window_ns, cfg.exemplars_per_window});
  slots_.reserve(kReserveOpenSpans);
  free_slots_.reserve(kReserveOpenSpans);
  open_index_.reserve(kReserveOpenSpans);
  if (sink != nullptr) sinks_.push_back(sink);
}

std::uint64_t SpanCollector::open(sim::TimePoint t, int src_pe, int dst_pe,
                                  std::uint64_t bytes, const char* kind) {
  const std::uint64_t id = ++begun_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    slots_.back().events.reserve(kEventsPerSpan);
  }
  OpenSpan& os = slots_[slot];
  os.info = SpanInfo{t, t, src_pe, dst_pe, bytes, 0, kind, Phase::ApiSend};
  os.events.push_back(SpanEvent{id, t, Phase::ApiSend, src_pe, bytes});
  open_index_.emplace(id, slot);
  open_hwm_ = std::max(open_hwm_, openCount());
  return id;
}

void SpanCollector::record(std::uint64_t span, sim::TimePoint t, Phase p, int pe,
                           std::uint64_t aux) {
  const auto it = open_index_.find(span);
  if (it == open_index_.end()) {
    // Span already retired (or never existed): the record has nowhere to
    // attach. Counted, not stored, and surfaced in dumpStatsJson.
    ++dropped_events_;
    return;
  }
  OpenSpan& os = slots_[it->second];
  os.events.push_back(SpanEvent{span, t, p, pe, aux});
  if (t > os.info.end) os.info.end = t;
}

void SpanCollector::retire(std::uint64_t span, sim::TimePoint t, Phase p, int pe) {
  const auto it = open_index_.find(span);
  if (it == open_index_.end()) {
    ++double_closes_;
    return;
  }
  const std::uint32_t slot = it->second;
  OpenSpan& os = slots_[slot];
  os.info.terminal = p;
  if (t > os.info.end) os.info.end = t;
  os.events.push_back(SpanEvent{span, t, p, pe, 0});
  ++retired_;
  ++terminal_counts_[static_cast<std::size_t>(p)];
  if (os.info.tag != 0) {
    const auto bound = tag_to_span_.find(os.info.tag);
    if (bound != tag_to_span_.end() && bound->second == span) tag_to_span_.erase(bound);
  }

  windows_.fold(os.info, os.events.data(), os.events.size());
  for (Sink* sink : sinks_) sink->onSpanRetired(span, os.info, os.events.data(), os.events.size());

  os.events.clear();  // keeps capacity — the slot pool is allocation-free at steady state
  open_index_.erase(it);
  free_slots_.push_back(slot);
}

void SpanCollector::bind(std::uint64_t span, std::uint64_t tag) {
  const auto it = open_index_.find(span);
  if (it == open_index_.end()) return;
  slots_[it->second].info.tag = tag;
  tag_to_span_[tag] = span;
}

const SpanInfo* SpanCollector::span(std::uint64_t id) const noexcept {
  const auto it = open_index_.find(id);
  return it == open_index_.end() ? nullptr : &slots_[it->second].info;
}

void SpanCollector::flushWindows() {
  for (Sink* sink : sinks_) {
    windows_.emit(*sink);
    sink->finish();
  }
}

}  // namespace cux::obs
