#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/phase.hpp"
#include "obs/window.hpp"
#include "sim/time.hpp"

/// \file span.hpp
/// Message-lifecycle spans: every top-level send (Charm++ entry-method
/// buffer, MPI_Isend, charm4py channel message, or a raw machine-layer
/// lrtsSendDevice) mints a 64-bit span id and the layers below record phase
/// transitions against it, producing a per-message timeline. This is how the
/// paper's multi-leg protocol (host metadata racing the UCX tagged payload,
/// receive posted only after the metadata lands) becomes measurable: the
/// early-arrival wait and the recv-post delay fall directly out of the
/// phase timestamps.
///
/// Correlation works through the machine-generated tag: device-transfer tags
/// are unique among in-flight transfers, so the UCX worker can look a span
/// up by tag without any message-format change (bindTag / spanForTag).
/// Converse host messages share one tag per source PE and therefore carry
/// the span id in the model layer's own envelope instead.
///
/// Enabled, the collector holds only *open* spans, in a recycled slot pool.
/// A span reaching a terminal phase folds into the windowed aggregates
/// (obs::WindowAggregator) and fans out to every attached obs::Sink — the
/// breakdown report, the critical-path attribution, the JSONL and Perfetto
/// writers — and its slot is recycled. Memory is O(open spans + windows),
/// independent of message count; a consumer that needs whole spans keeps
/// them itself.
///
/// Disabled (the default) the collector is a single branch per hook: begin()
/// returns 0, every other entry point early-returns on span id 0 or on
/// `enabled_`, no memory is touched, no engine events are scheduled and no
/// randomness is consumed — trace hashes are bit-identical with the
/// collector on or off (asserted in test_trace_hash.cpp).

namespace cux::obs {

class Sink;

/// Window parameters of the collector's aggregates.
struct StreamConfig {
  sim::Duration window_ns = 100'000;      ///< aggregation window width (100 us)
  std::size_t exemplars_per_window = 2;   ///< full spans sampled per window
};

class SpanCollector {
 public:
  /// Turns collection on and, when `sink` is non-null, attaches it (sinks are
  /// borrowed, not owned, and receive every retirement in attach order).
  /// Callable repeatedly before traffic starts: a fixture enables the
  /// collector and a driver attaches its sinks afterwards.
  void enableStreaming(const StreamConfig& cfg = {}, Sink* sink = nullptr);
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Mints a span and records Phase::ApiSend. Returns 0 when disabled.
  /// `kind` must be a string with static storage duration.
  std::uint64_t begin(sim::TimePoint t, int src_pe, int dst_pe, std::uint64_t bytes,
                      const char* kind) {
    return enabled_ ? open(t, src_pe, dst_pe, bytes, kind) : 0;
  }

  /// Records a phase transition; ignored for span id 0 (disabled / no span).
  /// A record for a span that already retired is counted in droppedEvents().
  void phase(std::uint64_t span, sim::TimePoint t, Phase p, int pe, std::uint64_t aux = 0) {
    if (span != 0) record(span, t, p, pe, aux);
  }

  /// Retires a span: it folds into its window, flows to every sink, and its
  /// slot is recycled. A second close of the same span is counted in
  /// doubleCloses() instead of asserting, so the fault suite can detect the
  /// bug rather than crash on it.
  void end(std::uint64_t span, sim::TimePoint t, Phase p, int pe) {
    if (span != 0) retire(span, t, p, pe);
  }

  // --- tag correlation ------------------------------------------------------

  /// Associates a wire tag with an open span so layers that only see the tag
  /// (Worker, DeviceComm) can attribute their phases. Rebinding a tag (tag
  /// counters wrap eventually) overwrites the old association.
  void bindTag(std::uint64_t span, std::uint64_t tag) {
    if (span != 0) bind(span, tag);
  }

  /// Span currently bound to `tag`, or 0. Safe (and constant-time) to call
  /// with host tags that were never bound.
  [[nodiscard]] std::uint64_t spanForTag(std::uint64_t tag) const noexcept {
    if (!enabled_) return 0;
    const auto it = tag_to_span_.find(tag);
    return it == tag_to_span_.end() ? 0 : it->second;
  }

  // --- accounting / inspection ---------------------------------------------

  [[nodiscard]] std::uint64_t begun() const noexcept { return begun_; }
  [[nodiscard]] std::uint64_t retired() const noexcept { return retired_; }
  [[nodiscard]] std::uint64_t openCount() const noexcept { return begun_ - retired_; }
  [[nodiscard]] std::uint64_t doubleCloses() const noexcept { return double_closes_; }
  /// Peak simultaneous open spans.
  [[nodiscard]] std::uint64_t openHighWatermark() const noexcept { return open_hwm_; }
  /// Phase records that arrived after their span retired (or for a span id
  /// that never existed): counted, not stored.
  [[nodiscard]] std::uint64_t droppedEvents() const noexcept { return dropped_events_; }
  /// Summary of an open span; nullptr once it retired.
  [[nodiscard]] const SpanInfo* span(std::uint64_t id) const noexcept;
  [[nodiscard]] std::uint64_t terminalCount(Phase p) const {
    return terminal_counts_[static_cast<std::size_t>(p)];
  }

  /// Windowed aggregates of every retired span.
  [[nodiscard]] const WindowAggregator& windows() const noexcept { return windows_; }

  /// Emits every window to each attached sink, then calls its finish(). Call
  /// once, after the run.
  void flushWindows();

 private:
  /// One live span; slots are recycled through free_slots_ with their event
  /// capacity kept, so the steady state allocates nothing.
  struct OpenSpan {
    SpanInfo info;
    std::vector<SpanEvent> events;
  };

  // Out of line (span.cpp) so this header needs only a forward declaration
  // of Sink.
  std::uint64_t open(sim::TimePoint t, int src_pe, int dst_pe, std::uint64_t bytes,
                     const char* kind);
  void record(std::uint64_t span, sim::TimePoint t, Phase p, int pe, std::uint64_t aux);
  void retire(std::uint64_t span, sim::TimePoint t, Phase p, int pe);
  void bind(std::uint64_t span, std::uint64_t tag);

  bool enabled_ = false;
  std::vector<Sink*> sinks_;
  std::vector<OpenSpan> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<std::uint64_t, std::uint32_t> open_index_;
  std::unordered_map<std::uint64_t, std::uint64_t> tag_to_span_;
  std::uint64_t begun_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t double_closes_ = 0;
  std::uint64_t open_hwm_ = 0;
  std::uint64_t dropped_events_ = 0;
  std::array<std::uint64_t, kPhaseCount> terminal_counts_{};
  WindowAggregator windows_;
};

}  // namespace cux::obs
