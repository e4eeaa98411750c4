#pragma once

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
/// The collector has two enabled modes:
///
///  * **retained** (`enable`): every span and event is kept in dense vectors
///    — full-fidelity, O(messages) memory. What the breakdown report and the
///    whole-run Perfetto export consume.
///  * **streaming** (`enableStreaming`): only *open* spans are held (in a
///    recycled slot pool); a span reaching a terminal phase is folded into
///    the windowed aggregates (obs::WindowAggregator), pushed to the
///    attached obs::Sink, and its slot recycled. Steady-state memory is
///    O(open spans + windows), independent of message count — the ROADMAP
///    item-4 blocker for 100k–1M-PE runs.
///
/// Disabled (the default) the collector is a single branch per hook: begin()
/// returns 0, every other entry point early-returns on span id 0 or on
/// `enabled_`, no memory is touched, no engine events are scheduled and no
/// randomness is consumed — trace hashes are bit-identical with the
/// collector on or off, in either mode (asserted in test_trace_hash.cpp).

namespace cux::obs {

class Sink;

/// Capacity plan for retained mode. The old hard-wired `reserve_spans * 8`
/// event pre-reservation is now this config.
struct CollectorConfig {
  std::size_t reserve_spans = 4096;
  std::size_t events_per_span = 8;  ///< event-vector pre-reservation multiplier
};

/// Streaming-mode parameters.
struct StreamConfig {
  sim::Duration window_ns = 100'000;      ///< aggregation window width (100 us)
  std::size_t exemplars_per_window = 2;   ///< full spans sampled per window
  std::size_t reserve_open_spans = 256;   ///< slot-pool pre-reservation
  std::size_t events_per_span = 8;        ///< per-slot event reservation hint
};

class SpanCollector {
 public:
  void enable(std::size_t reserve_spans = 4096) {
    enable(CollectorConfig{reserve_spans, CollectorConfig{}.events_per_span});
  }
  void enable(const CollectorConfig& cfg) {
    enabled_ = true;
    streaming_ = false;
    spans_.reserve(cfg.reserve_spans);
    events_.reserve(cfg.reserve_spans * cfg.events_per_span);
  }
  /// Switches to streaming mode. May be called after enable() (fixtures
  /// enable retained mode by default; the driver upgrades); spans already
  /// retained stay in the vectors, spans begun afterwards stream. `sink` may
  /// be null (aggregate-only). The sink is borrowed, not owned.
  void enableStreaming(const StreamConfig& cfg = {}, Sink* sink = nullptr);
  void disable() noexcept { enabled_ = false; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] bool streaming() const noexcept { return streaming_; }

  /// Mints a span and records Phase::ApiSend. Returns 0 when disabled.
  /// `kind` must be a string with static storage duration.
  std::uint64_t begin(sim::TimePoint t, int src_pe, int dst_pe, std::uint64_t bytes,
                      const char* kind) {
    if (!enabled_) return 0;
    if (streaming_) return streamBegin(t, src_pe, dst_pe, bytes, kind);
    spans_.push_back(SpanInfo{t, t, src_pe, dst_pe, bytes, 0, kind, Phase::ApiSend, true});
    const std::uint64_t id = spans_.size();  // ids start at 1
    noteOpen();
    events_.push_back(SpanEvent{id, t, Phase::ApiSend, src_pe, bytes});
    return id;
  }

  /// Records a phase transition; ignored for span id 0 (disabled / no span).
  void phase(std::uint64_t span, sim::TimePoint t, Phase p, int pe, std::uint64_t aux = 0) {
    if (span == 0) return;
    if (streaming_) {
      streamPhase(span, t, p, pe, aux);
      return;
    }
    if (span > spans_.size()) return;
    events_.push_back(SpanEvent{span, t, p, pe, aux});
    SpanInfo& s = spans_[span - 1];
    if (t > s.end) s.end = t;
  }

  /// Terminates a span. A second close of the same span is counted in
  /// doubleCloses() instead of asserting, so the fault suite can detect the
  /// bug rather than crash on it. In streaming mode this is the retirement
  /// path: the span folds into its window, flows to the sink, and its slot
  /// is recycled.
  void end(std::uint64_t span, sim::TimePoint t, Phase p, int pe) {
    if (span == 0) return;
    if (streaming_) {
      streamEnd(span, t, p, pe);
      return;
    }
    if (span > spans_.size()) return;
    SpanInfo& s = spans_[span - 1];
    if (!s.open) {
      ++double_closes_;
      return;
    }
    s.open = false;
    s.terminal = p;
    if (t > s.end) s.end = t;
    --open_;
    ++closed_;
    ++terminal_counts_[static_cast<std::size_t>(p)];
    events_.push_back(SpanEvent{span, t, p, pe, 0});
    if (s.tag != 0) unbindTag(s.tag, span);
  }

  // --- tag correlation ------------------------------------------------------

  /// Associates a wire tag with a span so layers that only see the tag
  /// (Worker, DeviceComm) can attribute their phases. Rebinding a tag (tag
  /// counters wrap eventually) overwrites the old association.
  void bindTag(std::uint64_t span, std::uint64_t tag) {
    if (span == 0) return;
    if (streaming_) {
      streamBindTag(span, tag);
      return;
    }
    if (span > spans_.size()) return;
    spans_[span - 1].tag = tag;
    tag_to_span_[tag] = span;
  }

  /// Span currently bound to `tag`, or 0. Safe (and constant-time) to call
  /// with host tags that were never bound.
  [[nodiscard]] std::uint64_t spanForTag(std::uint64_t tag) const noexcept {
    if (!enabled_) return 0;
    const auto it = tag_to_span_.find(tag);
    return it == tag_to_span_.end() ? 0 : it->second;
  }

  // --- accounting / inspection ---------------------------------------------

  [[nodiscard]] std::uint64_t begun() const noexcept {
    return streaming_ ? stream_begun_ : spans_.size();
  }
  [[nodiscard]] std::uint64_t closed() const noexcept { return closed_; }
  [[nodiscard]] std::uint64_t openCount() const noexcept { return open_; }
  [[nodiscard]] std::uint64_t doubleCloses() const noexcept { return double_closes_; }
  /// Peak simultaneous open spans (maintained in both enabled modes).
  [[nodiscard]] std::uint64_t openHighWatermark() const noexcept { return open_hwm_; }
  /// Spans retired through the streaming path (0 in retained mode).
  [[nodiscard]] std::uint64_t retired() const noexcept { return retired_; }
  /// Phase records that arrived after their span retired (streaming only —
  /// retained mode never drops).
  [[nodiscard]] std::uint64_t droppedEvents() const noexcept { return dropped_events_; }

  /// Retained-mode event/span access. In streaming mode these hold only the
  /// spans retained *before* enableStreaming() was called.
  [[nodiscard]] const std::vector<SpanEvent>& events() const noexcept { return events_; }
  [[nodiscard]] const std::vector<SpanInfo>& spans() const noexcept { return spans_; }
  [[nodiscard]] const SpanInfo* span(std::uint64_t id) const noexcept {
    if (streaming_) return streamFind(id);
    return id == 0 || id > spans_.size() ? nullptr : &spans_[id - 1];
  }
  [[nodiscard]] std::uint64_t terminalCount(Phase p) const {
    return terminal_counts_[static_cast<std::size_t>(p)];
  }

  /// Windowed aggregates (populated in streaming mode).
  [[nodiscard]] const WindowAggregator& windows() const noexcept { return windows_; }
  [[nodiscard]] WindowAggregator& windows() noexcept { return windows_; }

  /// Emits every window to the attached sink (if any) and calls its
  /// finish(). Call once, after the run.
  void flushWindows();

  void clear() {
    spans_.clear();
    events_.clear();
    tag_to_span_.clear();
    slots_.clear();
    free_slots_.clear();
    open_index_.clear();
    windows_.clear();
    open_ = closed_ = double_closes_ = 0;
    open_hwm_ = retired_ = dropped_events_ = stream_begun_ = 0;
    terminal_counts_ = {};
  }

 private:
  /// One live span in streaming mode; slots are recycled through
  /// free_slots_ with their event capacity kept, so the steady state
  /// allocates nothing.
  struct OpenSpan {
    SpanInfo info;
    std::vector<SpanEvent> events;
  };

  // Streaming entry points live in stream.cpp — out-of-line so this header
  // needs only a forward declaration of Sink.
  std::uint64_t streamBegin(sim::TimePoint t, int src_pe, int dst_pe,
                            std::uint64_t bytes, const char* kind);
  void streamPhase(std::uint64_t span, sim::TimePoint t, Phase p, int pe,
                   std::uint64_t aux);
  void streamEnd(std::uint64_t span, sim::TimePoint t, Phase p, int pe);
  void streamBindTag(std::uint64_t span, std::uint64_t tag);
  [[nodiscard]] const SpanInfo* streamFind(std::uint64_t id) const noexcept;

  void noteOpen() noexcept {
    ++open_;
    if (open_ > open_hwm_) open_hwm_ = open_;
  }

  void unbindTag(std::uint64_t tag, std::uint64_t span) {
    const auto it = tag_to_span_.find(tag);
    if (it != tag_to_span_.end() && it->second == span) tag_to_span_.erase(it);
  }

  bool enabled_ = false;
  bool streaming_ = false;
  std::vector<SpanInfo> spans_;
  std::vector<SpanEvent> events_;
  std::unordered_map<std::uint64_t, std::uint64_t> tag_to_span_;
  std::uint64_t open_ = 0;
  std::uint64_t closed_ = 0;
  std::uint64_t double_closes_ = 0;
  std::uint64_t open_hwm_ = 0;

  // Streaming state. The collector stays copyable (the sweep tool snapshots
  // it); the sink pointer is borrowed and copies share it.
  StreamConfig stream_cfg_;
  Sink* sink_ = nullptr;
  std::vector<OpenSpan> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::unordered_map<std::uint64_t, std::uint32_t> open_index_;
  std::uint64_t stream_begun_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t dropped_events_ = 0;
  std::array<std::uint64_t, kPhaseCount> terminal_counts_{};
  WindowAggregator windows_;
};

}  // namespace cux::obs
