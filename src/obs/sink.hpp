#pragma once

#include <cstdint>
#include <iosfwd>

#include "obs/window.hpp"

/// \file sink.hpp
/// Consumers of the observability pipeline. The collector pushes each
/// retired span (with its full event list, which is recycled immediately
/// after the call) to every attached sink in attach order and, at flush
/// time, each windowed aggregate. The reports (obs::Breakdown,
/// obs::CritPath) and the exporters (JsonlSink, obs::PerfettoSink) are all
/// sinks. Sinks must never touch the simulation — the stream is
/// one-directional by construction, which is what keeps obs
/// trace-invisible.

namespace cux::obs {

class Sink {
 public:
  virtual ~Sink() = default;

  /// One span reached a terminal phase. `events` is only valid for the
  /// duration of the call.
  virtual void onSpanRetired(std::uint64_t id, const SpanInfo& info,
                             const SpanEvent* events, std::size_t n_events) = 0;

  /// One windowed aggregate, emitted in deterministic key order by
  /// WindowAggregator::emit.
  virtual void onWindow(const WindowKey& /*key*/, const WindowStats& /*stats*/,
                        const WindowConfig& /*cfg*/) {}

  /// End of stream: flush buffers, close framing. Idempotent.
  virtual void finish() {}
};

/// Counts retirements and windows, emits nothing. The zero-cost default and
/// the sink the trace-invariance tests run with.
class NullSink final : public Sink {
 public:
  void onSpanRetired(std::uint64_t, const SpanInfo&, const SpanEvent*,
                     std::size_t) override {
    ++spans_;
  }
  void onWindow(const WindowKey&, const WindowStats&, const WindowConfig&) override {
    ++windows_;
  }
  [[nodiscard]] std::uint64_t spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }

 private:
  std::uint64_t spans_ = 0;
  std::uint64_t windows_ = 0;
};

/// Streaming JSONL writer: one self-describing JSON object per line, typed
/// "span" / "window" / "util". MultiPath/RailChunk event aux words are
/// decoded to route/bytes fields (never emitted as raw packed integers).
/// Schema is validated in CI by tools/check_obs_stream.py.
class JsonlSink final : public Sink {
 public:
  explicit JsonlSink(std::ostream& os) : os_(&os) {}

  void onSpanRetired(std::uint64_t id, const SpanInfo& info, const SpanEvent* events,
                     std::size_t n_events) override;
  void onWindow(const WindowKey& key, const WindowStats& stats,
                const WindowConfig& cfg) override;
  void finish() override;

  /// Extra line type for the utilization timelines (driven by the sweep
  /// tool, not the collector — hw may not link against obs the other way).
  void utilLine(const char* res_class, std::uint64_t window, std::uint64_t window_ns,
                std::uint64_t busy_ns, std::uint64_t capacity_ns);

  [[nodiscard]] std::uint64_t lines() const noexcept { return lines_; }

 private:
  std::ostream* os_;
  std::uint64_t lines_ = 0;
};

}  // namespace cux::obs
