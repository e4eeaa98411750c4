#pragma once

#include <cstdint>
#include <vector>

#include "obs/sink.hpp"

namespace cux::test {

/// Keeps every retired span with its events, so a test can inspect a run
/// after it: attach with `spans.enableStreaming({}, &retain)`.
struct RetainSink final : obs::Sink {
  struct Span {
    std::uint64_t id = 0;
    obs::SpanInfo info;
    std::vector<obs::SpanEvent> events;
  };
  std::vector<Span> spans;

  void onSpanRetired(std::uint64_t id, const obs::SpanInfo& info, const obs::SpanEvent* events,
                     std::size_t n_events) override {
    spans.push_back(Span{id, info, {events, events + n_events}});
  }

  [[nodiscard]] const Span* find(std::uint64_t id) const {
    for (const Span& s : spans)
      if (s.id == id) return &s;
    return nullptr;
  }
};

}  // namespace cux::test
