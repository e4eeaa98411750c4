#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/sink.hpp"

/// \file perfetto.hpp
/// Chrome trace_event JSON export of retired spans, loadable in
/// ui.perfetto.dev or chrome://tracing.
///
/// Layout: each PE is a process ("PE n"). A message span renders as an async
/// duration event on the sender PE (named "<kind> <bytes>B") with its phase
/// transitions nested as instants; the receiver-side obs::SpanIntervals the
/// paper's totals hide — post-delay, early-wait and data — render as their
/// own async events on the receiver PE. An "inflight-spans" counter track
/// per PE shows concurrency, and optional counter tracks (resource
/// utilization) group under a "resources" process.

namespace cux::obs {

/// One named counter series rendered as a Perfetto counter track.
/// Used for the resource-utilization timelines: (ts_us, value) samples.
struct CounterTrack {
  std::string name;
  std::vector<std::pair<double, double>> points;
};

/// A sink that keeps every retired span and writes the whole trace at
/// finish(), because the export covers the whole run (spans in id order,
/// whatever order they retired in).
class PerfettoSink final : public Sink {
 public:
  explicit PerfettoSink(std::ostream& os) : os_(&os) {}

  void onSpanRetired(std::uint64_t id, const SpanInfo& info, const SpanEvent* events,
                     std::size_t n_events) override;
  /// Counter tracks written after the spans; set before finish().
  void setCounters(std::vector<CounterTrack> counters) { counters_ = std::move(counters); }
  /// Writes the trace once; later calls do nothing.
  void finish() override;

 private:
  struct Retired {
    std::uint64_t id;
    SpanInfo info;
    std::size_t first_event;  ///< index of the span's first event in events_
    std::size_t n_events;
  };

  std::ostream* os_;
  bool written_ = false;
  std::vector<Retired> spans_;
  std::vector<SpanEvent> events_;
  std::vector<CounterTrack> counters_;
};

}  // namespace cux::obs
