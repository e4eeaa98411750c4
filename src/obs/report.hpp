#pragma once

#include <cstdint>
#include <vector>

#include "obs/sink.hpp"

/// \file report.hpp
/// Per-phase latency breakdown of retired spans: the quantities the paper's
/// end-to-end figures cannot show. Samples are the obs::SpanIntervals
/// (total, meta, post_delay, early_wait, data) in microseconds of virtual
/// time. An interval is only sampled for spans that recorded both endpoints,
/// so e.g. early_wait has samples only for transfers that really did arrive
/// before the receive was posted.

namespace cux::obs {

/// A sink: attach it to a collector (or several, to aggregate across runs)
/// and read the samples after the run.
struct Breakdown final : Sink {
  std::vector<double> total, meta, post_delay, early_wait, data;
  std::uint64_t spans = 0;
  std::uint64_t completed = 0;
  std::uint64_t errored = 0;
  std::uint64_t matched_posted = 0;
  std::uint64_t matched_unexpected = 0;
  std::uint64_t retries = 0;
  std::uint64_t fallbacks = 0;
  /// Multi-path accounting from MultiPath/RailChunk events (aux packs
  /// route index << 48 | bytes): events seen, and bytes per route index.
  std::uint64_t multipath_events = 0;
  std::vector<std::uint64_t> path_bytes;

  void onSpanRetired(std::uint64_t id, const SpanInfo& info, const SpanEvent* events,
                     std::size_t n_events) override;
};

/// p in [0, 100]; sorts `v` in place. Returns 0 for an empty vector.
[[nodiscard]] double percentile(std::vector<double>& v, double p);

}  // namespace cux::obs
