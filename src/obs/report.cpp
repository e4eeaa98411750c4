#include "obs/report.hpp"

#include <algorithm>
#include <cmath>

namespace cux::obs {

void Breakdown::onSpanRetired(std::uint64_t, const SpanInfo& s, const SpanEvent* events,
                              std::size_t n_events) {
  bool posted = false;
  bool unexpected = false;
  for (std::size_t i = 0; i < n_events; ++i) {
    const SpanEvent& e = events[i];
    if (e.phase == Phase::Retry) ++retries;
    if (e.phase == Phase::Fallback) ++fallbacks;
    posted |= e.phase == Phase::MatchedPosted;
    unexpected |= e.phase == Phase::MatchedUnexpected;
    if (routedPhase(e.phase)) {
      ++multipath_events;
      const std::size_t route = unpackRoute(e.aux);
      if (route >= path_bytes.size()) path_bytes.resize(route + 1, 0);
      path_bytes[route] += unpackRouteBytes(e.aux);
    }
  }

  ++spans;
  if (s.terminal == Phase::Completed) ++completed;
  if (s.terminal == Phase::Errored) ++errored;
  if (posted) ++matched_posted;
  if (unexpected) ++matched_unexpected;

  const SpanIntervals iv = intervals(s, events, n_events);
  const auto sample = [](std::vector<double>& v, const Interval& i) {
    if (i.valid()) v.push_back(sim::toUs(i.length()));
  };
  sample(total, iv.total);
  sample(meta, iv.meta);
  sample(post_delay, iv.post_delay);
  sample(early_wait, iv.early_wait);
  sample(data, iv.data);
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (p <= 0) return v.front();
  if (p >= 100) return v.back();
  // Linear interpolation between closest ranks (numpy's default).
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

}  // namespace cux::obs
