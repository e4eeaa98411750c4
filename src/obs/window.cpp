#include "obs/window.hpp"

#include <algorithm>
#include <ostream>

#include "obs/sink.hpp"

namespace cux::obs {

namespace {

/// Exemplar sampling order: lexicographic on stable span content, so the
/// sample is independent of fold order.
bool exemplarLess(const SpanInfo& a, const SpanInfo& b) noexcept {
  if (a.begin != b.begin) return a.begin < b.begin;
  if (a.src_pe != b.src_pe) return a.src_pe < b.src_pe;
  if (a.dst_pe != b.dst_pe) return a.dst_pe < b.dst_pe;
  if (a.bytes != b.bytes) return a.bytes < b.bytes;
  return a.tag < b.tag;
}

}  // namespace

void WindowAggregator::fold(const SpanInfo& info, const SpanEvent* events,
                            std::size_t n_events) {
  if (cfg_.window_ns == 0) cfg_.window_ns = 1;

  const WindowKey key{info.kind,
                      static_cast<std::uint32_t>(std::bit_width(info.bytes)),
                      info.end / cfg_.window_ns};
  WindowStats& w = map_[key];

  PhaseTimes pt;
  std::uint64_t retries = 0;
  std::uint64_t multipath = 0;
  for (std::size_t i = 0; i < n_events; ++i) {
    const SpanEvent& e = events[i];
    pt.see(e.phase, e.time);
    if (e.phase == Phase::Retry) ++retries;
    if (routedPhase(e.phase)) ++multipath;
  }

  ++w.spans;
  w.bytes += info.bytes;
  w.retries += retries;
  w.multipath_events += multipath;
  if (pt.has(Phase::Fallback)) ++w.fallbacks;
  if (pt.has(Phase::EarlyArrival)) ++w.early_arrivals;
  switch (info.terminal) {
    case Phase::Completed: ++w.completed; break;
    case Phase::Errored: ++w.errored; break;
    case Phase::Cancelled: ++w.cancelled; break;
    default: break;
  }

  // The interval derivations mirror obs::Breakdown::accumulate so the
  // windowed histograms and the retained-mode report agree on semantics.
  if (info.terminal == Phase::Completed && info.end >= info.begin)
    w.total.observe(info.end - info.begin);
  if (pt.has(Phase::MetaArrived) && pt.get(Phase::MetaArrived) >= info.begin)
    w.meta.observe(pt.get(Phase::MetaArrived) - info.begin);
  if (pt.has(Phase::MetaArrived) && pt.has(Phase::RecvPosted) &&
      pt.get(Phase::RecvPosted) >= pt.get(Phase::MetaArrived))
    w.post_delay.observe(pt.get(Phase::RecvPosted) - pt.get(Phase::MetaArrived));
  if (pt.has(Phase::EarlyArrival)) {
    const sim::TimePoint matched = pt.has(Phase::MatchedUnexpected)
                                       ? pt.get(Phase::MatchedUnexpected)
                                       : pt.get(Phase::RecvPosted);
    if (matched != PhaseTimes::kNone && matched >= pt.get(Phase::EarlyArrival))
      w.early_wait.observe(matched - pt.get(Phase::EarlyArrival));
  }
  if (info.terminal == Phase::Completed) {
    sim::TimePoint from = PhaseTimes::kNone;
    if (pt.has(Phase::RecvPosted)) from = pt.get(Phase::RecvPosted);
    if (pt.has(Phase::MatchedUnexpected) &&
        (from == PhaseTimes::kNone || pt.get(Phase::MatchedUnexpected) > from))
      from = pt.get(Phase::MatchedUnexpected);
    if (from != PhaseTimes::kNone && info.end >= from) w.data.observe(info.end - from);
  }

  insertExemplar(w, info, events, n_events);
}

void WindowAggregator::insertExemplar(WindowStats& w, const SpanInfo& info,
                                      const SpanEvent* events, std::size_t n_events) {
  const std::size_t cap = cfg_.exemplars_per_window;
  if (cap == 0) return;
  auto pos = std::find_if(w.exemplars.begin(), w.exemplars.end(),
                          [&](const SpanExemplar& e) { return exemplarLess(info, e.info); });
  if (w.exemplars.size() >= cap && pos == w.exemplars.end()) return;
  SpanExemplar ex;
  ex.info = info;
  ex.events.assign(events, events + n_events);
  w.exemplars.insert(pos, std::move(ex));
  if (w.exemplars.size() > cap) w.exemplars.pop_back();
}

void WindowAggregator::emit(Sink& sink) const {
  for (const auto& [key, stats] : map_) sink.onWindow(key, stats, cfg_);
}

namespace {

void dumpHist(std::ostream& os, const char* label, const LatHist& h, bool* first) {
  if (!*first) os << ",";
  *first = false;
  os << "\"" << label << "\":{\"count\":" << h.count << ",\"sum_ns\":" << h.sum
     << ",\"buckets\":{";
  bool bf = true;
  for (std::size_t i = 0; i < LatHist::kBuckets; ++i) {
    if (h.buckets[i] == 0) continue;
    if (!bf) os << ",";
    bf = false;
    os << "\"" << i << "\":" << h.buckets[i];
  }
  os << "}}";
}

}  // namespace

void WindowAggregator::dumpWindowFields(std::ostream& os, const WindowKey& key,
                                        const WindowStats& w, const WindowConfig& cfg) {
  os << "\"kind\":\"" << key.kind << "\",\"size_class\":" << key.size_class
     << ",\"window\":" << key.window << ",\"window_ns\":" << cfg.window_ns
     << ",\"spans\":" << w.spans << ",\"completed\":" << w.completed
     << ",\"errored\":" << w.errored << ",\"cancelled\":" << w.cancelled
     << ",\"retries\":" << w.retries << ",\"fallbacks\":" << w.fallbacks
     << ",\"early_arrivals\":" << w.early_arrivals
     << ",\"multipath_events\":" << w.multipath_events << ",\"bytes\":" << w.bytes
     << ",\"hist\":{";
  bool fh = true;
  dumpHist(os, "total", w.total, &fh);
  dumpHist(os, "meta", w.meta, &fh);
  dumpHist(os, "post_delay", w.post_delay, &fh);
  dumpHist(os, "early_wait", w.early_wait, &fh);
  dumpHist(os, "data", w.data, &fh);
  os << "},\"exemplars\":[";
  bool fe = true;
  for (const SpanExemplar& ex : w.exemplars) {
    if (!fe) os << ",";
    fe = false;
    os << "{\"begin_ns\":" << ex.info.begin << ",\"end_ns\":" << ex.info.end
       << ",\"src_pe\":" << ex.info.src_pe << ",\"dst_pe\":" << ex.info.dst_pe
       << ",\"bytes\":" << ex.info.bytes << ",\"events\":" << ex.events.size() << "}";
  }
  os << "]";
}

void WindowAggregator::dumpJson(std::ostream& os) const {
  os << "[";
  bool first_win = true;
  for (const auto& [key, w] : map_) {
    if (!first_win) os << ",";
    first_win = false;
    os << "{";
    dumpWindowFields(os, key, w, cfg_);
    os << "}";
  }
  os << "]";
}

}  // namespace cux::obs
