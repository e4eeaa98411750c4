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
  const WindowKey key{info.kind,
                      static_cast<std::uint32_t>(std::bit_width(info.bytes)),
                      info.end / cfg_.window_ns};
  WindowStats& w = map_[key];

  std::uint64_t retries = 0;
  std::uint64_t multipath = 0;
  bool fallback = false;
  bool early = false;
  for (std::size_t i = 0; i < n_events; ++i) {
    const Phase p = events[i].phase;
    if (p == Phase::Retry) ++retries;
    if (routedPhase(p)) ++multipath;
    fallback |= p == Phase::Fallback;
    early |= p == Phase::EarlyArrival;
  }

  ++w.spans;
  w.bytes += info.bytes;
  w.retries += retries;
  w.multipath_events += multipath;
  if (fallback) ++w.fallbacks;
  if (early) ++w.early_arrivals;
  switch (info.terminal) {
    case Phase::Completed: ++w.completed; break;
    case Phase::Errored: ++w.errored; break;
    case Phase::Cancelled: ++w.cancelled; break;
    default: break;
  }

  const SpanIntervals iv = intervals(info, events, n_events);
  const auto observe = [](LatHist& h, const Interval& i) {
    if (i.valid()) h.observe(i.length());
  };
  observe(w.total, iv.total);
  observe(w.meta, iv.meta);
  observe(w.post_delay, iv.post_delay);
  observe(w.early_wait, iv.early_wait);
  observe(w.data, iv.data);

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

}  // namespace cux::obs
