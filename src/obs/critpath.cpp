#include "obs/critpath.hpp"

#include <algorithm>

namespace cux::obs {

const char* name(CritCat c) {
  switch (c) {
    case CritCat::Retry: return "retry";
    case CritCat::PostDelay: return "post_delay";
    case CritCat::EarlyWait: return "early_wait";
    case CritCat::LinkNic: return "link_nic";
    case CritCat::LinkNvLink: return "link_nvlink";
    case CritCat::LinkShm: return "link_shm";
    case CritCat::HostMeta: return "host_meta";
    case CritCat::Compute: return "compute";
  }
  return "?";
}

namespace {

CritCat dataClass(const CritPathConfig& cfg, const SpanInfo& info) {
  if (cfg.host_staged) return CritCat::LinkShm;
  if (cfg.gpus_per_node > 0 && info.src_pe >= 0 && info.dst_pe >= 0 &&
      info.src_pe / cfg.gpus_per_node != info.dst_pe / cfg.gpus_per_node)
    return CritCat::LinkNic;
  return CritCat::LinkNvLink;
}

}  // namespace

void CritPath::addSpan(const SpanInfo& info, const SpanEvent* events,
                       std::size_t n_events) {
  // Retry timestamps in record order: each retransmit charges the wire time
  // wasted since the previous attempt boundary to overhead.
  sim::TimePoint attempt_start = info.begin;
  sim::TimePoint sent = Interval::kNone;
  for (std::size_t i = 0; i < n_events; ++i) {
    const SpanEvent& e = events[i];
    if (e.phase == Phase::PayloadSent) {
      if (attempt_start == info.begin) attempt_start = e.time;
      sent = std::min(sent, e.time);
    }
    if (e.phase == Phase::Retry || e.phase == Phase::Fallback) {
      emitSeg(attempt_start, e.time, CritCat::Retry);
      attempt_start = e.time;
    }
  }

  const SpanIntervals iv = intervals(info, events, n_events);
  const auto emit = [this](const Interval& i, CritCat cat) {
    if (i.valid()) emitSeg(i.from, i.to, cat);
  };
  emit(iv.meta, CritCat::HostMeta);
  emit(iv.post_delay, CritCat::PostDelay);
  emit(iv.early_wait, CritCat::EarlyWait);

  if (info.terminal == Phase::Completed) {
    // Data leg: from the moment both sides were ready to the delivery. Spans
    // without a modelled recv post (host converse messages) start it at the
    // payload send, or at the span begin.
    sim::TimePoint from = iv.data.from;
    if (from == Interval::kNone) from = sent != Interval::kNone ? sent : info.begin;
    emitSeg(from, iv.data.to, dataClass(cfg_, info));
  }
}

std::vector<CritPath::Iteration> CritPath::attribute(
    const std::vector<sim::TimePoint>& marks) const {
  std::vector<Iteration> out;
  if (marks.size() < 2) return out;
  out.reserve(marks.size() - 1);

  std::vector<Seg> clipped;
  std::vector<sim::TimePoint> bounds;
  for (std::size_t i = 0; i + 1 < marks.size(); ++i) {
    const sim::TimePoint w0 = marks[i];
    const sim::TimePoint w1 = marks[i + 1];
    Iteration it;
    it.begin = w0;
    it.end = w1;
    if (w1 <= w0) {
      out.push_back(it);
      continue;
    }

    clipped.clear();
    bounds.clear();
    bounds.push_back(w0);
    bounds.push_back(w1);
    for (const Seg& s : segs_) {
      if (s.b <= w0 || s.a >= w1) continue;
      const Seg c{std::max(s.a, w0), std::min(s.b, w1), s.cat};
      clipped.push_back(c);
      bounds.push_back(c.a);
      bounds.push_back(c.b);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    std::array<std::uint64_t, kCritCatCount> ns{};
    for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
      const sim::TimePoint x = bounds[b];
      const sim::TimePoint y = bounds[b + 1];
      CritCat best = CritCat::Compute;
      for (const Seg& c : clipped)
        if (c.a <= x && c.b >= y && c.cat < best) best = c.cat;
      ns[static_cast<std::size_t>(best)] += y - x;
    }
    // The sweep partitions [w0, w1) exactly, so sum(ns) == w1 - w0 and the
    // us components below sum to wall_us up to float rounding.
    it.wall_us = sim::toUs(w1 - w0);
    for (std::size_t c = 0; c < kCritCatCount; ++c) it.us[c] = sim::toUs(ns[c]);
    out.push_back(it);
  }
  return out;
}

}  // namespace cux::obs
