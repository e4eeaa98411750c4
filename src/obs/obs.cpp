#include "obs/registry.hpp"
#include "obs/span.hpp"

namespace cux::obs {

const char* name(Phase p) {
  switch (p) {
    case Phase::ApiSend:
      return "api-send";
    case Phase::MetaSent:
      return "meta-sent";
    case Phase::MetaArrived:
      return "meta-arrived";
    case Phase::RecvPosted:
      return "recv-posted";
    case Phase::PayloadSent:
      return "payload-sent";
    case Phase::EarlyArrival:
      return "early-arrival";
    case Phase::MatchedPosted:
      return "matched-posted";
    case Phase::MatchedUnexpected:
      return "matched-unexpected";
    case Phase::RndvData:
      return "rndv-data";
    case Phase::RndvAts:
      return "rndv-ats";
    case Phase::Retry:
      return "retry";
    case Phase::Fallback:
      return "fallback";
    case Phase::RecvRepost:
      return "recv-repost";
    case Phase::CollChunk:
      return "coll-chunk";
    case Phase::CollReduce:
      return "coll-reduce";
    case Phase::PeFailed:
      return "pe-failed";
    case Phase::MultiPath:
      return "multi-path";
    case Phase::RailChunk:
      return "rail-chunk";
    case Phase::Completed:
      return "completed";
    case Phase::Errored:
      return "errored";
    case Phase::Cancelled:
      return "cancelled";
  }
  return "?";
}

SpanIntervals intervals(const SpanInfo& info, const SpanEvent* events, std::size_t n_events) {
  sim::TimePoint at[kPhaseCount];
  for (auto& t : at) t = Interval::kNone;
  for (std::size_t i = 0; i < n_events; ++i) {
    auto& slot = at[static_cast<std::size_t>(events[i].phase)];
    if (events[i].time < slot) slot = events[i].time;
  }
  const auto first = [&at](Phase p) { return at[static_cast<std::size_t>(p)]; };
  const sim::TimePoint posted = first(Phase::RecvPosted);
  const sim::TimePoint matched = first(Phase::MatchedUnexpected);
  sim::TimePoint ready = posted;
  if (matched != Interval::kNone && (ready == Interval::kNone || matched > ready)) ready = matched;

  SpanIntervals iv;
  if (info.terminal == Phase::Completed) iv.total = {info.begin, info.end};
  iv.meta = {info.begin, first(Phase::MetaArrived)};
  iv.post_delay = {first(Phase::MetaArrived), posted};
  iv.early_wait = {first(Phase::EarlyArrival), matched != Interval::kNone ? matched : posted};
  iv.data = {ready, first(Phase::Completed)};
  return iv;
}

void Registry::dumpJson(std::ostream& os) const {
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    os << (i ? "," : "") << '"' << counters_[i].name << "\":" << counters_[i].value;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    os << (i ? "," : "") << '"' << gauges_[i].name << "\":" << gauges_[i].value;
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    const Hist& h = hists_[i];
    os << (i ? "," : "") << '"' << h.name << "\":{\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"buckets\":{";
    bool first = true;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (h.buckets[b] != 0) {
        os << (first ? "" : ",") << '"' << b << "\":" << h.buckets[b];
        first = false;
      }
    }
    os << "}}";
  }
  os << "}}";
}

}  // namespace cux::obs
