#include "obs/sink.hpp"

#include <ostream>

namespace cux::obs {

// --- JsonlSink --------------------------------------------------------------

void JsonlSink::onSpanRetired(std::uint64_t id, const SpanInfo& info,
                              const SpanEvent* events, std::size_t n_events) {
  std::ostream& os = *os_;
  os << "{\"type\":\"span\",\"id\":" << id << ",\"kind\":\"" << info.kind
     << "\",\"src_pe\":" << info.src_pe << ",\"dst_pe\":" << info.dst_pe
     << ",\"bytes\":" << info.bytes << ",\"tag\":" << info.tag
     << ",\"begin_ns\":" << info.begin << ",\"end_ns\":" << info.end
     << ",\"terminal\":\"" << name(info.terminal) << "\",\"events\":[";
  for (std::size_t i = 0; i < n_events; ++i) {
    const SpanEvent& e = events[i];
    if (i != 0) os << ",";
    os << "{\"t_ns\":" << e.time << ",\"phase\":\"" << name(e.phase)
       << "\",\"pe\":" << e.pe;
    if (routedPhase(e.phase)) {
      // Satellite: the packed route<<48|bytes aux word is decoded here, never
      // shipped raw.
      os << ",\"route\":" << unpackRoute(e.aux)
         << ",\"route_bytes\":" << unpackRouteBytes(e.aux);
    } else if (e.aux != 0) {
      os << ",\"aux\":" << e.aux;
    }
    os << "}";
  }
  os << "]}\n";
  ++lines_;
}

void JsonlSink::onWindow(const WindowKey& key, const WindowStats& stats,
                         const WindowConfig& cfg) {
  std::ostream& os = *os_;
  os << "{\"type\":\"window\",";
  WindowAggregator::dumpWindowFields(os, key, stats, cfg);
  os << "}\n";
  ++lines_;
}

void JsonlSink::utilLine(const char* res_class, std::uint64_t window,
                         std::uint64_t window_ns, std::uint64_t busy_ns,
                         std::uint64_t capacity_ns) {
  *os_ << "{\"type\":\"util\",\"class\":\"" << res_class << "\",\"window\":" << window
       << ",\"window_ns\":" << window_ns << ",\"busy_ns\":" << busy_ns
       << ",\"capacity_ns\":" << capacity_ns << "}\n";
  ++lines_;
}

void JsonlSink::finish() { os_->flush(); }

}  // namespace cux::obs
