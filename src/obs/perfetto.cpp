#include "obs/perfetto.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>

namespace cux::obs {

namespace {

/// Minimal JSON string escape (names are short ASCII; anything exotic is
/// replaced rather than risking invalid JSON).
void jsonString(std::ostream& os, const char* s) {
  os << '"';
  for (const char* p = s; *p != '\0'; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    if (c == '"' || c == '\\') {
      os << '\\' << *p;
    } else if (c < 0x20 || c > 0x7e) {
      os << '?';
    } else {
      os << *p;
    }
  }
  os << '"';
}

struct Emitter {
  std::ostream& os;
  bool first = true;
  void open() {
    os << (first ? "\n" : ",\n") << "  {";
    first = false;
  }
  void close() { os << '}'; }
};

void asyncEvent(Emitter& em, const char* ph, const char* cat, const char* name,
                std::uint64_t id, int pid, double ts) {
  em.open();
  em.os << "\"cat\":\"" << cat << "\",\"id\":\"0x" << std::hex << id << std::dec
        << "\",\"ph\":\"" << ph << "\",\"name\":";
  jsonString(em.os, name);
  em.os << ",\"pid\":" << pid << ",\"tid\":0,\"ts\":" << ts;
  em.close();
}

}  // namespace

void PerfettoSink::onSpanRetired(std::uint64_t id, const SpanInfo& info,
                                 const SpanEvent* events, std::size_t n_events) {
  spans_.push_back(Retired{id, info, events_.size(), n_events});
  events_.insert(events_.end(), events, events + n_events);
}

void PerfettoSink::finish() {
  if (written_) return;
  written_ = true;
  std::ostream& os = *os_;
  std::sort(spans_.begin(), spans_.end(),
            [](const Retired& a, const Retired& b) { return a.id < b.id; });

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  Emitter em{os};

  // Every PE that appears anywhere becomes a process track.
  std::set<int> pes;
  for (const Retired& r : spans_) {
    if (r.info.src_pe >= 0) pes.insert(r.info.src_pe);
    if (r.info.dst_pe >= 0) pes.insert(r.info.dst_pe);
  }
  for (const SpanEvent& e : events_) {
    if (e.pe >= 0) pes.insert(e.pe);
  }
  for (int pe : pes) {
    em.open();
    os << "\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pe
       << ",\"tid\":0,\"args\":{\"name\":\"PE " << pe << "\"}";
    em.close();
    em.open();
    os << "\"ph\":\"M\",\"name\":\"process_sort_index\",\"pid\":" << pe
       << ",\"tid\":0,\"args\":{\"sort_index\":" << pe << "}";
    em.close();
  }

  for (const Retired& r : spans_) {
    const SpanInfo& s = r.info;
    const int pid = s.src_pe >= 0 ? s.src_pe : 0;
    char label[96];
    std::snprintf(label, sizeof(label), "%s %llu B", s.kind[0] ? s.kind : "span",
                  static_cast<unsigned long long>(s.bytes));

    em.open();
    os << "\"cat\":\"span\",\"id\":\"0x" << std::hex << r.id << std::dec
       << "\",\"ph\":\"b\",\"name\":";
    jsonString(os, label);
    os << ",\"pid\":" << pid << ",\"tid\":0,\"ts\":" << sim::toUs(s.begin)
       << ",\"args\":{\"span\":" << r.id << ",\"bytes\":" << s.bytes << ",\"tag\":" << s.tag
       << ",\"dst_pe\":" << s.dst_pe << ",\"terminal\":";
    jsonString(os, name(s.terminal));
    os << "}";
    em.close();
    asyncEvent(em, "e", "span", label, r.id, pid, sim::toUs(s.end));

    // Receiver-side intervals (each its own category: no nesting constraints).
    const SpanIntervals iv = intervals(s, events_.data() + r.first_event, r.n_events);
    const int dst = s.dst_pe >= 0 ? s.dst_pe : pid;
    for (const auto& [cat, i] : {std::pair{"post-delay", iv.post_delay},
                                 std::pair{"early-wait", iv.early_wait},
                                 std::pair{"data", iv.data}}) {
      if (!i.valid()) continue;
      asyncEvent(em, "b", cat, cat, r.id, dst, sim::toUs(i.from));
      asyncEvent(em, "e", cat, cat, r.id, dst, sim::toUs(i.to));
    }
  }

  // Phase transitions as nested instants inside each span's async track.
  for (const Retired& r : spans_) {
    const int pid = r.info.src_pe >= 0 ? r.info.src_pe : 0;
    for (std::size_t k = 0; k < r.n_events; ++k) {
      const SpanEvent& e = events_[r.first_event + k];
      em.open();
      os << "\"cat\":\"span\",\"id\":\"0x" << std::hex << r.id << std::dec
         << "\",\"ph\":\"n\",\"name\":";
      jsonString(os, name(e.phase));
      os << ",\"pid\":" << pid << ",\"tid\":0,\"ts\":" << sim::toUs(e.time)
         << ",\"args\":{\"pe\":" << e.pe;
      if (routedPhase(e.phase)) {
        // Decode the packed multipath word: which route/rail, how many bytes —
        // a raw 64-bit integer is useless in the UI.
        os << ",\"route\":" << unpackRoute(e.aux)
           << ",\"route_bytes\":" << unpackRouteBytes(e.aux);
      } else {
        os << ",\"aux\":" << e.aux;
      }
      os << "}";
      em.close();
    }
  }

  // Per-PE in-flight span counter.
  std::map<int, std::map<sim::TimePoint, std::int64_t>> deltas;
  for (const Retired& r : spans_) {
    const int pid = r.info.src_pe >= 0 ? r.info.src_pe : 0;
    deltas[pid][r.info.begin] += 1;
    deltas[pid][r.info.end] -= 1;
  }
  for (const auto& [pe, series] : deltas) {
    std::int64_t level = 0;
    for (const auto& [t, d] : series) {
      level += d;
      em.open();
      os << "\"ph\":\"C\",\"name\":\"inflight-spans\",\"pid\":" << pe
         << ",\"tid\":0,\"ts\":" << sim::toUs(t) << ",\"args\":{\"spans\":" << level << "}";
      em.close();
    }
  }

  // Counter tracks (resource-utilization timelines) on a dedicated
  // "resources" process so they group together in the UI.
  if (!counters_.empty()) {
    constexpr int kResourcePid = 1'000'000;
    em.open();
    os << "\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << kResourcePid
       << ",\"tid\":0,\"args\":{\"name\":\"resources\"}";
    em.close();
    for (const CounterTrack& track : counters_) {
      for (const auto& [ts, value] : track.points) {
        em.open();
        os << "\"ph\":\"C\",\"name\":";
        jsonString(os, track.name.c_str());
        os << ",\"pid\":" << kResourcePid << ",\"tid\":0,\"ts\":" << ts
           << ",\"args\":{\"value\":" << value << "}";
        em.close();
      }
    }
  }

  os << "\n]}\n";
  os.flush();
}

}  // namespace cux::obs
