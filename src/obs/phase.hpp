#pragma once

#include <cstdint>

#include "sim/time.hpp"

/// \file phase.hpp
/// The span vocabulary shared by the collector, the windowed aggregator and
/// the sinks: the phase taxonomy, the per-event and per-span records, the
/// aux-word encoding helpers and the interval derivation. Split out of span.hpp so window.hpp / sink.hpp
/// can consume the record types without pulling in the collector (which in
/// turn owns a WindowAggregator — the include cycle this file breaks).

namespace cux::obs {

/// Phase taxonomy of one message lifecycle. Order is not semantically
/// meaningful; each phase is recorded with its own timestamp.
enum class Phase : std::uint8_t {
  ApiSend,            ///< span begin: top-level send entered (model layer / lrts)
  MetaSent,           ///< host-side metadata handed to converse
  MetaArrived,        ///< metadata envelope reached the receiving model layer
  RecvPosted,         ///< lrtsRecvDevice posted the machine-layer receive
  PayloadSent,        ///< UCX tagged send issued (eager payload or rendezvous RTS)
  EarlyArrival,       ///< payload arrived before the receive was posted (paper's limitation)
  MatchedPosted,      ///< arrival matched an already-posted receive
  MatchedUnexpected,  ///< posted receive matched a queued early arrival
  RndvData,           ///< rendezvous data landed at the receiver
  RndvAts,            ///< rendezvous ATS completed the sender
  Retry,              ///< reliability-layer retransmission of a leg
  Fallback,           ///< device send degraded to the host-staged route
  RecvRepost,         ///< receive re-posted after a terminal rendezvous failure
  CollChunk,          ///< pipelined collective segment handed to the p2p layer
  CollReduce,         ///< modelled reduction kernel launched on a collective segment
  PeFailed,           ///< peer PE declared dead by the failure detector
  MultiPath,          ///< multi-path split: per-route bytes of one transfer
                      ///< (aux = packRouteBytes(route, bytes))
  RailChunk,          ///< multi-rail striping: per-rail bytes of an
                      ///< inter-node transfer (aux encoded as MultiPath)
  Completed,          ///< terminal: data delivered to the receiver
  Errored,            ///< terminal: transfer failed permanently
  Cancelled,          ///< terminal: receive cancelled
};
inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::Cancelled) + 1;

[[nodiscard]] const char* name(Phase p);

[[nodiscard]] constexpr bool terminal(Phase p) noexcept {
  return p == Phase::Completed || p == Phase::Errored || p == Phase::Cancelled;
}

// --- MultiPath/RailChunk aux-word encoding ----------------------------------
// One 64-bit aux packs the route (or rail) index in the top 16 bits and the
// bytes moved on that route in the low 48 (enough for 256 TB per event).
// Every encoder and decoder in the tree goes through these helpers so the
// layout is defined exactly once.

inline constexpr std::uint64_t kAuxBytesMask = (std::uint64_t{1} << 48) - 1;

[[nodiscard]] constexpr std::uint64_t packRouteBytes(unsigned route,
                                                     std::uint64_t bytes) noexcept {
  return (static_cast<std::uint64_t>(route) << 48) | (bytes & kAuxBytesMask);
}
[[nodiscard]] constexpr unsigned unpackRoute(std::uint64_t aux) noexcept {
  return static_cast<unsigned>(aux >> 48);
}
[[nodiscard]] constexpr std::uint64_t unpackRouteBytes(std::uint64_t aux) noexcept {
  return aux & kAuxBytesMask;
}
/// True for the phases whose aux carries the packed route/bytes word.
[[nodiscard]] constexpr bool routedPhase(Phase p) noexcept {
  return p == Phase::MultiPath || p == Phase::RailChunk;
}

/// One recorded phase transition.
struct SpanEvent {
  std::uint64_t span = 0;
  sim::TimePoint time = 0;
  Phase phase = Phase::ApiSend;
  std::int32_t pe = -1;
  std::uint64_t aux = 0;  ///< phase-specific (bytes, attempt number, ...)
};

/// Per-span summary, carried alongside the span's event list while it is
/// open and handed to every sink when it retires.
struct SpanInfo {
  sim::TimePoint begin = 0;
  sim::TimePoint end = 0;  ///< max event time seen so far
  std::int32_t src_pe = -1;
  std::int32_t dst_pe = -1;
  std::uint64_t bytes = 0;
  std::uint64_t tag = 0;         ///< bound wire tag (0 = none bound)
  const char* kind = "";         ///< static string: "charm", "ampi", ...
  Phase terminal = Phase::ApiSend;  ///< terminal phase once retired
};

/// One interval of a span's lifecycle. An endpoint the span never recorded
/// is kNone; the interval exists only when both endpoints were recorded, in
/// order.
struct Interval {
  static constexpr sim::TimePoint kNone = ~sim::TimePoint{0};
  sim::TimePoint from = kNone;
  sim::TimePoint to = kNone;

  [[nodiscard]] bool valid() const noexcept {
    return from != kNone && to != kNone && to >= from;
  }
  [[nodiscard]] sim::Duration length() const noexcept { return to - from; }
};

/// The intervals the paper's end-to-end latencies hide, as every report and
/// exporter sees them (each phase counts at its first occurrence):
///
///   total      ApiSend -> terminal        Completed spans only
///   meta       ApiSend -> MetaArrived     host metadata leg (converse)
///   post_delay MetaArrived -> RecvPosted  the paper's posting limitation
///   early_wait EarlyArrival -> matched    payload parked unexpected; matched
///                                         is MatchedUnexpected, else RecvPosted
///   data       recv ready -> Completed    payload movement + delivery; recv
///                                         ready is the later of RecvPosted
///                                         and MatchedUnexpected
struct SpanIntervals {
  Interval total, meta, post_delay, early_wait, data;
};

/// The one derivation of SpanIntervals, shared by obs::Breakdown, the window
/// aggregator, the critical-path attribution and the Perfetto writer.
[[nodiscard]] SpanIntervals intervals(const SpanInfo& info, const SpanEvent* events,
                                      std::size_t n_events);

}  // namespace cux::obs
