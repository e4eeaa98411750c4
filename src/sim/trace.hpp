#pragma once

#include <cstdint>

#include "sim/time.hpp"

/// \file trace.hpp
/// Message-timeline hashing. When enabled on the System, the communication
/// layers report one record per interesting event (send started, protocol
/// chosen, data arrived, handler dispatched, ...) and the Tracer folds each
/// into a running order-sensitive hash, so two runs can be compared by one
/// number. Disabled by default: a single branch per event.

namespace cux::sim {

enum class TraceCat : std::uint8_t {
  UcxSend,     ///< tagged send started (detail: protocol)
  UcxRecv,     ///< receive completion
  UcxRndv,     ///< rendezvous data transfer scheduled
  CmiSend,     ///< Converse message sent
  CmiSched,    ///< Converse handler dispatched
  LrtsSend,    ///< machine-layer device/zcopy send
  LrtsRecv,    ///< machine-layer receive posted
  Kernel,      ///< GPU kernel
  User,        ///< application-defined marker
  // Reliability events (appended so existing categories keep their encoded
  // values — fault-free trace hashes stay bit-identical).
  Drop,        ///< injector dropped a message / duplicate suppressed
  Retry,       ///< retransmission after timeout
  Fallback,    ///< device send degraded to the host-staged route
  PeFail,      ///< failure detector declared a PE dead / request peer-failed
};

[[nodiscard]] const char* name(TraceCat c);

/// One record as the Tracer folds it. `detail` is the caller's string and is
/// valid only for the duration of the call that reports the record.
struct TraceRecord {
  TimePoint time = 0;
  TraceCat cat = TraceCat::User;
  int pe = -1;
  int peer = -1;
  std::uint64_t bytes = 0;
  std::uint64_t tag = 0;
  const char* detail = "";
};

/// Receives every record the Tracer folds, in order (tests keep them).
class TraceSink {
 public:
  virtual void onRecord(const TraceRecord& r) = 0;
};

class Tracer {
 public:
  /// Starts folding records into the hash. `sink`, if given, also receives
  /// each record as it is folded and must outlive the Tracer's use.
  void enable(TraceSink* sink = nullptr) noexcept {
    enabled_ = true;
    sink_ = sink;
  }

  void record(TimePoint t, TraceCat cat, int pe, int peer, std::uint64_t bytes,
              std::uint64_t tag, const char* detail = "") {
    if (!enabled_) return;
    fold(TraceRecord{t, cat, pe, peer, bytes, tag, detail});
  }

  /// Order-sensitive FNV-1a over every record folded so far (its fields as
  /// little-endian 64-bit words, then the detail's bytes). Two runs of a
  /// deterministic workload produce identical hashes; the goldens' trace
  /// pins and the determinism tests compare these across runs and builds.
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

  /// Number of records folded so far.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }

 private:
  void fold(const TraceRecord& r);

  bool enabled_ = false;
  TraceSink* sink_ = nullptr;
  std::uint64_t hash_ = 14695981039346656037ull;  ///< FNV-1a offset basis
  std::uint64_t recorded_ = 0;
};

}  // namespace cux::sim
