#pragma once

#include <cstdio>

#include "hw/system.hpp"

/// Event-order pins for the golden runs. Every bench binary turns the trace
/// hash on for each simulated machine it builds and, after that machine's
/// run, writes one line to stderr:
///
///   <trace hash, 16 hex digits> <trace records> <events processed> <final virtual time, ns>
///
/// The golden test byte-compares stderr with bench/golden/<name>.trace, so a
/// change to event order fails there even when every printed figure stays
/// within its printed precision.

namespace cux::bench {

/// Turns the trace hash on for a freshly built machine, before any traffic.
inline void traceOn(hw::System& sys) { sys.trace.enable(); }

/// Writes the machine's pin line to stderr once its run has finished.
inline void tracePin(hw::System& sys) {
  std::fprintf(stderr, "%016llx %llu %llu %llu\n",
               static_cast<unsigned long long>(sys.trace.hash()),
               static_cast<unsigned long long>(sys.trace.recorded()),
               static_cast<unsigned long long>(sys.engine.eventsProcessed()),
               static_cast<unsigned long long>(sys.engine.now()));
}

/// `cfg` with its `setup`/`inspect` hooks pinning every machine it runs.
template <typename Config>
Config pinned(Config cfg) {
  cfg.setup = traceOn;
  cfg.inspect = tracePin;
  return cfg;
}

}  // namespace cux::bench
