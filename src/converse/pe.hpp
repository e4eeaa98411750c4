#pragma once

#include <utility>

#include "sim/engine.hpp"
#include "sim/time.hpp"

/// \file pe.hpp
/// A Processing Element: one CPU core running one scheduler, matching the
/// paper's non-SMP configuration (one PE per process, one process per GPU).
///
/// The PE serialises all software work assigned to it: handler executions,
/// entry-method invocations and callback deliveries queue up behind each
/// other in virtual time. exec() is the single funnel — it charges the given
/// software overhead, starting no earlier than the PE's current busy horizon,
/// and then runs the continuation.

namespace cux::cmi {

class Pe {
 public:
  Pe(sim::Engine& engine, int id) : engine_(engine), id_(id) {}
  Pe(const Pe&) = delete;
  Pe& operator=(const Pe&) = delete;
  Pe(Pe&&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

  /// Serialised execution: `fn` runs after `overhead` of PE time, queued
  /// behind any previously scheduled work on this PE. The callable moves
  /// straight into the engine slot (one event, no type-erased wrapper).
  template <class F>
  void exec(sim::Duration overhead, F&& fn) {
    const sim::TimePoint start =
        engine_.now() > busy_until_ ? engine_.now() : busy_until_;
    busy_until_ = start + overhead;
    engine_.schedule(busy_until_, [this, fn = std::forward<F>(fn)]() mutable {
      if (current_pe == nullptr) {
        fn();
        return;
      }
      const int prev = *current_pe;
      *current_pe = id_;
      fn();
      *current_pe = prev;
    });
  }

  /// Extends the PE's busy horizon without scheduling anything; used to
  /// account for work performed inline by a continuation already running on
  /// this PE (e.g. packing bytes inside a send call).
  void charge(sim::Duration overhead) noexcept {
    const sim::TimePoint start =
        engine_.now() > busy_until_ ? engine_.now() : busy_until_;
    busy_until_ = start + overhead;
  }

  [[nodiscard]] sim::TimePoint busyUntil() const noexcept { return busy_until_; }
  [[nodiscard]] sim::Engine& engine() noexcept { return engine_; }

  /// "Current PE" slot: when set, every exec() continuation writes this PE's
  /// id into it while it runs (restoring the previous value afterwards). The
  /// Converse runtime points it at its currentPe() for proxy sends.
  int* current_pe = nullptr;

 private:
  sim::Engine& engine_;
  int id_;
  sim::TimePoint busy_until_ = 0;
};

}  // namespace cux::cmi
