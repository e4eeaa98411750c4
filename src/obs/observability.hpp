#pragma once

#include <functional>
#include <ostream>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "obs/span.hpp"

/// \file observability.hpp
/// The per-System observability bundle: lifecycle spans + metrics registry +
/// the snapshot providers that pull each layer's scattered stats into the
/// registry on demand. Owned by hw::System (`sys.obs`); layers above
/// (ucx::Context, core::DeviceComm, the model runtimes) register a provider
/// at construction and deregister in their destructor, so a snapshot never
/// touches a dead object and the hw layer never needs to know their types.

namespace cux::obs {

class Observability {
 public:
  SpanCollector spans;
  Registry registry;

  using StatsProvider = std::function<void(Registry&)>;

  /// Registers a snapshot callback; returns a handle for removeStatsProvider.
  /// Providers run in registration order on every refresh()/dump.
  int addStatsProvider(StatsProvider fn) {
    providers_.emplace_back(next_provider_, std::move(fn));
    return next_provider_++;
  }

  void removeStatsProvider(int handle) noexcept {
    for (auto it = providers_.begin(); it != providers_.end(); ++it) {
      if (it->first == handle) {
        providers_.erase(it);
        return;
      }
    }
  }

  /// Pulls every registered layer's stats into the registry.
  void refresh() {
    for (auto& [handle, fn] : providers_) fn(registry);
  }

  /// refresh() + JSON registry dump.
  void dumpJson(std::ostream& os) {
    refresh();
    registry.dumpJson(os);
  }

  // --- iteration marks ------------------------------------------------------
  // Workload drivers (OSU latency mains, Jacobi steps, training steps) mark
  // iteration boundaries in simulated time; the critical-path attribution
  // partitions span segments between consecutive marks. No-op unless spans
  // are enabled, so marking is trace-invisible and free in production runs.

  void markIteration(sim::TimePoint t) {
    if (spans.enabled()) iteration_marks_.push_back(t);
  }
  [[nodiscard]] const std::vector<sim::TimePoint>& iterationMarks() const noexcept {
    return iteration_marks_;
  }

 private:
  std::vector<std::pair<int, StatsProvider>> providers_;
  std::vector<sim::TimePoint> iteration_marks_;
  int next_provider_ = 1;
};

}  // namespace cux::obs
