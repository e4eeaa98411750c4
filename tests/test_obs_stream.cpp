#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "retain_sink.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

/// Bounded-memory observability: a message storm at >= 10x the 4096 spans a
/// whole-run consumer used to pre-reserve must run with collector memory
/// independent of the message count.

// --------------------------------------------------------------------------
// Live-byte heap accounting. Every allocation is prefixed with a 16-byte
// header holding its size, so operator delete can subtract exactly what
// operator new added. (Alloc *counts* would be the wrong metric here: the
// open-span index legitimately allocates one hash node per begin and frees
// it at retirement — bounded live memory is the contract, not zero mallocs.)
// --------------------------------------------------------------------------

static std::uint64_t g_live = 0;
static std::uint64_t g_peak = 0;

namespace {
constexpr std::size_t kHeader = 16;  // preserves max_align_t alignment

void* trackedAlloc(std::size_t n) {
  void* raw = std::malloc(n + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::uint64_t*>(raw) = n;
  g_live += n;
  g_peak = std::max(g_peak, g_live);
  return static_cast<char*>(raw) + kHeader;
}

void trackedFree(void* p) noexcept {
  if (p == nullptr) return;
  char* raw = static_cast<char*>(p) - kHeader;
  g_live -= *reinterpret_cast<std::uint64_t*>(raw);
  std::free(raw);
}
}  // namespace

void* operator new(std::size_t n) { return trackedAlloc(n); }
void* operator new[](std::size_t n) { return trackedAlloc(n); }
void operator delete(void* p) noexcept { trackedFree(p); }
void operator delete[](void* p) noexcept { trackedFree(p); }
void operator delete(void* p, std::size_t) noexcept { trackedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { trackedFree(p); }

namespace {

using namespace cux;

// --------------------------------------------------------------------------
// Bounded memory at 10x a 4096-span capacity (the acceptance bar: >= 40960
// deliveries).
// --------------------------------------------------------------------------

constexpr int kPes = 16;
constexpr int kWalkers = 16;
constexpr int kHops = 159;
constexpr std::uint64_t kDeliveries =
    static_cast<std::uint64_t>(kPes) * kWalkers * (kHops + 1);
static_assert(kDeliveries >= 10 * 4096, "storm must be >= 10x a 4096-span capacity");

/// Random-walk message storm on one engine: every PE injects kWalkers
/// walkers; each delivery records one span and forwards the walker to a
/// pseudo-random PE after a varied latency, kHops times.
struct Storm {
  sim::Engine engine;
  obs::SpanCollector spans;
  std::uint64_t deliveries = 0;

  static sim::Duration latency(int a, int b) {
    return 50 + 7 * static_cast<sim::Duration>((a * 13 + b * 31) % 6);
  }

  void hop(int pe, std::uint64_t rng_state, std::uint32_t walker, int hops_left) {
    ++deliveries;
    const sim::TimePoint t = engine.now();
    const std::uint64_t id = spans.begin(t, pe, pe, walker, "storm.hop");
    spans.phase(id, t, obs::Phase::MatchedPosted, pe, static_cast<std::uint64_t>(hops_left));
    spans.end(id, t, obs::Phase::Completed, pe);
    if (hops_left <= 0) return;
    sim::SplitMix64 rng(rng_state);
    const int dst = static_cast<int>(rng.below(kPes));
    const std::uint64_t next_state = rng.next();
    engine.after(latency(pe, dst), [this, dst, next_state, walker, hops_left] {
      hop(dst, next_state, walker, hops_left - 1);
    });
  }

  void run() {
    for (int pe = 0; pe < kPes; ++pe) {
      for (int w = 0; w < kWalkers; ++w) {
        const auto walker = static_cast<std::uint32_t>(pe * kWalkers + w);
        sim::SplitMix64 seeder(0x5eed ^ (0x9E3779B97F4A7C15ULL * (walker + 1)));
        const std::uint64_t state = seeder.next();
        engine.schedule(walker % 128, [this, pe, state, walker] { hop(pe, state, walker, kHops); });
      }
    }
    engine.run();
  }
};

struct StormRun {
  std::uint64_t deliveries = 0;
  std::int64_t live_growth = 0;  ///< bytes still allocated after the run
  std::int64_t peak_growth = 0;  ///< peak bytes above the pre-run level
  std::uint64_t begun = 0;
  std::uint64_t retired = 0;
  std::uint64_t open = 0;
  std::uint64_t open_hwm = 0;
  std::uint64_t dropped = 0;
};

/// `retain`: attach a RetainSink, the consumer that keeps every span — the
/// per-message memory the collector itself must never hold.
StormRun runTenXStorm(bool retain) {
  Storm storm;
  test::RetainSink retained;
  // Snapshot before enabling: the collector's up-front reservation is part
  // of its footprint.
  const std::uint64_t before = g_live;
  g_peak = before;
  storm.spans.enableStreaming({}, retain ? &retained : nullptr);
  storm.run();
  StormRun out;
  out.deliveries = storm.deliveries;
  out.live_growth = static_cast<std::int64_t>(g_live) - static_cast<std::int64_t>(before);
  out.peak_growth = static_cast<std::int64_t>(g_peak) - static_cast<std::int64_t>(before);
  out.begun = storm.spans.begun();
  out.retired = storm.spans.retired();
  out.open = storm.spans.openCount();
  out.open_hwm = storm.spans.openHighWatermark();
  out.dropped = storm.spans.droppedEvents();
  return out;
}

TEST(StreamObs, TenXStormStaysBoundedWhileRetainedModeGrows) {
  const StormRun streaming = runTenXStorm(/*retain=*/false);
  const StormRun retained = runTenXStorm(/*retain=*/true);

  ASSERT_EQ(streaming.deliveries, kDeliveries);
  EXPECT_EQ(streaming.begun, kDeliveries);
  EXPECT_EQ(streaming.retired, kDeliveries) << "every span must retire through streaming";
  EXPECT_EQ(streaming.open, 0u);
  EXPECT_LE(streaming.open_hwm, 1u) << "hook spans close in the same callback";
  EXPECT_EQ(streaming.dropped, 0u);
  EXPECT_EQ(retained.begun, kDeliveries);

  // The acceptance bound: streaming collector memory is O(open spans +
  // windows), not O(deliveries). 1 MiB is ~25 B/span of headroom; the real
  // footprint (slot pool + a handful of windows) is far below it.
  EXPECT_LT(streaming.live_growth, std::int64_t{1} << 20)
      << "streaming collector retained per-message memory";
  EXPECT_LT(streaming.peak_growth, std::int64_t{2} << 20)
      << "streaming collector ballooned mid-run";

  // Retaining every span + 3 events (~200 B/span) shows up in the same
  // accounting: the counter provably sees per-span memory, so the bound
  // above is a real one.
  EXPECT_GT(retained.live_growth, std::int64_t{4} << 20);
  EXPECT_GT(retained.live_growth, 4 * std::max<std::int64_t>(streaming.live_growth, 1));
}

// --------------------------------------------------------------------------
// Steady state: once the slot pool and the window are faulted in, span
// lifecycles hold live heap memory flat (node churn in the open-span index
// is alloc/free balanced; slots and event capacity recycle).
// --------------------------------------------------------------------------

TEST(StreamObs, SteadyStateRetirementHoldsLiveMemoryFlat) {
  obs::NullSink sink;
  obs::SpanCollector sc;
  obs::StreamConfig cfg;
  cfg.window_ns = sim::Duration{1} << 30;  // everything lands in window 0
  sc.enableStreaming(cfg, &sink);

  auto spanAt = [&sc](sim::TimePoint t) {
    const std::uint64_t id = sc.begin(t, 0, 1, 4096, "steady");
    sc.phase(id, t + 1, obs::Phase::RecvPosted, 1);
    sc.end(id, t + 2, obs::Phase::Completed, 1);
  };
  for (sim::TimePoint t = 100; t < 164; ++t) spanAt(t);  // fault pool + exemplars in

  const std::int64_t before = static_cast<std::int64_t>(g_live);
  for (sim::TimePoint t = 1000; t < 11000; ++t) spanAt(t);
  const std::int64_t growth =
      static_cast<std::int64_t>(g_live) - before;

  EXPECT_LE(growth, 4096) << "steady-state retirement must not accumulate memory";
  EXPECT_EQ(sc.retired(), 64u + 10000u);
  EXPECT_EQ(sink.spans(), 64u + 10000u);
  EXPECT_EQ(sc.openCount(), 0u);
  EXPECT_EQ(sc.openHighWatermark(), 1u);
  ASSERT_EQ(sc.windows().size(), 1u) << "one kind x one size class x one window";

  sc.flushWindows();
  EXPECT_EQ(sink.windows(), 1u);
}

// --------------------------------------------------------------------------
// Fidelity-loss accounting: records that arrive after retirement are
// counted, never stored.
// --------------------------------------------------------------------------

TEST(StreamObs, LateRecordsAfterRetirementAreCountedNotStored) {
  obs::SpanCollector sc;
  sc.enableStreaming({}, nullptr);
  const std::uint64_t id = sc.begin(10, 0, 1, 64, "late");
  sc.end(id, 20, obs::Phase::Completed, 1);
  EXPECT_EQ(sc.retired(), 1u);

  sc.phase(id, 30, obs::Phase::RndvAts, 0);  // span is gone
  EXPECT_EQ(sc.droppedEvents(), 1u);
  sc.end(id, 40, obs::Phase::Errored, 0);  // second close
  EXPECT_EQ(sc.doubleCloses(), 1u);
  EXPECT_EQ(sc.terminalCount(obs::Phase::Completed), 1u);
  EXPECT_EQ(sc.terminalCount(obs::Phase::Errored), 0u);
}

}  // namespace
