#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/small_fn.hpp"
#include "sim/future.hpp"
#include "sim/ring_fifo.hpp"
#include "sim/rng.hpp"
#include "sim/task.hpp"

namespace {

using namespace cux;

TEST(Engine, StartsAtTimeZero) {
  sim::Engine e;
  EXPECT_EQ(e.now(), 0u);
  EXPECT_TRUE(e.empty());
}

TEST(Engine, ExecutesInTimeOrder) {
  sim::Engine e;
  std::vector<int> order;
  e.schedule(300, [&] { order.push_back(3); });
  e.schedule(100, [&] { order.push_back(1); });
  e.schedule(200, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 300u);
}

TEST(Engine, SimultaneousEventsFifo) {
  sim::Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) e.schedule(42, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, PastSchedulesClampToNow) {
  sim::Engine e;
  sim::TimePoint seen = 1;
  e.schedule(100, [&] {
    e.schedule(10, [&] { seen = e.now(); });  // in the past: clamps to 100
  });
  e.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Engine, AfterSchedulesRelative) {
  sim::Engine e;
  sim::TimePoint seen = 0;
  e.schedule(50, [&] { e.after(25, [&] { seen = e.now(); }); });
  e.run();
  EXPECT_EQ(seen, 75u);
}

TEST(Engine, StopInterruptsRun) {
  sim::Engine e;
  int count = 0;
  e.schedule(10, [&] {
    ++count;
    e.stop();
  });
  e.schedule(20, [&] { ++count; });
  e.run();
  EXPECT_EQ(count, 1);
  e.run();
  EXPECT_EQ(count, 2);
}

TEST(Engine, PendingStopIsHonoredByNextRunExactlyOnce) {
  // A stop() issued outside the run loop is a real request, not a no-op: the
  // next run call returns before processing anything, consuming the request;
  // the call after that proceeds normally.
  sim::Engine e;
  int ran = 0;
  e.schedule(10, [&] { ++ran; });
  e.stop();
  EXPECT_TRUE(e.stopRequested());
  e.run();
  EXPECT_EQ(ran, 0);
  EXPECT_FALSE(e.stopRequested());
  e.run();
  EXPECT_EQ(ran, 1);
}

TEST(Engine, PendingStopLeavesQueueAndClockUntouched) {
  sim::Engine e;
  int ran = 0;
  e.schedule(10, [&] { ++ran; });
  e.stop();
  e.run();  // consumes the request without processing anything
  EXPECT_EQ(ran, 0);
  EXPECT_EQ(e.now(), 0u);
  EXPECT_FALSE(e.empty());
  EXPECT_EQ(e.nextEventTime(), 10u);
  e.run();
  EXPECT_EQ(ran, 1);
}

TEST(Engine, PastClampedCountsSilentClamps) {
  sim::Engine e;
  EXPECT_EQ(e.pastClamped(), 0u);
  sim::TimePoint fired_at = 0;
  e.schedule(100, [&] {
    e.schedule(10, [&] { fired_at = e.now(); });  // in the past: clamped + counted
  });
  e.run();
  EXPECT_EQ(fired_at, 100u);
  EXPECT_EQ(e.pastClamped(), 1u);
}

TEST(Engine, ReentrantSchedulingFromCallback) {
  sim::Engine e;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) e.after(1, chain);
  };
  e.schedule(0, chain);
  e.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(e.now(), 99u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto trace = [] {
    sim::Engine e;
    sim::SplitMix64 rng(7);
    std::vector<sim::TimePoint> t;
    for (int i = 0; i < 200; ++i) {
      e.schedule(rng.below(1000), [&t, &e] { t.push_back(e.now()); });
    }
    e.run();
    return t;
  };
  EXPECT_EQ(trace(), trace());
}

TEST(Engine, ThrowingCallbackReleasesCapturesAndSlot) {
  // An exception leaves run() through the engine. The throwing callback's
  // captures are released while it unwinds, its slot is free again, and a
  // second run() fires the remaining events in order.
  sim::Engine e;
  auto held = std::make_shared<int>(7);
  std::vector<int> order;
  e.schedule(10, [&order] { order.push_back(1); });
  e.schedule(20, [held] {
    if (*held == 7) throw std::runtime_error("callback failed");
  });
  e.schedule(20, [&order] { order.push_back(2); });
  e.schedule(30, [&order] { order.push_back(3); });
  EXPECT_EQ(held.use_count(), 2);
  EXPECT_THROW(e.run(), std::runtime_error);
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(e.now(), 20u);
  EXPECT_EQ(e.eventsProcessed(), 2u);
  EXPECT_EQ(e.nextEventTime(), 20u);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.eventsProcessed(), 4u);
  // Every slot is back on the free list: an event scheduled and run now
  // still fires exactly once, in order behind an equal-time one.
  e.schedule(40, [&order] { order.push_back(4); });
  e.schedule(40, [&order] { order.push_back(5); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(held.use_count(), 1);
}

/// Drives an Engine and a reference model with the same generated
/// operations. The reference keeps pending events in a std::set ordered by
/// (clamped time, scheduling sequence); every event the engine fires must be
/// the reference's first, and the observers must agree after every
/// operation.
class EngineOrderCheck {
 public:
  explicit EngineOrderCheck(std::uint64_t seed) : rng_(seed) {}

  void runOps(int ops) {
    for (int op = 0; op < ops && !::testing::Test::HasFailure(); ++op) {
      const std::uint64_t r = rng_.below(100);
      if (r < 38) {
        scheduleOne(false);
      } else if (r < 53) {
        scheduleOne(true);
      } else if (r < 83) {
        const bool had_event = !pending_.empty();
        EXPECT_EQ(e_.step(), had_event);
      } else if (r < 90) {
        e_.stop();
        stopped_ = true;
      } else if (r < 99) {
        runOnce();
      } else {
        const auto burst = static_cast<int>(rng_.below(600));
        for (int i = 0; i < burst; ++i) scheduleOne(rng_.below(2) == 0);
      }
      expectAgreement();
    }
    // Drain, through any stop requests the remaining events make.
    while (!pending_.empty() && !::testing::Test::HasFailure()) {
      runOnce();
      expectAgreement();
    }
    EXPECT_TRUE(e_.empty());
  }

 private:
  struct Pending {
    sim::TimePoint time;
    std::uint64_t seq;
    int id;
    bool operator<(const Pending& o) const {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };
  static constexpr sim::Duration kDelays[] = {0, 1, 1, 7, 64, 64, 1000};

  sim::Duration drawDelay() { return kDelays[rng_.below(std::size(kDelays))]; }

  /// Equal timestamps, zero delays and past times that clamp, in about
  /// equal shares.
  sim::TimePoint drawTime() {
    switch (rng_.below(4)) {
      case 0:
        return now_;
      case 1:
        return now_ + drawDelay();
      case 2:
        return rng_.below(now_ + 1);  // at or before now
      default:
        return (now_ / 64 + rng_.below(4)) * 64;  // a coarse grid: many ties
    }
  }

  void scheduleOne(bool relative) {
    const int id = next_id_++;
    auto cb = [this, id] { fire(id); };
    sim::TimePoint t = 0;
    if (relative) {
      const sim::Duration d = drawDelay();
      t = now_ + d;
      e_.after(d, cb);
    } else {
      t = drawTime();
      e_.schedule(t, cb);
    }
    if (t < now_) {
      ++clamped_;
      t = now_;
    }
    pending_.insert(Pending{t, seq_++, id});
  }

  void runOnce() {
    in_run_ = true;
    e_.run();
    in_run_ = false;
    // run() returns on a drained queue or a stop request, and consumes the
    // request.
    EXPECT_TRUE(stopped_ || pending_.empty());
    stopped_ = false;
  }

  void fire(int id) {
    // run() must not fire an event once a stop is pending; step() ignores it.
    if (in_run_) {
      EXPECT_FALSE(stopped_);
    }
    ASSERT_FALSE(pending_.empty());
    const Pending next = *pending_.begin();
    pending_.erase(pending_.begin());
    ASSERT_EQ(id, next.id) << "fired out of (time, seq) order at t=" << next.time;
    now_ = next.time;
    ++processed_;
    EXPECT_EQ(e_.now(), now_);
    // Re-entrant work: children scheduled from inside the callback, or a
    // stop request.
    const std::uint64_t r = rng_.below(16);
    if (r < 4) {
      scheduleOne(r % 2 == 0);
    } else if (r == 4) {
      scheduleOne(false);
      scheduleOne(true);
    } else if (r == 5) {
      e_.stop();
      stopped_ = true;
    }
  }

  void expectAgreement() {
    EXPECT_EQ(e_.now(), now_);
    EXPECT_EQ(e_.empty(), pending_.empty());
    EXPECT_EQ(e_.nextEventTime(),
              pending_.empty() ? sim::Engine::kNoEvent : pending_.begin()->time);
    EXPECT_EQ(e_.eventsProcessed(), processed_);
    EXPECT_EQ(e_.eventsScheduled(), seq_);
    EXPECT_EQ(e_.pastClamped(), clamped_);
    EXPECT_EQ(e_.stopRequested(), stopped_);
  }

  sim::Engine e_;
  sim::SplitMix64 rng_;
  std::set<Pending> pending_;
  sim::TimePoint now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t clamped_ = 0;
  bool stopped_ = false;
  bool in_run_ = false;
  int next_id_ = 0;
};

TEST(Engine, MatchesReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE(seed);
    EngineOrderCheck check(seed);
    check.runOps(3000);
    if (HasFailure()) break;
  }
}

TEST(SmallFn, InlineAndHeapPathsBothInvoke) {
  struct Big {
    char pad[sim::SmallFn::kInlineCapacity + 8];
  };
  static_assert(sim::SmallFn::fitsInline<int*>());
  static_assert(!sim::SmallFn::fitsInline<Big[2]>());
  int small_hits = 0, big_hits = 0;
  sim::SmallFn small([&small_hits] { ++small_hits; });
  Big big{};
  big.pad[0] = 1;
  sim::SmallFn large([&big_hits, big] { big_hits += big.pad[0]; });
  small();
  small();
  large();
  EXPECT_EQ(small_hits, 2);
  EXPECT_EQ(big_hits, 1);
}

TEST(SmallFn, MoveTransfersOwnershipAndDestroys) {
  auto tracker = std::make_shared<int>(7);
  std::weak_ptr<int> alive = tracker;
  {
    sim::SmallFn a([tracker] {});
    tracker.reset();
    EXPECT_FALSE(alive.expired());
    sim::SmallFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_FALSE(alive.expired());
    b.reset();
    EXPECT_TRUE(alive.expired());
  }
}

TEST(SmallFn, HotUcxCaptureShapesStayInline) {
  // The completion now lives in the request, so a completion event captures
  // just the request pointer, and the arrival shape (pointer + 88-byte
  // message: tag, len, src_ptr, payload, send request, payload owner, src_pe
  // and flags) leaves room in the 144-byte engine slot. The completions
  // themselves are move-only InlineFns sized for their captures: a
  // model-layer continuation (request state + status) in 56 bytes, and the
  // machine layer's completion around it in 104. If this fires after growing
  // a capture, either shrink it or bump the capacity.
  struct CompletionEvent {
    std::shared_ptr<int> req;
  };
  static_assert(sim::SmallFn::fitsInline<CompletionEvent>());
  struct Arrival {
    void* worker;
    std::uint64_t scalars[3];  // tag, len, src_ptr
    std::vector<std::byte> payload;
    std::shared_ptr<int> req;
    std::shared_ptr<std::vector<std::byte>> owner;
    int src_pe;
    bool flags[3];
  };
  static_assert(sim::SmallFn::fitsInline<Arrival>());
  using Done = sim::InlineFn<void(), 56>;
  struct ModelCompletion {
    std::shared_ptr<int> impl;
    std::uint64_t status[2];
  };
  static_assert(Done::fitsInline<ModelCompletion>());
  struct MachineCompletion {
    void* self;
    int src_pe, dst_pe;
    const void* ptr;
    std::uint64_t size, tag;
    Done cb;
  };
  static_assert(sim::InlineFn<void(int&), 104>::fitsInline<MachineCompletion>());
}

TEST(SmallFn, SignaturesReturnValuesAndEmptyTargets) {
  sim::InlineFn<int(int, const std::string&), 56> f = [base = 10](int x, const std::string& s) {
    return base + x + static_cast<int>(s.size());
  };
  EXPECT_EQ(f(1, "abc"), 14);
  // Wrapping an empty std::function or null pointer yields an empty InlineFn.
  sim::InlineFn<void(), 56> from_empty = std::function<void()>{};
  EXPECT_FALSE(static_cast<bool>(from_empty));
  from_empty();  // calling an empty void InlineFn is a no-op
  void (*null_fn)() = nullptr;
  EXPECT_FALSE(static_cast<bool>(sim::InlineFn<void(), 56>(null_fn)));
  // Mutable callables keep their state across calls.
  sim::InlineFn<int(), 56> counter = [n = 0]() mutable { return ++n; };
  counter();
  EXPECT_EQ(counter(), 2);
}

TEST(RingFifo, MatchesDequeAcrossWrapAndGrowth) {
  // Move-only items through a seeded push/pop run, so the ring wraps and
  // grows while wrapped; a std::deque is the reference.
  sim::SplitMix64 rng(7);
  sim::RingFifo<std::unique_ptr<int>> fifo;
  std::deque<int> model;
  int next = 0;
  for (int step = 0; step < 2000; ++step) {
    if (model.empty() || rng.below(5) < 3) {
      fifo.push_back(std::make_unique<int>(next));
      model.push_back(next++);
    } else {
      ASSERT_EQ(*fifo.front(), model.front());
      fifo.pop_front();
      model.pop_front();
    }
    ASSERT_EQ(fifo.size(), model.size());
  }
  for (std::size_t i = 0; i < model.size(); ++i) ASSERT_EQ(*fifo[i], model[i]);
  fifo.clear();
  EXPECT_TRUE(fifo.empty());
}

TEST(Time, UnitConversionsRoundTrip) {
  EXPECT_EQ(sim::usec(1.0), 1000u);
  EXPECT_EQ(sim::msec(1.0), 1000000u);
  EXPECT_DOUBLE_EQ(sim::toUs(sim::usec(12.5)), 12.5);
  EXPECT_EQ(sim::usec(0.0), 0u);
  EXPECT_EQ(sim::usec(-5.0), 0u);
}

TEST(Time, TransferTimeMatchesBandwidth) {
  // 1 GB at 1 GB/s = 1 second = 1e9 ns.
  EXPECT_EQ(sim::transferTime(1'000'000'000, 1.0), 1'000'000'000u);
  // 4 MB at 50 GB/s = 80 us.
  EXPECT_NEAR(sim::toUs(sim::transferTime(4u << 20, 50.0)), 83.89, 0.1);
  EXPECT_EQ(sim::transferTime(0, 50.0), 0u);
}

TEST(Future, CallbackFiresOnSet) {
  sim::Promise<int> p;
  int seen = 0;
  p.future().onReady([&](const int& v) { seen = v; });
  EXPECT_FALSE(p.ready());
  p.set(42);
  EXPECT_EQ(seen, 42);
  EXPECT_TRUE(p.ready());
}

TEST(Future, CallbackAfterReadyFiresImmediately) {
  sim::Promise<void> p;
  p.set();
  bool seen = false;
  p.future().onReady([&] { seen = true; });
  EXPECT_TRUE(seen);
}

TEST(Future, SecondSetThrowsInEveryBuild) {
  sim::Promise<int> p;
  p.set(1);
  EXPECT_THROW(p.set(2), std::logic_error);
  EXPECT_EQ(p.future().get(), 1);  // the first value stands
  sim::Promise<void> v;
  v.set();
  EXPECT_THROW(v.set(), std::logic_error);
}

TEST(Future, GetBeforeReadyThrowsInEveryBuild) {
  sim::Promise<int> p;
  EXPECT_THROW((void)p.future().get(), std::logic_error);
  p.set(3);
  EXPECT_EQ(p.future().get(), 3);
}

sim::SimTask recordResume(sim::Future<void> f, std::vector<int>& order, int id) {
  co_await f;
  order.push_back(id);
}

TEST(Future, FulfilRunsCallbacksInOrderThenWaiters) {
  // The first callback and the first waiter live inline, later ones spill;
  // fulfil keeps registration order for callbacks, then suspension order for
  // waiters, across that boundary.
  sim::Promise<void> p;
  std::vector<int> order;
  (void)recordResume(p.future(), order, 100);
  for (int i = 0; i < 4; ++i) p.future().onReady([&order, i] { order.push_back(i); });
  (void)recordResume(p.future(), order, 101);
  p.set();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 100, 101}));
  p.future().onReady([&order] { order.push_back(4); });  // already ready: runs now
  EXPECT_EQ(order.back(), 4);
}

TEST(Future, AllOfWaitsForEveryInput) {
  std::vector<sim::Promise<void>> ps(5);
  std::vector<sim::Future<void>> fs;
  for (auto& p : ps) fs.push_back(p.future());
  auto all = sim::allOf(fs);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_FALSE(all.ready());
    ps[i].set();
  }
  EXPECT_TRUE(all.ready());
}

TEST(Future, AllOfEmptyIsImmediatelyReady) {
  EXPECT_TRUE(sim::allOf({}).ready());
}

sim::SimTask sleepTask(sim::Engine& e, sim::TimePoint& woke) {
  co_await sim::delay(e, sim::usec(5));
  woke = e.now();
}

TEST(Coroutine, DelayResumesAtRightTime) {
  sim::Engine e;
  sim::TimePoint woke = 0;
  (void)sleepTask(e, woke);
  e.run();
  EXPECT_EQ(woke, sim::usec(5));
}

sim::SimTask awaitFutureTask(sim::Future<int> f, int& out) {
  out = co_await f;
}

TEST(Coroutine, AwaitFutureSuspendsUntilSet) {
  sim::Engine e;
  sim::Promise<int> p;
  int out = 0;
  (void)awaitFutureTask(p.future(), out);
  EXPECT_EQ(out, 0);
  e.schedule(100, [&] { p.set(7); });
  e.run();
  EXPECT_EQ(out, 7);
}

sim::FutureTask chainTask(sim::Engine& e) {
  co_await sim::delay(e, 10);
  co_await sim::delay(e, 10);
}

TEST(Coroutine, FutureTaskCompletionObservable) {
  sim::Engine e;
  auto t = chainTask(e);
  EXPECT_FALSE(t.future().ready());
  e.run();
  EXPECT_TRUE(t.future().ready());
  EXPECT_EQ(e.now(), 20u);
}

sim::FutureTask nestedInner(sim::Engine& e) { co_await sim::delay(e, 30); }
sim::FutureTask nestedOuter(sim::Engine& e, sim::TimePoint& done) {
  co_await nestedInner(e);
  done = e.now();
}

TEST(Coroutine, TasksCompose) {
  sim::Engine e;
  sim::TimePoint done = 0;
  auto t = nestedOuter(e, done);
  e.run();
  EXPECT_EQ(done, 30u);
  EXPECT_TRUE(t.future().ready());
}

TEST(Rng, DeterministicStream) {
  sim::SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BetweenStaysInRange) {
  sim::SplitMix64 r(99);
  for (int i = 0; i < 1000; ++i) {
    auto v = r.between(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, FillIsReproducible) {
  sim::SplitMix64 a(5), b(5);
  std::vector<unsigned char> x(37), y(37);
  a.fill(x.data(), x.size());
  b.fill(y.data(), y.size());
  EXPECT_EQ(x, y);
}

}  // namespace
