#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <vector>

#include "ampi/ampi.hpp"
#include "model/model.hpp"
#include "sim/matcher.hpp"
#include "sim/rng.hpp"
#include "ucx/context.hpp"
#include "ucx/worker.hpp"

/// Tag-matching engine semantics and complexity guarantees.
///
/// The bucketed matcher must be observationally identical to a plain scan
/// of a posted deque and an unexpected deque: same receive outcomes for any
/// interleaving of posts and arrivals — including wildcard masks racing
/// exact receives. The seeded
/// property test here replays randomized interleavings through the real
/// worker and through such a model (ModelMatcher below) and compares the
/// logs. Complexity is pinned with the matchStats().scan_steps counter (an
/// exact receive must not scan unrelated entries) and with a global
/// allocation counter (steady-state eager traffic must not touch the heap).

// --------------------------------------------------------------------------
// Global allocation counter: every operator new in this binary ticks it. The
// zero-allocation tests sample the counter around steady-state traffic
// regions; everything else ignores it. The replacements are kept out of line
// (as in test_osu.cpp): inlined into this file's own new-expressions, GCC
// would flag the malloc/free pairing as mismatched.
// --------------------------------------------------------------------------

static std::uint64_t g_heap_allocs = 0;

[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace cux;

struct Harness {
  explicit Harness(int nodes = 1) : m(model::summit(nodes)) {
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
};

// --------------------------------------------------------------------------
// Seeded randomized cross-check: real matcher vs a two-deque scan model
// --------------------------------------------------------------------------

constexpr std::int64_t kPending = -1;

/// Reference semantics: receives scan the unexpected deque in arrival order,
/// arrivals scan the posted deque in post order. Every send issued before a
/// drain arrives during that drain, in send order.
class ModelMatcher {
 public:
  void post(ucx::Tag tag, ucx::Tag mask) {
    const std::size_t id = outcome_.size();
    outcome_.push_back(kPending);
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (matches(*it, tag, mask)) {
        outcome_[id] = static_cast<std::int64_t>(*it);
        unexpected_.erase(it);
        return;
      }
    }
    posted_.push_back({id, tag, mask});
  }
  void send(ucx::Tag tag) { in_flight_.push_back(tag); }
  void drain() {
    for (const ucx::Tag t : in_flight_) arrive(t);
    in_flight_.clear();
  }
  [[nodiscard]] const std::vector<std::int64_t>& outcomes() const { return outcome_; }
  [[nodiscard]] std::size_t postedCount() const { return posted_.size(); }
  [[nodiscard]] std::size_t unexpectedCount() const { return unexpected_.size(); }

 private:
  struct Posted {
    std::size_t id;
    ucx::Tag tag;
    ucx::Tag mask;
  };
  static bool matches(ucx::Tag msg, ucx::Tag tag, ucx::Tag mask) {
    return (msg & mask) == (tag & mask);
  }
  void arrive(ucx::Tag t) {
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (matches(t, it->tag, it->mask)) {
        outcome_[it->id] = static_cast<std::int64_t>(t);
        posted_.erase(it);
        return;
      }
    }
    unexpected_.push_back(t);
  }

  std::deque<Posted> posted_;
  std::deque<ucx::Tag> unexpected_;
  std::vector<ucx::Tag> in_flight_;
  std::vector<std::int64_t> outcome_;  ///< per receive: matched tag or kPending
};

/// Observable state of one replay; the real and model logs must agree.
struct MatchLog {
  std::vector<std::int64_t> recv;  ///< per receive in post order
  std::size_t posted = 0;
  std::size_t unexpected = 0;
};

struct Op {
  enum Kind { Post, Send, Drain } kind;
  ucx::Tag tag = 0;
  ucx::Tag mask = 0;
};

/// One seeded interleaving of post/send/drain ops.
std::vector<Op> generateOps(std::uint64_t seed) {
  constexpr int kOps = 400;
  sim::SplitMix64 rng(seed);
  auto randomTag = [&rng] { return static_cast<ucx::Tag>(rng.below(12)); };
  std::vector<Op> ops;
  for (int op = 0; op < kOps; ++op) {
    switch (rng.below(7)) {
      case 0:
      case 1:
      case 2: {  // post a receive: exact, class-wildcard, or match-any
        const ucx::Tag tag = randomTag();
        const std::uint32_t kind = rng.below(8);
        const ucx::Tag mask = kind < 5 ? ucx::kFullMask : (kind < 7 ? ucx::Tag{0x3} : ucx::Tag{0});
        ops.push_back({Op::Post, tag, mask});
        break;
      }
      case 3:
      case 4:
      case 5:  // send a message into the worker
        ops.push_back({Op::Send, randomTag()});
        break;
      default:  // let in-flight traffic land (arrivals + completions)
        ops.push_back({Op::Drain});
        break;
    }
  }
  ops.push_back({Op::Drain});
  return ops;
}

MatchLog replayReal(const std::vector<Op>& ops) {
  Harness h;
  ucx::Worker& w = h.ctx->worker(1);
  constexpr std::uint64_t kLen = 64;
  MatchLog log;
  std::deque<std::vector<std::byte>> bufs;  // stable buffers
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::Post: {
        bufs.emplace_back(kLen);
        const std::size_t id = log.recv.size();
        log.recv.push_back(kPending);
        w.tagRecv(hw::MemRef::host(bufs.back().data()), kLen, op.tag, op.mask,
                  [&log, id](ucx::Request& r) {
                    log.recv[id] = static_cast<std::int64_t>(r.matched_tag);
                  });
        break;
      }
      case Op::Send:
        bufs.emplace_back(kLen);
        h.ctx->tagSend(0, 1, hw::MemRef::host(bufs.back().data()), kLen, op.tag, {});
        break;
      case Op::Drain:
        h.sys->engine.run();
        break;
    }
  }
  log.posted = w.matchStats().posted;
  log.unexpected = w.matchStats().unexpected;
  return log;
}

MatchLog replayModel(const std::vector<Op>& ops) {
  ModelMatcher model;
  MatchLog log;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::Post: model.post(op.tag, op.mask); break;
      case Op::Send: model.send(op.tag); break;
      case Op::Drain: model.drain(); break;
    }
  }
  log.recv = model.outcomes();
  log.posted = model.postedCount();
  log.unexpected = model.unexpectedCount();
  return log;
}

TEST(MatcherCrossCheck, RandomInterleavingsMatchReferenceMatcher) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const std::vector<Op> ops = generateOps(seed);
    const MatchLog real = replayReal(ops);
    const MatchLog model = replayModel(ops);
    ASSERT_EQ(real.recv.size(), model.recv.size()) << "seed " << seed;
    for (std::size_t i = 0; i < real.recv.size(); ++i) {
      ASSERT_EQ(real.recv[i], model.recv[i]) << "seed " << seed << ", receive " << i;
    }
    EXPECT_EQ(real.posted, model.posted) << "seed " << seed;
    EXPECT_EQ(real.unexpected, model.unexpected) << "seed " << seed;
    // Each seed should actually exercise the matcher.
    EXPECT_GT(real.recv.size(), 50u) << "seed " << seed;
  }
}

// --------------------------------------------------------------------------
// AMPI's key scheme through the shared matcher: (src, tag) receives
// with kAnySource/kAnyTag, against a two-deque scan model
// --------------------------------------------------------------------------

/// A message as AMPI's matcher sees it; `id` is its arrival index.
struct AmpiArrived {
  int src, tag;
  std::size_t id;
  [[nodiscard]] std::uint64_t matchKey() const { return ampi::detail::matchKey(src, tag); }
};

/// A receive pattern with AMPI's key and predicate; `id` is its post index.
struct AmpiPosted {
  int src, tag;
  std::size_t id;
  [[nodiscard]] bool exact() const { return ampi::detail::concrete(src, tag); }
  [[nodiscard]] std::uint64_t matchKey() const { return ampi::detail::matchKey(src, tag); }
  [[nodiscard]] bool matches(const AmpiArrived& a) const {
    return ampi::detail::accepts(src, tag, a.src, a.tag);
  }
};

/// Reference semantics for AMPI matching: one post-ordered deque, one
/// arrival-ordered deque, plain scans, the MPI wildcard rules written out.
class AmpiModel {
 public:
  void post(const AmpiPosted& p) {
    outcome_.push_back(kPending);
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (accepts(p, *it)) {
        outcome_[p.id] = static_cast<std::int64_t>(it->id);
        unexpected_.erase(it);
        return;
      }
    }
    posted_.push_back(p);
  }
  void arrive(const AmpiArrived& a) {
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (accepts(*it, a)) {
        outcome_[it->id] = static_cast<std::int64_t>(a.id);
        posted_.erase(it);
        return;
      }
    }
    unexpected_.push_back(a);
  }
  [[nodiscard]] const std::vector<std::int64_t>& outcomes() const { return outcome_; }
  [[nodiscard]] std::size_t postedCount() const { return posted_.size(); }
  [[nodiscard]] std::size_t unexpectedCount() const { return unexpected_.size(); }

 private:
  static bool accepts(const AmpiPosted& p, const AmpiArrived& a) {
    return (p.src == ampi::kAnySource || p.src == a.src) &&
           (p.tag == ampi::kAnyTag || p.tag == a.tag);
  }
  std::deque<AmpiPosted> posted_;
  std::deque<AmpiArrived> unexpected_;
  std::vector<std::int64_t> outcome_;
};

TEST(MatcherCrossCheck, AmpiKeySchemeMatchesReferenceMatcher) {
  // Tag 1 << 24 folds onto the source field of the bucket key, so
  // (src 0, tag 1 << 24) and (src 1, tag 0) share a key: collisions must
  // cost chain steps only, never a wrong match.
  constexpr int kTags[] = {0, 1, 2, 3, 1 << 24, (1 << 24) | 1};
  constexpr int kOps = 400;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    sim::SplitMix64 rng(seed);
    auto pattern = [&rng, &kTags](bool wildcards) {
      const int src = wildcards && rng.below(4) == 0 ? ampi::kAnySource
                                                     : static_cast<int>(rng.below(4));
      const int tag = wildcards && rng.below(4) == 0 ? ampi::kAnyTag : kTags[rng.below(6)];
      return AmpiPosted{src, tag, 0};
    };
    sim::TagMatcher<AmpiPosted, AmpiArrived> real;
    AmpiModel model;
    std::vector<std::int64_t> outcome;
    std::size_t arrivals = 0;
    for (int op = 0; op < kOps; ++op) {
      switch (rng.below(6)) {
        case 0:
        case 1:
        case 2: {  // post a receive
          AmpiPosted p = pattern(true);
          p.id = outcome.size();
          outcome.push_back(kPending);
          model.post(p);
          if (std::optional<AmpiArrived> a = real.takeUnexpected(p)) {
            outcome[p.id] = static_cast<std::int64_t>(a->id);
          } else {
            real.post(p);
          }
          break;
        }
        default: {  // a message arrives
          const AmpiPosted m = pattern(false);
          const AmpiArrived a{m.src, m.tag, arrivals++};
          model.arrive(a);
          if (std::optional<AmpiPosted> p = real.takePosted(a)) {
            outcome[p->id] = static_cast<std::int64_t>(a.id);
          } else {
            real.pushUnexpected(a);
          }
          break;
        }
      }
    }
    ASSERT_EQ(outcome.size(), model.outcomes().size()) << "seed " << seed;
    for (std::size_t i = 0; i < outcome.size(); ++i) {
      ASSERT_EQ(outcome[i], model.outcomes()[i]) << "seed " << seed << ", receive " << i;
    }
    const sim::MatchStats s = real.stats();
    EXPECT_EQ(s.posted, model.postedCount()) << "seed " << seed;
    EXPECT_EQ(s.unexpected, model.unexpectedCount()) << "seed " << seed;
    // Each seed should actually exercise the matcher.
    EXPECT_GT(outcome.size(), 100u) << "seed " << seed;
  }
}

TEST(MatcherComplexity, ExactReceiveDoesNotScanUnexpectedQueue) {
  Harness h;
  ucx::Worker& w = h.ctx->worker(1);
  constexpr int kMsgs = 4096;
  std::vector<std::byte> src(64);
  for (int i = 0; i < kMsgs; ++i) {
    h.ctx->tagSend(0, 1, hw::MemRef::host(src.data()), 64, static_cast<ucx::Tag>(i), {});
  }
  h.sys->engine.run();
  ASSERT_EQ(w.matchStats().unexpected, static_cast<std::size_t>(kMsgs));

  const std::uint64_t steps_before = w.matchStats().scan_steps;
  std::vector<std::byte> dst(64);
  auto req = w.tagRecv(hw::MemRef::host(dst.data()), 64, static_cast<ucx::Tag>(kMsgs - 1),
                       ucx::kFullMask, {});
  // O(1) expected: the searched chain holds exactly one message.
  EXPECT_LE(w.matchStats().scan_steps - steps_before, 4u);
  EXPECT_EQ(w.matchStats().unexpected, static_cast<std::size_t>(kMsgs - 1));
  h.sys->engine.run();
  EXPECT_TRUE(req->done());
  EXPECT_EQ(req->matched_tag, static_cast<ucx::Tag>(kMsgs - 1));
}

TEST(MatcherComplexity, WildcardReceiveMissScansEveryUnexpectedMessage) {
  // Validates the counter itself: a wildcard receive that matches nothing
  // must walk the whole arrival-order list, and scan_steps must see it.
  Harness h;
  ucx::Worker& w = h.ctx->worker(1);
  constexpr int kMsgs = 4096;
  std::vector<std::byte> src(64);
  for (int i = 0; i < kMsgs; ++i) {
    h.ctx->tagSend(0, 1, hw::MemRef::host(src.data()), 64, static_cast<ucx::Tag>(i), {});
  }
  h.sys->engine.run();
  ASSERT_EQ(w.matchStats().unexpected, static_cast<std::size_t>(kMsgs));

  const std::uint64_t steps_before = w.matchStats().scan_steps;
  // Tags 0..4095 all have bits 12-15 clear, so no message matches.
  std::vector<std::byte> dst(64);
  auto req = w.tagRecv(hw::MemRef::host(dst.data()), 64, ucx::Tag{0x1000}, ucx::Tag{0xF000}, {});
  EXPECT_GE(w.matchStats().scan_steps - steps_before, static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(w.matchStats().posted, 1u);
  EXPECT_EQ(req->state, ucx::ReqState::Pending);
}

// --------------------------------------------------------------------------
// Zero per-message heap allocations on the steady-state eager path
// --------------------------------------------------------------------------

TEST(MatcherAllocations, SteadyStateEagerPathIsAllocationFree) {
  Harness h;
  ucx::Worker& w = h.ctx->worker(1);
  constexpr int kTags = 64;
  constexpr std::uint64_t kLen = 256;
  std::vector<std::byte> src(kLen), dst(kLen);
  std::vector<ucx::RequestPtr> reqs;
  reqs.reserve(kTags * 2);

  // One traffic round: posted-first for even tags, unexpected-first for odd
  // tags, fully drained — both matcher sides and both pool paths get hot.
  auto round = [&] {
    reqs.clear();
    for (int i = 0; i < kTags; i += 2) {
      reqs.push_back(w.tagRecv(hw::MemRef::host(dst.data()), kLen, static_cast<ucx::Tag>(i),
                               ucx::kFullMask, {}));
      h.ctx->tagSend(0, 1, hw::MemRef::host(src.data()), kLen, static_cast<ucx::Tag>(i), {});
    }
    for (int i = 1; i < kTags; i += 2) {
      h.ctx->tagSend(0, 1, hw::MemRef::host(src.data()), kLen, static_cast<ucx::Tag>(i), {});
    }
    h.sys->engine.run();
    for (int i = 1; i < kTags; i += 2) {
      reqs.push_back(w.tagRecv(hw::MemRef::host(dst.data()), kLen, static_cast<ucx::Tag>(i),
                               ucx::kFullMask, {}));
    }
    h.sys->engine.run();
  };

  // Warm every pool and slab: the per-thread request and future slabs,
  // payload buffer pool, bucket tables, engine event storage.
  for (int i = 0; i < 4; ++i) round();

  const std::uint64_t pool_misses_before =
      h.ctx->requestPoolMisses() + h.ctx->bufferPoolMisses();
  const std::uint64_t allocs_before = g_heap_allocs;
  for (int i = 0; i < 16; ++i) round();
  const std::uint64_t allocs = g_heap_allocs - allocs_before;
  const std::uint64_t pool_misses =
      h.ctx->requestPoolMisses() + h.ctx->bufferPoolMisses() - pool_misses_before;

  EXPECT_EQ(allocs, 0u) << "steady-state eager traffic performed " << allocs
                        << " heap allocations (16 rounds x " << kTags << " messages)";
  EXPECT_EQ(pool_misses, 0u);
  EXPECT_GT(h.ctx->requestPoolHits(), 0u);
  EXPECT_GT(h.ctx->bufferPoolHits(), 0u);
}

// --------------------------------------------------------------------------
// Requests come from the per-thread slab pool, shared across machines
// --------------------------------------------------------------------------

/// One eager exchange between PE 0 and PE 1: `n` receives posted, `n` sends,
/// drained. Every request is held in `reqs`, so the exchange keeps 2n
/// requests live at once on whichever machine runs it.
void heldEagerExchange(Harness& h, int n, std::vector<ucx::RequestPtr>& reqs) {
  std::vector<std::byte> src(256), dst(256);
  ucx::Worker& w = h.ctx->worker(1);
  for (int i = 0; i < n; ++i) {
    const auto tag = static_cast<ucx::Tag>(i);
    reqs.push_back(w.tagRecv(hw::MemRef::host(dst.data()), dst.size(), tag, ucx::kFullMask, {}));
    reqs.push_back(h.ctx->tagSend(0, 1, hw::MemRef::host(src.data()), src.size(), tag, {}));
  }
  h.sys->engine.run();
  for (const ucx::RequestPtr& r : reqs) EXPECT_TRUE(r->done());
}

TEST(RequestPool, SecondMachineReusesTheFirstMachinesBlocks) {
  constexpr int kMessages = 32;
  std::vector<ucx::RequestPtr> reqs;
  reqs.reserve(2 * kMessages);
  {
    Harness first;
    heldEagerExchange(first, kMessages, reqs);
    reqs.clear();
  }

  Harness second;
  // The blocks the first machine released serve the second one: making as
  // many requests as the exchange holds touches no heap.
  const std::uint64_t allocs_before = g_heap_allocs;
  for (int i = 0; i < 2 * kMessages; ++i) reqs.push_back(second.ctx->makeRequest());
  EXPECT_EQ(g_heap_allocs - allocs_before, 0u);
  reqs.clear();

  heldEagerExchange(second, kMessages, reqs);
  second.sys->obs.refresh();
  EXPECT_EQ(second.sys->obs.registry.gaugeValue("ucx.req_pool.misses"), 0u);
  EXPECT_EQ(second.sys->obs.registry.gaugeValue("ucx.req_pool.hits"), 4u * kMessages);
}

TEST(RequestPool, RequestOutlivesItsSystem) {
  std::vector<ucx::RequestPtr> reqs;
  {
    Harness h;
    heldEagerExchange(h, 4, reqs);
  }
  // The Context and the System are gone; the requests' storage belongs to
  // the thread's pool, so reading and dropping them is safe.
  for (const ucx::RequestPtr& r : reqs) EXPECT_TRUE(r->done());
  reqs.clear();
}

// --------------------------------------------------------------------------
// Match statistics surface (gpucomm_sweep --metric match)
// --------------------------------------------------------------------------

TEST(MatcherStats, OccupancyAndWatermarksAreReported) {
  Harness h;
  ucx::Worker& w = h.ctx->worker(1);
  std::vector<std::byte> buf(64), src(64);
  for (int i = 0; i < 100; ++i) {
    w.tagRecv(hw::MemRef::host(buf.data()), 64, static_cast<ucx::Tag>(i), ucx::kFullMask, {});
  }
  for (int i = 0; i < 40; ++i) {
    h.ctx->tagSend(0, 1, hw::MemRef::host(src.data()), 64, static_cast<ucx::Tag>(1000 + i), {});
  }
  h.sys->engine.run();

  const auto ws = w.matchStats();
  EXPECT_EQ(ws.posted, 100u);
  EXPECT_EQ(ws.unexpected, 40u);
  EXPECT_GE(ws.posted_hwm, 100u);
  EXPECT_GE(ws.unexpected_hwm, 40u);
  EXPECT_GT(ws.posted_buckets, 0u);
  EXPECT_GT(ws.unexpected_buckets, 0u);
  EXPECT_GE(ws.posted_max_chain, 1u);

  const auto cs = h.ctx->matchStats();
  EXPECT_GE(cs.posted, ws.posted);
  EXPECT_GE(cs.unexpected, ws.unexpected);
}

// --------------------------------------------------------------------------
// Resequencer: per-source send order restored over sparse source ids
// --------------------------------------------------------------------------

/// A move-only item, so the resequencer's stash must move, never copy.
struct SeqItem {
  std::size_t src = 0;
  std::uint32_t seq = 0;
  std::unique_ptr<int> payload;
};
using Delivered = std::vector<std::pair<std::size_t, std::uint32_t>>;

SeqItem seqItem(std::size_t src, std::uint32_t seq) {
  return SeqItem{src, seq, std::make_unique<int>(static_cast<int>(seq))};
}

struct ReseqHarness {
  sim::Resequencer<SeqItem> reseq;
  Delivered out;
  void push(std::size_t src, std::uint32_t seq) {
    reseq.push(src, seq, seqItem(src, seq), [this](SeqItem&& it) {
      ASSERT_NE(it.payload, nullptr);
      EXPECT_EQ(*it.payload, static_cast<int>(it.seq));
      out.emplace_back(it.src, it.seq);
    });
  }
};

TEST(Resequencer, InOrderItemsDeliverImmediately) {
  ReseqHarness h;
  for (std::uint32_t s = 0; s < 5; ++s) {
    h.push(3, s);
    EXPECT_EQ(h.out.size(), s + 1u);
  }
  EXPECT_EQ(h.out, (Delivered{{3, 0}, {3, 1}, {3, 2}, {3, 3}, {3, 4}}));
  EXPECT_TRUE(h.reseq.takeStashed().empty());
}

TEST(Resequencer, InterleavedSourcesKeepIndependentOrder) {
  // Source 9's early item waits for its own gap only; source 2 is untouched.
  ReseqHarness h;
  h.push(2, 0);
  h.push(9, 1);
  h.push(2, 1);
  h.push(9, 0);
  h.push(2, 2);
  EXPECT_EQ(h.out, (Delivered{{2, 0}, {2, 1}, {9, 0}, {9, 1}, {2, 2}}));
}

TEST(Resequencer, LateGapDrainsTheStash) {
  // Items 1..4 overtake item 0; its arrival delivers all five in order.
  ReseqHarness h;
  for (std::uint32_t s : {3u, 1u, 4u, 2u}) h.push(5, s);
  EXPECT_TRUE(h.out.empty());
  h.push(5, 0);
  EXPECT_EQ(h.out, (Delivered{{5, 0}, {5, 1}, {5, 2}, {5, 3}, {5, 4}}));
  EXPECT_TRUE(h.reseq.takeStashed().empty());
}

TEST(Resequencer, TakeStashedReturnsStashOrder) {
  ReseqHarness h;
  h.push(1, 2);
  h.push(4, 1);
  h.push(1, 0);  // delivers 1:0 only; 1:2 still waits for 1:1
  h.push(1, 3);
  const std::vector<SeqItem> left = h.reseq.takeStashed();
  Delivered got;
  for (const SeqItem& it : left) got.emplace_back(it.src, it.seq);
  EXPECT_EQ(got, (Delivered{{1, 2}, {4, 1}, {1, 3}}));
  EXPECT_EQ(h.out, (Delivered{{1, 0}}));
  EXPECT_TRUE(h.reseq.takeStashed().empty());
}

TEST(Resequencer, SparseSourceIdsNeedNoDenseTable) {
  // Source ids far beyond any table a dense per-source array would size.
  ReseqHarness h;
  constexpr std::size_t kFar = std::size_t{1} << 20;
  constexpr std::size_t kFarther = std::size_t{1} << 40;
  h.push(kFar, 1);
  h.push(kFarther, 0);
  h.push(kFar, 0);
  h.push(7, 0);
  EXPECT_EQ(h.out, (Delivered{{kFarther, 0}, {kFar, 0}, {kFar, 1}, {7, 0}}));
}

TEST(PeerSeq, CountersStartAtZeroAndStayPerPeer) {
  sim::PeerSeq seq;
  EXPECT_EQ(seq[std::size_t{1} << 20]++, 0u);
  EXPECT_EQ(seq[4]++, 0u);
  EXPECT_EQ(seq[std::size_t{1} << 20]++, 1u);
  EXPECT_EQ(seq[0]++, 0u);  // inserted in front of both
  EXPECT_EQ(seq[4], 1u);
  EXPECT_EQ(seq[std::size_t{1} << 20], 2u);
}

/// Reference: a per-source std::map stash, drained whenever the expected
/// item is present; the global stash order is kept as a plain list.
class ReseqModel {
 public:
  void push(std::size_t src, std::uint32_t seq, Delivered& out) {
    std::uint32_t& expected = expected_[src];
    if (seq != expected) {
      pending_[src].insert(seq);
      stash_order_.emplace_back(src, seq);
      return;
    }
    out.emplace_back(src, seq);
    ++expected;
    auto& mine = pending_[src];
    for (auto it = mine.find(expected); it != mine.end(); it = mine.find(expected)) {
      mine.erase(it);
      stash_order_.erase(std::find(stash_order_.begin(), stash_order_.end(),
                                   std::make_pair(src, expected)));
      out.emplace_back(src, expected);
      ++expected;
    }
  }
  [[nodiscard]] const Delivered& stashOrder() const { return stash_order_; }

 private:
  std::map<std::size_t, std::uint32_t> expected_;
  std::map<std::size_t, std::set<std::uint32_t>> pending_;
  Delivered stash_order_;
};

TEST(ResequencerCrossCheck, SeededArrivalsMatchPerSourceMapModel) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    sim::SplitMix64 rng(seed);
    // A few sources with sparse ids, each sending 1..40 items, merged at
    // random; about one item in twenty never arrives, so some stay stashed.
    std::set<std::size_t> ids;
    for (std::uint64_t n = 1 + rng.below(6); ids.size() < n;) {
      ids.insert(rng.below(2) == 0 ? rng.below(8) : (1 + rng.below(1u << 30)) << 10);
    }
    std::vector<std::pair<std::size_t, std::uint32_t>> left;  // (src, items left)
    for (const std::size_t src : ids) {
      left.emplace_back(src, static_cast<std::uint32_t>(1 + rng.below(40)));
    }
    std::map<std::size_t, std::uint32_t> sent;
    std::vector<std::pair<std::size_t, std::uint32_t>> arrivals;
    while (!left.empty()) {
      const std::size_t k = rng.below(left.size());
      const std::uint32_t seq = sent[left[k].first]++;
      if (rng.below(20) != 0) arrivals.emplace_back(left[k].first, seq);
      if (--left[k].second == 0) left.erase(left.begin() + static_cast<std::ptrdiff_t>(k));
    }
    // Each arrival overtakes up to 8 earlier ones.
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
      const std::size_t back = std::min<std::size_t>(i, rng.below(9));
      std::rotate(arrivals.begin() + static_cast<std::ptrdiff_t>(i - back),
                  arrivals.begin() + static_cast<std::ptrdiff_t>(i),
                  arrivals.begin() + static_cast<std::ptrdiff_t>(i + 1));
    }

    ReseqHarness real;
    ReseqModel model;
    Delivered expected;
    for (const auto& [src, seq] : arrivals) {
      real.push(src, seq);
      model.push(src, seq, expected);
    }
    ASSERT_EQ(real.out, expected) << "seed " << seed;
    Delivered stashed;
    for (const SeqItem& it : real.reseq.takeStashed()) stashed.emplace_back(it.src, it.seq);
    ASSERT_EQ(stashed, model.stashOrder()) << "seed " << seed;
  }
}

}  // namespace
