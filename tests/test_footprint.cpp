#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "ampi/ampi.hpp"
#include "apps/jacobi/jacobi.hpp"
#include "charm4py/charm4py.hpp"
#include "model/model.hpp"
#include "ucx/context.hpp"

/// Construction footprint at the paper's largest Jacobi point (256 Summit
/// nodes, 1536 ranks): the state a layer builds for its ranks and endpoints
/// must grow with the peers each one talks to, not with the world squared.
/// A counting operator new measures the bytes each build step allocates,
/// and the calls each steady-state Jacobi halo message makes. The
/// replacements are kept out of line (as in test_osu.cpp): inlined into this
/// file's own new-expressions, GCC would flag the malloc/free pairing as
/// mismatched.

static std::uint64_t g_alloc_bytes = 0;
static std::uint64_t g_alloc_calls = 0;

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_alloc_bytes += n;
  ++g_alloc_calls;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  g_alloc_bytes += n;
  ++g_alloc_calls;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace cux;

constexpr int kPaperNodes = 256;

struct Stack {
  Stack() : m(model::summit(kPaperNodes)) {
    m.machine.backed_device_memory = false;
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    rt = std::make_unique<ck::Runtime>(*sys, *ctx, m);
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<ck::Runtime> rt;
};

TEST(Footprint, AmpiWorldIsLinearInRanks) {
  Stack s;
  const std::uint64_t before = g_alloc_bytes;
  ampi::World world(*s.rt);
  const std::uint64_t per_rank =
      (g_alloc_bytes - before) / static_cast<std::uint64_t>(world.size());
  ASSERT_EQ(world.size(), 6 * kPaperNodes);
  // About 0.5 KB per rank. Send and receive sequence counters sized for
  // every rank would add 8 bytes per rank per rank: over 12 KB here.
  EXPECT_LT(per_rank, 1024u) << "bytes allocated per AMPI rank at construction";
}

TEST(Footprint, Charm4pyJacobiMeshIsLinearInEndpoints) {
  Stack s;
  c4p::Charm4py py(*s.rt);
  const int pes = s.rt->numPes();
  const jacobi::Decomposition dec = jacobi::decompose(jacobi::Vec3{3072, 3072, 3072}, pes);
  const std::uint64_t before = g_alloc_bytes;
  // The Jacobi channel mesh, each endpoint then opened by one posted receive.
  std::vector<c4p::ChannelEnd*> ends;
  for (int p = 0; p < pes; ++p) {
    for (int d = 0; d < jacobi::kNumDirs; ++d) {
      const int peer = dec.neighbor(p, static_cast<jacobi::Dir>(d));
      if (peer < p) continue;  // each channel once; -1 at the boundary
      const c4p::Channel ch = py.makeChannel(p, peer);
      ends.push_back(ch.a);
      ends.push_back(ch.b);
    }
  }
  std::vector<std::byte> sink(8);
  for (c4p::ChannelEnd* e : ends) (void)e->recv(sink.data(), sink.size());
  const std::uint64_t per_end = (g_alloc_bytes - before) / ends.size();
  EXPECT_GT(ends.size(), static_cast<std::size_t>(4 * pes));
  // About 0.5 KB per endpoint, most of it the receive's future state. Two
  // std::deque queues would add over 1 KB each endpoint before any traffic.
  EXPECT_LT(per_end, 768u) << "bytes allocated per opened Charm4py endpoint";
}

/// Heap allocations per steady-state halo message of a 2-node Device-mode,
/// unbacked Jacobi point: two runs that differ only in `iters`, each counted
/// from cfg.setup to cfg.inspect, differ by their extra halo messages alone.
std::uint64_t allocationsPerHaloMessage(jacobi::Stack stack) {
  jacobi::JacobiConfig cfg;
  cfg.stack = stack;
  cfg.mode = jacobi::Mode::Device;
  cfg.nodes = 2;
  cfg.grid = {384, 384, 384};
  cfg.warmup = 1;
  cfg.backed = false;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  cfg.setup = [&start](hw::System&) { start = g_alloc_calls; };
  cfg.inspect = [&end](hw::System&) { end = g_alloc_calls; };
  jacobi::Decomposition dec;
  const auto run = [&](int iters) {
    cfg.iters = iters;
    dec = jacobi::runJacobi(cfg).dec;
    return end - start;
  };
  // The first run fills the per-thread future pools; later runs reuse them.
  (void)run(2);
  const std::uint64_t short_allocs = run(2);
  const std::uint64_t long_allocs = run(6);
  // One message per neighbour link per iteration, as JacobiLookups counts.
  std::uint64_t links = 0;
  for (int id = 0; id < dec.numBlocks(); ++id) {
    for (int d = 0; d < jacobi::kNumDirs; ++d) {
      if (dec.neighbor(id, static_cast<jacobi::Dir>(d)) >= 0) ++links;
    }
  }
  const std::uint64_t extra_messages = links * 4;
  EXPECT_GT(extra_messages, 0u);
  EXPECT_GE(long_allocs, short_allocs);
  return (long_allocs - short_allocs) / extra_messages;
}

// An OpenMPI halo message is a UCX send and receive whose requests come from
// the context's pool and whose completions are pooled futures.
TEST(Footprint, OmpiHaloMessageAllocatesNothing) {
  EXPECT_EQ(allocationsPerHaloMessage(jacobi::Stack::Ompi), 0u);
}

// AMPI's requests are pooled futures too; what is left is the Charm++
// metadata message each send ships.
TEST(Footprint, AmpiHaloMessageAllocatesOnce) {
  EXPECT_EQ(allocationsPerHaloMessage(jacobi::Stack::Ampi), 1u);
}

}  // namespace
