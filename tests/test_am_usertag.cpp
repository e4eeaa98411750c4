#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "converse/converse.hpp"
#include "core/device_comm.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "sim/rng.hpp"
#include "ucx/am.hpp"

/// The paper's Sec. VI improvement proposals, implemented: GPU-capable
/// active messages and user-provided tags with pre-posted receives.

namespace {

using namespace cux;

struct Fix {
  explicit Fix(int nodes = 2) : m(model::summit(nodes)) {
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    cmi = std::make_unique<cmi::Converse>(*sys, *ctx, m.costs);
    dev = std::make_unique<core::DeviceComm>(*cmi);
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<cmi::Converse> cmi;
  std::unique_ptr<core::DeviceComm> dev;
};

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::byte> v(n);
  sim::SplitMix64 rng(seed);
  rng.fill(v.data(), n);
  return v;
}

// --------------------------------------------------------------------------
// Active messages
// --------------------------------------------------------------------------

TEST(ActiveMessages, DeviceToDeviceRendezvous) {
  Fix f;
  ucx::ActiveMessages am(*f.ctx);
  const std::size_t n = 1u << 20;
  cuda::DeviceBuffer a(*f.sys, 0, n), b(*f.sys, 6, n);
  auto ref = pattern(n, 1);
  std::memcpy(a.get(), ref.data(), n);

  void* got_ptr = nullptr;
  std::uint64_t got_len = 0;
  int got_src = -1;
  am.registerAm(6, 3, [&](std::uint64_t, int) { return b.get(); },
                [&](void* p, std::uint64_t len, int src) {
                  got_ptr = p;
                  got_len = len;
                  got_src = src;
                });
  bool sent = false;
  am.amSend(0, 6, 3, a.get(), n, [&](ucx::Request&) { sent = true; });
  f.sys->engine.run();
  EXPECT_TRUE(sent);
  EXPECT_EQ(got_ptr, b.get());
  EXPECT_EQ(got_len, n);
  EXPECT_EQ(got_src, 0);
  EXPECT_EQ(std::memcmp(b.get(), ref.data(), n), 0);
}

TEST(ActiveMessages, SmallMessagesUseEagerPath) {
  Fix f;
  ucx::ActiveMessages am(*f.ctx);
  cuda::DeviceBuffer a(*f.sys, 0, 64), b(*f.sys, 1, 64);
  auto ref = pattern(64, 2);
  std::memcpy(a.get(), ref.data(), 64);
  int delivered = 0;
  am.registerAm(1, 0, [&](std::uint64_t, int) { return b.get(); },
                [&](void*, std::uint64_t, int) { ++delivered; });
  am.amSend(0, 1, 0, a.get(), 64);
  f.sys->engine.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(std::memcmp(b.get(), ref.data(), 64), 0);
}

TEST(ActiveMessages, ManyMessagesDistinctIds) {
  Fix f(1);
  ucx::ActiveMessages am(*f.ctx);
  std::vector<std::byte> src0 = pattern(128, 3), src1 = pattern(128, 4);
  std::vector<std::byte> dst0(128), dst1(128);
  int d0 = 0, d1 = 0;
  am.registerAm(2, 10, [&](std::uint64_t, int) { return dst0.data(); },
                [&](void*, std::uint64_t, int) { ++d0; });
  am.registerAm(2, 11, [&](std::uint64_t, int) { return dst1.data(); },
                [&](void*, std::uint64_t, int) { ++d1; });
  am.amSend(0, 2, 10, src0.data(), 128);
  am.amSend(1, 2, 11, src1.data(), 128);
  f.sys->engine.run();
  EXPECT_EQ(d0, 1);
  EXPECT_EQ(d1, 1);
  EXPECT_EQ(dst0, src0);
  EXPECT_EQ(dst1, src1);
  EXPECT_EQ(am.delivered(), 2u);
}

TEST(ActiveMessages, UnregisteredIdGoesUnexpected) {
  Fix f(1);
  ucx::ActiveMessages am(*f.ctx);
  std::vector<std::byte> src(64);
  am.amSend(0, 1, 42, src.data(), 64);  // nothing registered for id 42 on PE 1
  f.sys->engine.run();
  EXPECT_EQ(am.delivered(), 0u);
  EXPECT_EQ(f.ctx->worker(1).matchStats().unexpected, 1u);
}

TEST(ActiveMessages, AllocatorSeesLengthAndSource) {
  Fix f(1);
  ucx::ActiveMessages am(*f.ctx);
  std::vector<std::byte> src(1234), dst(4096);
  std::uint64_t alloc_len = 0;
  int alloc_src = -1;
  am.registerAm(3, 1,
                [&](std::uint64_t len, int s) {
                  alloc_len = len;
                  alloc_src = s;
                  return dst.data();
                },
                [](void*, std::uint64_t, int) {});
  am.amSend(2, 3, 1, src.data(), 1234);
  f.sys->engine.run();
  EXPECT_EQ(alloc_len, 1234u);
  EXPECT_EQ(alloc_src, 2);
}

TEST(ActiveMessages, IdOutsideEightTagBitsThrows) {
  Fix f;
  ucx::ActiveMessages am(*f.ctx);
  std::vector<std::byte> buf(64);
  auto alloc = [&buf](std::uint64_t, int) -> void* { return buf.data(); };
  auto handler = [](void*, std::uint64_t, int) {};
  EXPECT_THROW(am.registerAm(0, 256, alloc, handler), std::invalid_argument);
  EXPECT_THROW(am.amSend(0, 1, 256, buf.data(), 64), std::invalid_argument);
  // id 256 on PE 0 would have aliased id 0 on PE 1.
  am.registerAm(1, 0, alloc, handler);
  am.registerAm(0, 255, alloc, handler);
}

TEST(ActiveMessages, DuplicateRegistrationThrows) {
  Fix f;
  ucx::ActiveMessages am(*f.ctx);
  std::vector<std::byte> buf(64);
  int first = 0;
  auto alloc = [&buf](std::uint64_t, int) -> void* { return buf.data(); };
  am.registerAm(2, 7, alloc, [&first](void*, std::uint64_t, int) { ++first; });
  EXPECT_THROW(am.registerAm(2, 7, alloc, [](void*, std::uint64_t, int) {}),
               std::invalid_argument);
  am.registerAm(3, 7, alloc, [](void*, std::uint64_t, int) {});  // other PE: fine
  // The original registration still receives the message.
  std::vector<std::byte> src(64);
  am.amSend(0, 2, 7, src.data(), 64);
  f.sys->engine.run();
  EXPECT_EQ(first, 1);
}

// --------------------------------------------------------------------------
// User-provided tags
// --------------------------------------------------------------------------

TEST(UserTag, PrePostedReceiveCompletesWithoutMetadata) {
  Fix f;
  const std::size_t n = 512 * 1024;
  cuda::DeviceBuffer a(*f.sys, 0, n), b(*f.sys, 6, n);
  auto ref = pattern(n, 5);
  std::memcpy(a.get(), ref.data(), n);
  bool received = false;
  // Receive posted first — before the sender does anything.
  f.cmi->runOn(6, [&] {
    f.dev->lrtsRecvDeviceUserTag(6, b.ref(), n, 777, core::DeviceRecvType::Charm,
                                 [&] { received = true; });
  });
  f.sys->engine.schedule(sim::usec(100), [&] {
    f.cmi->runOn(0, [&] {
      core::CmiDeviceBuffer buf{a.ref(), n, 0};
      f.dev->lrtsSendDeviceUserTag(0, 6, buf, 777);
    });
  });
  f.sys->engine.run();
  EXPECT_TRUE(received);
  EXPECT_EQ(std::memcmp(b.get(), ref.data(), n), 0);
}

TEST(UserTag, TagsEncodeDeviceUserType) {
  Fix f(1);
  cuda::DeviceBuffer a(*f.sys, 0, 64);
  core::CmiDeviceBuffer buf{a.ref(), 64, 0};
  f.cmi->runOn(0, [&] { f.dev->lrtsSendDeviceUserTag(0, 1, buf, 0xABCDE); });
  f.sys->engine.run();
  EXPECT_EQ(f.cmi->tags().typeOf(buf.tag), core::MsgType::DeviceUser);
}

TEST(UserTag, DistinctUserTagsMatchIndependently) {
  Fix f(1);
  const std::size_t n = 64 * 1024;
  cuda::DeviceBuffer a1(*f.sys, 0, n), a2(*f.sys, 0, n);
  cuda::DeviceBuffer b1(*f.sys, 1, n), b2(*f.sys, 1, n);
  auto r1 = pattern(n, 6), r2 = pattern(n, 7);
  std::memcpy(a1.get(), r1.data(), n);
  std::memcpy(a2.get(), r2.data(), n);
  int done = 0;
  f.cmi->runOn(1, [&] {
    // Post in reverse order of the sends: matching is by tag, not order.
    f.dev->lrtsRecvDeviceUserTag(1, b2.ref(), n, 2, core::DeviceRecvType::Charm,
                                 [&] { ++done; });
    f.dev->lrtsRecvDeviceUserTag(1, b1.ref(), n, 1, core::DeviceRecvType::Charm,
                                 [&] { ++done; });
  });
  f.cmi->runOn(0, [&] {
    core::CmiDeviceBuffer x{a1.ref(), n, 0}, y{a2.ref(), n, 0};
    f.dev->lrtsSendDeviceUserTag(0, 1, x, 1);
    f.dev->lrtsSendDeviceUserTag(0, 1, y, 2);
  });
  f.sys->engine.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(std::memcmp(b1.get(), r1.data(), n), 0);
  EXPECT_EQ(std::memcmp(b2.get(), r2.data(), n), 0);
}

TEST(UserTag, PrePostingBeatsMetadataLatency) {
  // The whole point of the Sec. VI improvement: fewer microseconds.
  const std::size_t n = 4096;
  auto run = [&](bool prepost) {
    Fix f;
    cuda::DeviceBuffer a(*f.sys, 0, n), b(*f.sys, 6, n);
    sim::TimePoint done = 0;
    if (prepost) {
      f.cmi->runOn(6, [&] {
        f.dev->lrtsRecvDeviceUserTag(6, b.ref(), n, 9, core::DeviceRecvType::Charm,
                                     [&] { done = f.sys->engine.now(); });
      });
      f.cmi->runOn(0, [&] {
        core::CmiDeviceBuffer buf{a.ref(), n, 0};
        f.dev->lrtsSendDeviceUserTag(0, 6, buf, 9);
      });
    } else {
      const int h = f.cmi->registerHandler([&](cmi::Message msg) {
        std::uint64_t tag = 0;
        std::memcpy(&tag, msg.payload().data(), 8);
        f.dev->lrtsRecvDevice(6, core::DeviceRdmaOp{b.ref(), n, tag},
                              core::DeviceRecvType::Charm,
                              [&] { done = f.sys->engine.now(); });
      });
      // h by value: this lambda runs from engine.run() below, after the
      // enclosing else-block (and h) has gone out of scope.
      f.cmi->runOn(0, [&, h] {
        core::CmiDeviceBuffer buf{a.ref(), n, 0};
        f.dev->lrtsSendDevice(0, 6, buf);
        std::vector<std::byte> meta(8);
        std::memcpy(meta.data(), &buf.tag, 8);
        f.cmi->send(0, 6, h, std::move(meta));
      });
    }
    f.sys->engine.run();
    return sim::toUs(done);
  };
  EXPECT_LT(run(true), run(false));
}

}  // namespace
