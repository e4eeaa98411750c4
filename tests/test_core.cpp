#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "converse/converse.hpp"
#include "core/device_comm.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "sim/rng.hpp"
#include "trace_sink.hpp"
#include "ucx/context.hpp"

namespace {

using namespace cux;

// --------------------------------------------------------------------------
// Tag scheme (paper Fig. 3)
// --------------------------------------------------------------------------

TEST(TagScheme, DefaultSplitIs4_32_28) {
  core::TagScheme t;
  EXPECT_TRUE(t.valid());
  EXPECT_EQ(t.msg_bits, 4u);
  EXPECT_EQ(t.pe_bits, 32u);
  EXPECT_EQ(t.cnt_bits, 28u);
}

TEST(TagScheme, RoundTripsFields) {
  core::TagScheme t;
  const auto tag = t.make(core::MsgType::Device, 123456, 7890);
  EXPECT_EQ(t.typeOf(tag), core::MsgType::Device);
  EXPECT_EQ(t.peOf(tag), 123456u);
  EXPECT_EQ(t.cntOf(tag), 7890u);
}

TEST(TagScheme, TypesAreDisjointUnderTypeMask) {
  core::TagScheme t;
  const auto host = t.make(core::MsgType::Host, 5, 9);
  const auto dev = t.make(core::MsgType::Device, 5, 9);
  EXPECT_NE(host & t.typeMask(), dev & t.typeMask());
}

TEST(TagScheme, CustomSplitsRoundTrip) {
  // The paper: "this division can be modified by the user to accommodate
  // different scaling configurations."
  for (unsigned pe_bits : {8u, 16u, 24u, 40u}) {
    core::TagScheme t{4, pe_bits, 60 - pe_bits};
    ASSERT_TRUE(t.valid());
    const std::uint64_t pe = t.maxPe();
    const std::uint64_t cnt = t.cntModulus() - 1;
    const auto tag = t.make(core::MsgType::ZcopyHost, pe, cnt);
    EXPECT_EQ(t.typeOf(tag), core::MsgType::ZcopyHost);
    EXPECT_EQ(t.peOf(tag), pe);
    EXPECT_EQ(t.cntOf(tag), cnt);
  }
}

TEST(TagScheme, InvalidSplitsRejected) {
  EXPECT_FALSE((core::TagScheme{4, 32, 27}.valid()));
  EXPECT_FALSE((core::TagScheme{0, 36, 28}.valid()));
}

// The Converse constructor checks the split once, in every build type, so
// the per-send tag construction needs no check of its own.
TEST(TagScheme, ConverseRejectsMalformedSplit) {
  model::Model m = model::summit(1);
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);
  EXPECT_THROW(cmi::Converse(sys, ctx, m.costs, core::TagScheme{4, 32, 27}),
               std::invalid_argument);
  EXPECT_THROW(cmi::Converse(sys, ctx, m.costs, core::TagScheme{1, 35, 28}),
               std::invalid_argument);
}

TEST(TagScheme, ConverseRejectsPesBeyondPeBits) {
  // Two Summit nodes are 12 PEs: 3 PE bits name only 8 of them, 4 name 16.
  auto build = [](core::TagScheme tags) {
    model::Model m = model::summit(2);
    hw::System sys(m.machine);
    ucx::Context ctx(sys, m.ucx);
    cmi::Converse cmi(sys, ctx, m.costs, tags);
  };
  EXPECT_THROW(build(core::TagScheme{4, 3, 57}), std::invalid_argument);
  EXPECT_NO_THROW(build(core::TagScheme{4, 4, 56}));
}

TEST(TagScheme, CounterWrapsAtModulus) {
  core::TagScheme t{4, 56, 4};  // tiny counter: wraps at 16
  EXPECT_EQ(t.cntOf(t.make(core::MsgType::Device, 0, 16)), 0u);
  EXPECT_EQ(t.cntOf(t.make(core::MsgType::Device, 0, 17)), 1u);
}

TEST(TagScheme, TypeFieldIsMasked) {
#ifdef NDEBUG
  // An out-of-range type value (here 2^msg_bits + 1) must truncate to its
  // low msg_bits instead of leaking anywhere else in the tag; debug builds
  // assert on it instead.
  core::TagScheme t;
  const auto wild = t.make(static_cast<core::MsgType>(17), 123, 45);
  EXPECT_EQ(wild, t.make(static_cast<core::MsgType>(1), 123, 45));
  EXPECT_EQ(t.peOf(wild), 123u);
  EXPECT_EQ(t.cntOf(wild), 45u);
#else
  GTEST_SKIP() << "out-of-range MsgType asserts in debug builds";
#endif
}

// --------------------------------------------------------------------------
// Converse
// --------------------------------------------------------------------------

struct CoreFixture {
  explicit CoreFixture(int nodes = 2) : m(model::summit(nodes)) {
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

std::vector<std::byte> bytesOf(const char* s) {
  std::vector<std::byte> v(std::strlen(s));
  std::memcpy(v.data(), s, v.size());
  return v;
}

TEST(Converse, DeliversToRegisteredHandler) {
  CoreFixture f;
  int got_src = -1;
  std::string got;
  const int h = f.cmi->registerHandler([&](cmi::Message msg) {
    got_src = msg.src_pe;
    got.assign(reinterpret_cast<const char*>(msg.payload().data()), msg.payload().size());
  });
  f.cmi->runOn(0, [&] { f.cmi->send(0, 7, h, bytesOf("hello")); });
  f.sys->engine.run();
  EXPECT_EQ(got_src, 0);
  EXPECT_EQ(got, "hello");
}

TEST(Converse, SelfSendLoopsBack) {
  CoreFixture f;
  bool got = false;
  const int h = f.cmi->registerHandler([&](cmi::Message) { got = true; });
  f.cmi->runOn(3, [&] { f.cmi->send(3, 3, h, bytesOf("x")); });
  f.sys->engine.run();
  EXPECT_TRUE(got);
}

TEST(Converse, CurrentPeTracksHandlerExecution) {
  CoreFixture f;
  int seen_pe = -1;
  const int h = f.cmi->registerHandler([&](cmi::Message) { seen_pe = f.cmi->currentPe(); });
  f.cmi->runOn(0, [&] {
    EXPECT_EQ(f.cmi->currentPe(), 0);
    f.cmi->send(0, 9, h, {});
  });
  f.sys->engine.run();
  EXPECT_EQ(seen_pe, 9);
  EXPECT_EQ(f.cmi->currentPe(), -1);
}

TEST(Converse, MessagesBetweenSamePairStayOrdered) {
  CoreFixture f;
  std::vector<int> order;
  const int h = f.cmi->registerHandler([&](cmi::Message msg) {
    int v = 0;
    std::memcpy(&v, msg.payload().data(), 4);
    order.push_back(v);
  });
  f.cmi->runOn(0, [&] {
    for (int i = 0; i < 20; ++i) {
      std::vector<std::byte> p(4);
      std::memcpy(p.data(), &i, 4);
      f.cmi->send(0, 1, h, std::move(p));
    }
  });
  f.sys->engine.run();
  ASSERT_EQ(order.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Converse, LargePayloadsTravelByRendezvous) {
  CoreFixture f;
  std::vector<std::byte> big(1u << 20);
  sim::SplitMix64 rng(3);
  rng.fill(big.data(), big.size());
  std::vector<std::byte> got;
  const int h = f.cmi->registerHandler([&](cmi::Message msg) {
    got.assign(msg.payload().begin(), msg.payload().end());
  });
  auto copy = big;
  f.cmi->runOn(0, [&f, h, copy = std::move(copy)]() mutable {
    f.cmi->send(0, 6, h, std::move(copy));
  });
  f.sys->engine.run();
  EXPECT_EQ(got, big);
}

// --------------------------------------------------------------------------
// DeviceComm: LrtsSendDevice / LrtsRecvDevice (paper Sec. III-A)
// --------------------------------------------------------------------------

TEST(DeviceComm, TagCarriesTypePeAndCounter) {
  CoreFixture f;
  cuda::DeviceBuffer a(*f.sys, 2, 64);
  core::CmiDeviceBuffer buf{a.ref(), 64, 0};
  f.cmi->runOn(2, [&] { f.dev->lrtsSendDevice(2, 3, buf); });
  f.sys->engine.run();
  const auto& t = f.cmi->tags();
  EXPECT_EQ(t.typeOf(buf.tag), core::MsgType::Device);
  EXPECT_EQ(t.peOf(buf.tag), 2u);
  EXPECT_EQ(t.cntOf(buf.tag), 0u);
}

TEST(DeviceComm, CounterIncrementsPerPe) {
  CoreFixture f;
  cuda::DeviceBuffer a(*f.sys, 0, 64);
  core::CmiDeviceBuffer b1{a.ref(), 64, 0}, b2{a.ref(), 64, 0}, b3{a.ref(), 64, 0};
  f.cmi->runOn(0, [&] {
    f.dev->lrtsSendDevice(0, 1, b1);
    f.dev->lrtsSendDevice(0, 2, b2);
  });
  f.cmi->runOn(5, [&] { f.dev->lrtsSendDevice(5, 1, b3); });
  f.sys->engine.run();
  EXPECT_EQ(f.cmi->tags().cntOf(b1.tag), 0u);
  EXPECT_EQ(f.cmi->tags().cntOf(b2.tag), 1u);
  EXPECT_EQ(f.cmi->tags().cntOf(b3.tag), 0u);  // separate per-PE counter
}

TEST(DeviceComm, HostBufferGetsZcopyType) {
  CoreFixture f;
  std::vector<std::byte> host(1u << 20);
  core::CmiDeviceBuffer buf{hw::MemRef::host(host.data()), host.size(), 0};
  f.cmi->runOn(0, [&] { f.dev->lrtsSendDevice(0, 1, buf); });
  f.sys->engine.run();
  EXPECT_EQ(f.cmi->tags().typeOf(buf.tag), core::MsgType::ZcopyHost);
}

TEST(DeviceComm, SendRecvMovesDeviceData) {
  CoreFixture f;
  const std::size_t n = 1u << 20;
  cuda::DeviceBuffer src(*f.sys, 0, n), dst(*f.sys, 6, n);
  sim::SplitMix64 rng(8);
  rng.fill(src.get(), n);

  core::CmiDeviceBuffer buf{src.ref(), n, 0};
  bool sent = false, received = false;
  f.cmi->runOn(0, [&] {
    f.dev->lrtsSendDevice(0, 6, buf, [&] { sent = true; });
    // Metadata exchange would normally deliver the tag; here the test passes
    // it directly to the receive side.
    f.cmi->runOn(6, [&] {
      f.dev->lrtsRecvDevice(6, core::DeviceRdmaOp{dst.ref(), n, buf.tag},
                            core::DeviceRecvType::Raw, [&] { received = true; });
    });
  });
  f.sys->engine.run();
  EXPECT_TRUE(sent);
  EXPECT_TRUE(received);
  EXPECT_EQ(std::memcmp(src.get(), dst.get(), n), 0);
}

TEST(DeviceComm, RecvBeforeRtsAlsoCompletes) {
  CoreFixture f;
  const std::size_t n = 64 * 1024;
  cuda::DeviceBuffer src(*f.sys, 0, n), dst(*f.sys, 1, n);
  sim::SplitMix64 rng(9);
  rng.fill(src.get(), n);

  // Pre-generate the tag the sender will use (counter 0 on PE 0).
  const auto tag = f.cmi->tags().make(core::MsgType::Device, 0, 0);
  bool received = false;
  f.cmi->runOn(1, [&] {
    f.dev->lrtsRecvDevice(1, core::DeviceRdmaOp{dst.ref(), n, tag},
                          core::DeviceRecvType::Raw, [&] { received = true; });
  });
  core::CmiDeviceBuffer buf{src.ref(), n, 0};
  f.sys->engine.schedule(sim::usec(50), [&] {
    f.cmi->runOn(0, [&] { f.dev->lrtsSendDevice(0, 1, buf); });
  });
  f.sys->engine.run();
  EXPECT_EQ(buf.tag, tag);
  EXPECT_TRUE(received);
  EXPECT_EQ(std::memcmp(src.get(), dst.get(), n), 0);
}

TEST(DeviceComm, CounterWrapsAroundCntBits) {
  // CNT_BITS wraparound in lrtsSendDevice: with a 4-bit counter the 17th
  // send from a PE reuses counter value 0 without touching the PE or type
  // fields.
  model::Model m = model::summit(2);
  hw::System sys(m.machine);
  ucx::Context ctx(sys, m.ucx);
  cmi::Converse cmi(sys, ctx, m.costs, core::TagScheme{4, 56, 4});
  core::DeviceComm dev(cmi);
  cuda::DeviceBuffer a(sys, 0, 64);
  std::vector<std::uint64_t> cnts;
  cmi.runOn(0, [&] {
    for (int i = 0; i < 18; ++i) {
      core::CmiDeviceBuffer buf{a.ref(), 64, 0};
      dev.lrtsSendDevice(0, 1, buf);
      cnts.push_back(cmi.tags().cntOf(buf.tag));
      EXPECT_EQ(cmi.tags().typeOf(buf.tag), core::MsgType::Device);
      EXPECT_EQ(cmi.tags().peOf(buf.tag), 0u);
    }
  });
  sys.engine.run();
  ASSERT_EQ(cnts.size(), 18u);
  for (std::size_t i = 0; i < cnts.size(); ++i) EXPECT_EQ(cnts[i], i % 16);
}

TEST(DeviceComm, UserTagSendsStayOrderedInSmpMode) {
  // Regression: lrtsSendDeviceUserTag used to schedule directly at the PE's
  // busy horizon instead of going through cmi.inject(); in SMP mode that
  // bypassed the comm thread, letting a user-tag send overtake a regular
  // device send issued earlier by the same PE.
  model::Model m = model::summit(2);
  m.costs.smp_comm_thread = true;
  test::TraceSink trace;
  hw::System sys(m.machine);
  sys.trace.enable(&trace);
  ucx::Context ctx(sys, m.ucx);
  cmi::Converse cmi(sys, ctx, m.costs);
  core::DeviceComm dev(cmi);
  cuda::DeviceBuffer a(sys, 0, 64), b(sys, 0, 64);
  core::CmiDeviceBuffer regular{a.ref(), 64, 0}, user{b.ref(), 64, 0};
  cmi.runOn(0, [&] {
    dev.lrtsSendDevice(0, 1, regular);
    dev.lrtsSendDeviceUserTag(0, 1, user, 7);
  });
  sys.engine.run();
  std::vector<core::MsgType> order;
  for (const auto& rec : trace.records) {
    if (rec.cat == sim::TraceCat::UcxSend) order.push_back(cmi.tags().typeOf(rec.tag));
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], core::MsgType::Device);
  EXPECT_EQ(order[1], core::MsgType::DeviceUser);
}

// Regression: sendsByType used to read the *receive* counters, so a send
// issued as one model type was invisible while an unrelated receive was
// reported as a send. The two families are now tracked independently.
TEST(DeviceComm, AccountsSendAndRecvTypesIndependently) {
  CoreFixture f;
  cuda::DeviceBuffer src(*f.sys, 0, 64), dst(*f.sys, 1, 64);
  core::CmiDeviceBuffer buf{src.ref(), 64, 0};
  f.cmi->runOn(0, [&] {
    f.dev->lrtsSendDevice(0, 1, buf, {}, core::DeviceRecvType::Charm4py);
    f.cmi->runOn(1, [&] {
      f.dev->lrtsRecvDevice(1, core::DeviceRdmaOp{dst.ref(), 64, buf.tag},
                            core::DeviceRecvType::Ampi, {});
    });
  });
  f.sys->engine.run();
  EXPECT_EQ(f.dev->sendsByType(core::DeviceRecvType::Charm4py), 1u);
  EXPECT_EQ(f.dev->recvsByType(core::DeviceRecvType::Ampi), 1u);
  // The bug's signature: a send must never surface through the recv counter
  // of its type, nor a recv through the send counter.
  EXPECT_EQ(f.dev->sendsByType(core::DeviceRecvType::Ampi), 0u);
  EXPECT_EQ(f.dev->recvsByType(core::DeviceRecvType::Charm4py), 0u);
  EXPECT_EQ(f.dev->deviceSends(), 1u);
}

}  // namespace
