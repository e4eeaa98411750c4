#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "charm/charm.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "sim/rng.hpp"
#include "ucx/context.hpp"

namespace {

using namespace cux;

struct CharmFixture {
  explicit CharmFixture(int nodes = 2) : m(model::summit(nodes)) {
    sys = std::make_unique<hw::System>(m.machine);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    rt = std::make_unique<ck::Runtime>(*sys, *ctx, m);
  }
  model::Model m;
  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<ck::Runtime> rt;
};

// --------------------------------------------------------------------------
// Host-argument entry methods
// --------------------------------------------------------------------------

struct Receiver : ck::Chare {
  void simple(int a, double b) {
    got_a = a;
    got_b = b;
    ++calls;
  }
  void withVector(std::vector<std::uint32_t> v, std::string s) {
    got_v = std::move(v);
    got_s = std::move(s);
  }
  int got_a = 0;
  double got_b = 0;
  int calls = 0;
  std::vector<std::uint32_t> got_v;
  std::string got_s;
};

TEST(CharmEntry, ScalarArgumentsArrive) {
  CharmFixture f;
  auto proxy = f.rt->create<Receiver>(5);
  f.rt->startOn(0, [&] { proxy.send<&Receiver::simple>(42, 2.5); });
  f.sys->engine.run();
  EXPECT_EQ(proxy.local()->got_a, 42);
  EXPECT_DOUBLE_EQ(proxy.local()->got_b, 2.5);
}

TEST(CharmEntry, VectorAndStringArgumentsArrive) {
  CharmFixture f;
  auto proxy = f.rt->create<Receiver>(7);
  std::vector<std::uint32_t> v{1, 2, 3, 4, 5};
  f.rt->startOn(2, [&] { proxy.send<&Receiver::withVector>(v, std::string("charm")); });
  f.sys->engine.run();
  EXPECT_EQ(proxy.local()->got_v, v);
  EXPECT_EQ(proxy.local()->got_s, "charm");
}

TEST(CharmEntry, SelfSendWorks) {
  CharmFixture f;
  auto proxy = f.rt->create<Receiver>(0);
  f.rt->startOn(0, [&] { proxy.send<&Receiver::simple>(1, 1.0); });
  f.sys->engine.run();
  EXPECT_EQ(proxy.local()->calls, 1);
}

TEST(CharmEntry, ManyMessagesAllDelivered) {
  CharmFixture f;
  auto proxy = f.rt->create<Receiver>(1);
  f.rt->startOn(0, [&] {
    for (int i = 0; i < 100; ++i) proxy.send<&Receiver::simple>(i, 0.0);
  });
  f.sys->engine.run();
  EXPECT_EQ(proxy.local()->calls, 100);
}

TEST(CharmEntry, MultipleCharesOnOnePe) {
  CharmFixture f;
  auto p1 = f.rt->create<Receiver>(3);
  auto p2 = f.rt->create<Receiver>(3);
  f.rt->startOn(0, [&] {
    p1.send<&Receiver::simple>(1, 0.0);
    p2.send<&Receiver::simple>(2, 0.0);
  });
  f.sys->engine.run();
  EXPECT_EQ(p1.local()->got_a, 1);
  EXPECT_EQ(p2.local()->got_a, 2);
}

// --------------------------------------------------------------------------
// Device buffers + post entry methods (paper Fig. 4)
// --------------------------------------------------------------------------

struct GpuReceiver : ck::Chare {
  // Post entry: the user supplies destination GPU buffers (paper: "(2)
  // Receiver's post entry method").
  void recvPost(std::span<ck::Buffer> bufs) {
    ++post_calls;
    for (auto& b : bufs) b.setDestination(dst, capacity);
  }
  // Regular entry: data has landed (paper: "(3) Receiver's regular entry").
  void recv(ck::Buffer data, std::uint64_t n) {
    ++recv_calls;
    got_n = n;
    got_ptr = data.data();
    got_size = data.size();
  }

  void* dst = nullptr;
  std::uint64_t capacity = 0;
  int post_calls = 0;
  int recv_calls = 0;
  std::uint64_t got_n = 0;
  void* got_ptr = nullptr;
  std::uint64_t got_size = 0;
};

struct GpuRegistrar {
  GpuRegistrar() { ck::setPostEntry<&GpuReceiver::recv, &GpuReceiver::recvPost>(); }
};

TEST(CharmDevice, DeviceBufferArrivesViaPostEntry) {
  GpuRegistrar reg;
  CharmFixture f;
  const std::size_t n = 1u << 20;
  cuda::DeviceBuffer src(*f.sys, 0, n), dst(*f.sys, 6, n);
  sim::SplitMix64 rng(11);
  rng.fill(src.get(), n);

  auto proxy = f.rt->create<GpuReceiver>(6);
  proxy.local()->dst = dst.get();
  proxy.local()->capacity = n;

  f.rt->startOn(0, [&] { proxy.send<&GpuReceiver::recv>(ck::Buffer(src.get(), n), n); });
  f.sys->engine.run();

  auto* r = proxy.local();
  EXPECT_EQ(r->post_calls, 1);
  EXPECT_EQ(r->recv_calls, 1);
  EXPECT_EQ(r->got_n, n);
  EXPECT_EQ(r->got_ptr, dst.get());
  EXPECT_EQ(r->got_size, n);
  EXPECT_EQ(std::memcmp(src.get(), dst.get(), n), 0);
}

TEST(CharmDevice, PostEntryRunsBeforeRegularEntry) {
  GpuRegistrar reg;
  CharmFixture f;
  cuda::DeviceBuffer src(*f.sys, 0, 64 * 1024), dst(*f.sys, 1, 64 * 1024);
  auto proxy = f.rt->create<GpuReceiver>(1);
  proxy.local()->dst = dst.get();
  proxy.local()->capacity = 64 * 1024;
  f.rt->startOn(0, [&] {
    proxy.send<&GpuReceiver::recv>(ck::Buffer(src.get(), 64 * 1024), std::uint64_t{7});
  });
  // Interleave the run to observe the ordering.
  while (f.sys->engine.step()) {
    if (proxy.local()->recv_calls > 0) break;
  }
  EXPECT_EQ(proxy.local()->post_calls, 1);
}

TEST(CharmDevice, SmallHostBufferIsPackedButStillUsesPostEntry) {
  GpuRegistrar reg;
  CharmFixture f;
  std::vector<std::byte> src(4096), dst(4096);
  sim::SplitMix64 rng(12);
  rng.fill(src.data(), src.size());
  auto proxy = f.rt->create<GpuReceiver>(1);
  proxy.local()->dst = dst.data();
  proxy.local()->capacity = dst.size();
  f.rt->startOn(0, [&] {
    proxy.send<&GpuReceiver::recv>(ck::Buffer(src.data(), src.size()),
                                   std::uint64_t{src.size()});
  });
  f.sys->engine.run();
  EXPECT_EQ(proxy.local()->recv_calls, 1);
  EXPECT_EQ(src, dst);
}

TEST(CharmDevice, LargeHostBufferUsesZeroCopyPath) {
  GpuRegistrar reg;
  CharmFixture f;
  const std::size_t n = 1u << 20;  // above the 128 KiB pack threshold
  std::vector<std::byte> src(n), dst(n);
  sim::SplitMix64 rng(13);
  rng.fill(src.data(), n);
  auto proxy = f.rt->create<GpuReceiver>(6);
  proxy.local()->dst = dst.data();
  proxy.local()->capacity = n;
  const auto sends_before = f.rt->dev().deviceSends();
  f.rt->startOn(0, [&] {
    proxy.send<&GpuReceiver::recv>(ck::Buffer(src.data(), n), std::uint64_t{0});
  });
  f.sys->engine.run();
  EXPECT_EQ(f.rt->dev().deviceSends(), sends_before + 1);  // went through Lrts
  EXPECT_EQ(src, dst);
}

TEST(CharmDevice, SenderCompletionCallbackFires) {
  GpuRegistrar reg;
  CharmFixture f;
  const std::size_t n = 1u << 20;
  cuda::DeviceBuffer src(*f.sys, 0, n), dst(*f.sys, 6, n);
  auto proxy = f.rt->create<GpuReceiver>(6);
  proxy.local()->dst = dst.get();
  proxy.local()->capacity = n;
  bool sent = false;
  f.rt->startOn(0, [&] {
    proxy.send<&GpuReceiver::recv>(
        ck::Buffer(src.get(), n).onSent([&] { sent = true; }), std::uint64_t{0});
  });
  f.sys->engine.run();
  EXPECT_TRUE(sent);
}

// Two device buffers in one invocation (the paper supports one
// CkDeviceBuffer per GPU parameter).
struct TwoBufReceiver : ck::Chare {
  void recvPost(std::span<ck::Buffer> bufs) {
    bufs[0].setDestination(dst0, cap0);
    bufs[1].setDestination(dst1, cap1);
  }
  void recv(ck::Buffer a, int marker, ck::Buffer b) {
    got_marker = marker;
    done = true;
    (void)a;
    (void)b;
  }
  void* dst0 = nullptr;
  void* dst1 = nullptr;
  std::uint64_t cap0 = 0, cap1 = 0;
  int got_marker = 0;
  bool done = false;
};

TEST(CharmDevice, TwoDeviceBuffersInOneInvocation) {
  ck::setPostEntry<&TwoBufReceiver::recv, &TwoBufReceiver::recvPost>();
  CharmFixture f;
  const std::size_t n = 256 * 1024;
  cuda::DeviceBuffer s0(*f.sys, 0, n), s1(*f.sys, 0, n);
  cuda::DeviceBuffer d0(*f.sys, 4, n), d1(*f.sys, 4, n);
  sim::SplitMix64 rng(14);
  rng.fill(s0.get(), n);
  rng.fill(s1.get(), n);
  auto proxy = f.rt->create<TwoBufReceiver>(4);
  auto* r = proxy.local();
  r->dst0 = d0.get();
  r->dst1 = d1.get();
  r->cap0 = r->cap1 = n;
  f.rt->startOn(0, [&] {
    proxy.send<&TwoBufReceiver::recv>(ck::Buffer(s0.get(), n), 99, ck::Buffer(s1.get(), n));
  });
  f.sys->engine.run();
  EXPECT_TRUE(r->done);
  EXPECT_EQ(r->got_marker, 99);
  EXPECT_EQ(std::memcmp(s0.get(), d0.get(), n), 0);
  EXPECT_EQ(std::memcmp(s1.get(), d1.get(), n), 0);
}

// --------------------------------------------------------------------------
// Ping-pong timing sanity: device beats host-staging (the paper's core
// claim, end to end through the Charm++ stack).
// --------------------------------------------------------------------------

struct Pong : ck::Chare {
  void postRecv(std::span<ck::Buffer> bufs) { bufs[0].setDestination(dst, cap); }
  void recv(ck::Buffer);
  ck::Proxy<Pong> peer;
  void* dst = nullptr;
  std::uint64_t cap = 0;
  int remaining = 0;
  sim::TimePoint done_at = 0;
};

void Pong::recv(ck::Buffer) {
  if (--remaining > 0) {
    peer.send<&Pong::recv>(ck::Buffer(dst, cap));
  } else {
    done_at = ckRuntime().system().engine.now();
  }
}

TEST(CharmTiming, DevicePingPongFasterThanStagedAtLargeSizes) {
  ck::setPostEntry<&Pong::recv, &Pong::postRecv>();
  const std::size_t n = 1u << 20;

  auto run_device = [&]() {
    CharmFixture f;
    cuda::DeviceBuffer b0(*f.sys, 0, n, false), b1(*f.sys, 1, n, false);
    auto pa = f.rt->create<Pong>(0);
    auto pb = f.rt->create<Pong>(1);
    pa.local()->peer = pb;
    pb.local()->peer = pa;
    pa.local()->dst = b0.get();
    pb.local()->dst = b1.get();
    pa.local()->cap = pb.local()->cap = n;
    pa.local()->remaining = pb.local()->remaining = 10;
    f.rt->startOn(0, [&] { pb.send<&Pong::recv>(ck::Buffer(b0.get(), n)); });
    f.sys->engine.run();
    // pb (the responder) completes its 10th receive first and stops replying,
    // so its completion time is the measurement.
    return sim::toUs(pb.local()->done_at);
  };
  auto run_host = [&]() {
    CharmFixture f;
    std::vector<std::byte> h0(n), h1(n);
    auto pa = f.rt->create<Pong>(0);
    auto pb = f.rt->create<Pong>(1);
    pa.local()->peer = pb;
    pb.local()->peer = pa;
    pa.local()->dst = h0.data();
    pb.local()->dst = h1.data();
    pa.local()->cap = pb.local()->cap = n;
    pa.local()->remaining = pb.local()->remaining = 10;
    f.rt->startOn(0, [&] { pb.send<&Pong::recv>(ck::Buffer(h0.data(), n)); });
    f.sys->engine.run();
    return sim::toUs(pb.local()->done_at);
  };
  const double dev_us = run_device();
  const double host_us = run_host();
  EXPECT_GT(dev_us, 0.0);
  EXPECT_GT(host_us, 0.0);
  // Device path over NVLink (50 GB/s) beats host path over shm (6.5 GB/s).
  EXPECT_LT(dev_us, host_us);
}

// --------------------------------------------------------------------------
// Phantom packed buffers and caller-input checks
// --------------------------------------------------------------------------

TEST(CharmDevice, UnbackedPackedBufferTravelsAsLengthOnly) {
  // A small host buffer from unbacked memory packs as its length only: the
  // wire length, and so every simulated time, matches the backed case, and
  // the destination is left as is (as for any copy from unbacked memory).
  GpuRegistrar reg;
  auto run = [](bool backed_src) {
    CharmFixture f;
    constexpr std::size_t n = 4096;
    std::vector<std::byte> backed(n, std::byte{1}), dst(n, std::byte{9});
    void* unbacked = f.sys->memory.allocHostUnbacked(n);
    const void* src = backed_src ? backed.data() : unbacked;
    auto proxy = f.rt->create<GpuReceiver>(6);
    proxy.local()->dst = dst.data();
    proxy.local()->capacity = n;
    f.rt->startOn(0, [&] { proxy.send<&GpuReceiver::recv>(ck::Buffer(src, n), std::uint64_t{n}); });
    f.sys->engine.run();
    EXPECT_EQ(proxy.local()->recv_calls, 1);
    EXPECT_EQ(dst[0], backed_src ? std::byte{1} : std::byte{9});
    f.sys->memory.freeDevice(unbacked);
    return std::make_pair(f.ctx->bytesSent(), f.sys->engine.now());
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(CharmChecks, UnregisteredConverseHandlerThrows) {
  CharmFixture f;
  EXPECT_THROW(f.rt->cmi().send(0, 1, 999, {}), std::invalid_argument);
  EXPECT_THROW(f.rt->cmi().send(0, 1, -1, {}), std::invalid_argument);
}

TEST(CharmChecks, UnknownHandlerIdOnArrivalThrows) {
  CharmFixture f;
  std::vector<std::byte> raw(cmi::Message::kHeaderBytes);
  const std::uint32_t bogus = 999, src = 0;
  std::memcpy(raw.data(), &bogus, 4);
  std::memcpy(raw.data() + 4, &src, 4);
  f.ctx->amSend(0, 1, f.rt->cmi().tags().make(core::MsgType::Host, 0, 0), std::move(raw),
                0);
  EXPECT_THROW(f.sys->engine.run(), std::logic_error);
}

TEST(CharmChecks, UnknownEntryOrChareThrows) {
  auto dispatchRaw = [](std::uint32_t chare, std::uint32_t entry) {
    CharmFixture f;
    (void)f.rt->create<Receiver>(5);
    ck::Packer p;
    p.pack(chare);
    p.pack(entry);
    p.pack(std::uint32_t{0});
    f.rt->cmi().send(0, 5, f.rt->converseHandler(), p.take());
    f.sys->engine.run();
  };
  EXPECT_THROW(dispatchRaw(0, 0xFFFFFF), std::logic_error);  // no such entry method
  EXPECT_THROW(dispatchRaw(3, 0), std::logic_error);         // no such chare on PE 5
}

/// Runs `f` and expects an `E` whose message names `needle`: the check that
/// fired is the one meant, not some later failure of the same type.
template <class E, class F>
void expectThrowNaming(F&& f, const std::string& needle) {
  try {
    f();
  } catch (const E& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    return;
  }
  ADD_FAILURE() << "expected an exception naming \"" << needle << "\"";
}

TEST(CharmChecks, EntrySendOutsidePeContextThrows) {
  CharmFixture f;
  auto proxy = f.rt->create<Receiver>(5);
  expectThrowNaming<std::logic_error>([&] { proxy.send<&Receiver::simple>(1, 2.0); },
                                      "PE context");
  EXPECT_EQ(f.ctx->bytesSent(), 0u);
}

TEST(CharmChecks, SourcePeOutOfRangeThrows) {
  CharmFixture f;
  auto proxy = f.rt->create<Receiver>(5);
  EXPECT_THROW(proxy.sendFrom<&Receiver::simple>(-1, 1, 2.0), std::invalid_argument);
  EXPECT_THROW(proxy.sendFrom<&Receiver::simple>(f.rt->numPes(), 1, 2.0),
               std::invalid_argument);
}

// A ck::Buffer entry whose post entry was never registered.
struct UnpostedReceiver : ck::Chare {
  void recv(ck::Buffer, std::uint64_t) { ++calls; }
  int calls = 0;
};

TEST(CharmChecks, MissingPostEntryThrows) {
  CharmFixture f;
  std::vector<std::byte> src(256);
  auto proxy = f.rt->create<UnpostedReceiver>(1);
  f.rt->startOn(0, [&] {
    proxy.send<&UnpostedReceiver::recv>(ck::Buffer(src.data(), src.size()), std::uint64_t{0});
  });
  expectThrowNaming<std::logic_error>([&] { f.sys->engine.run(); }, "setPostEntry");
  EXPECT_EQ(proxy.local()->calls, 0);
}

// A post entry that leaves every destination unset.
struct CarelessReceiver : ck::Chare {
  void recvPost(std::span<ck::Buffer>) {}
  void recv(ck::Buffer, std::uint64_t) { ++calls; }
  int calls = 0;
};

TEST(CharmChecks, PostEntryWithoutDestinationThrows) {
  ck::setPostEntry<&CarelessReceiver::recv, &CarelessReceiver::recvPost>();
  // A packed host payload and a rendezvous device payload: both need one.
  auto run = [](bool device) {
    CharmFixture f;
    constexpr std::size_t n = 64 * 1024;
    std::vector<std::byte> host(256);
    cuda::DeviceBuffer dev(*f.sys, 0, n);
    auto proxy = f.rt->create<CarelessReceiver>(6);
    f.rt->startOn(0, [&] {
      if (device) {
        proxy.send<&CarelessReceiver::recv>(ck::Buffer(dev.get(), n), std::uint64_t{0});
      } else {
        proxy.send<&CarelessReceiver::recv>(ck::Buffer(host.data(), 256), std::uint64_t{0});
      }
    });
    expectThrowNaming<std::logic_error>([&] { f.sys->engine.run(); }, "destination");
    EXPECT_EQ(proxy.local()->calls, 0);
  };
  run(false);
  run(true);
}

// SMP mode smoke: the comm-thread build must stay functionally identical.
struct Token : ck::Chare {
  void token(int v) { got = v; }
  int got = -1;
};

TEST(SmpMode, FunctionallyIdenticalJustSlower) {
  auto run = [](bool smp) {
    model::Model m = model::summit(2);
    m.costs.smp_comm_thread = smp;
    hw::System sys(m.machine);
    ucx::Context ctx(sys, m.ucx);
    ck::Runtime rt(sys, ctx, m);
    // One chare per PE (12 on two nodes), all messaged from PE 0.
    std::vector<ck::Proxy<Token>> chares;
    for (int pe = 0; pe < rt.numPes(); ++pe) chares.push_back(rt.create<Token>(pe));
    rt.startOn(0, [&] {
      for (std::size_t i = 0; i < chares.size(); ++i) {
        chares[i].send<&Token::token>(100 + static_cast<int>(i));
      }
    });
    sys.engine.run();
    for (std::size_t i = 0; i < chares.size(); ++i) {
      EXPECT_EQ(chares[i].local()->got, 100 + static_cast<int>(i));
    }
    return sim::toUs(sys.engine.now());
  };
  const double plain = run(false);
  const double smp = run(true);
  EXPECT_GT(smp, plain);  // comm-thread hops cost time
}

}  // namespace
