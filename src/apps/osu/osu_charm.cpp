#include <memory>

#include "apps/osu/osu.hpp"
#include "charm/charm.hpp"
#include "hw/cuda.hpp"
#include "ucx/context.hpp"

/// OSU latency/bandwidth adapted to Charm++ (paper Sec. IV-B): the ping-pong
/// and windowed-send benchmarks re-expressed in message-driven style, with
/// entry-method invocations carrying ck::Buffer (CkDeviceBuffer) parameters
/// and post entry methods supplying destinations.

namespace cux::osu::detail {

namespace {

struct CharmEnv {
  std::size_t bytes = 0;
  int iters = 0, warmup = 0, window = 0;
  Mode mode = Mode::Device;
  double result = 0;  // us (latency) or MB/s (bandwidth)
};

struct OsuChare : ck::Chare {
  // --- common state -------------------------------------------------------
  CharmEnv* env = nullptr;
  ck::Proxy<OsuChare> peer;
  bool client = false;
  hw::MemRef d_buf;
  cuda::HostBuffer h_buf;
  std::unique_ptr<cuda::Stream> stream;
  int it = 0;
  int window_got = 0;
  sim::TimePoint t0 = 0;

  [[nodiscard]] void* recvDst() {
    return env->mode == Mode::Device ? d_buf.ptr : h_buf.get();
  }
  [[nodiscard]] hw::System& sys() { return ckRuntime().system(); }

  void post(std::span<ck::Buffer> bufs) {
    for (auto& b : bufs) b.setDestination(recvDst(), env->bytes);
  }

  // --- latency ------------------------------------------------------------
  void latStart() {
    it = 0;
    latSendPing();
  }

  void latSendPing() {
    if (it == env->warmup) {
      t0 = sys().engine.now();
      sys().obs.markIteration(t0);  // iteration-window start for critical-path attribution
    }
    if (env->mode == Mode::Device) {
      peer.sendFrom<&OsuChare::latPing>(myPe(), ck::Buffer(d_buf.ptr, env->bytes));
    } else {
      stream->memcpyAsync(h_buf.ref(), d_buf, env->bytes, cuda::MemcpyKind::DeviceToHost);
      stream->synchronize().onReady([this] {
        peer.sendFrom<&OsuChare::latPing>(myPe(), ck::Buffer(h_buf.get(), env->bytes));
      });
    }
  }

  void latPing(ck::Buffer) {
    // Server side: un-stage if needed, then echo.
    if (env->mode == Mode::Device) {
      peer.sendFrom<&OsuChare::latPong>(myPe(), ck::Buffer(d_buf.ptr, env->bytes));
      return;
    }
    stream->memcpyAsync(d_buf, h_buf.ref(), env->bytes, cuda::MemcpyKind::HostToDevice);
    stream->memcpyAsync(h_buf.ref(), d_buf, env->bytes, cuda::MemcpyKind::DeviceToHost);
    stream->synchronize().onReady([this] {
      peer.sendFrom<&OsuChare::latPong>(myPe(), ck::Buffer(h_buf.get(), env->bytes));
    });
  }

  void latPong(ck::Buffer) {
    // Client side: un-stage if needed, then count the iteration.
    if (env->mode == Mode::Device) {
      latIterDone();
      return;
    }
    stream->memcpyAsync(d_buf, h_buf.ref(), env->bytes, cuda::MemcpyKind::HostToDevice);
    stream->synchronize().onReady([this] { latIterDone(); });
  }

  void latIterDone() {
    ++it;
    if (it > env->warmup) sys().obs.markIteration(sys().engine.now());
    if (it < env->warmup + env->iters) {
      latSendPing();
    } else {
      env->result = sim::toUs(sys().engine.now() - t0) / (2.0 * env->iters);
    }
  }

  // --- bandwidth ----------------------------------------------------------
  void bwStart() {
    it = 0;
    bwSendWindow();
  }

  void bwSendWindow() {
    if (it == env->warmup) t0 = sys().engine.now();
    if (env->mode == Mode::Device) {
      for (int w = 0; w < env->window; ++w) {
        peer.sendFrom<&OsuChare::bwData>(myPe(), ck::Buffer(d_buf.ptr, env->bytes));
      }
    } else {
      // Per-message staging through the (serialising) stream, as the OSU -H
      // adaptations do.
      for (int w = 0; w < env->window; ++w) {
        stream->memcpyAsync(h_buf.ref(), d_buf, env->bytes, cuda::MemcpyKind::DeviceToHost);
        stream->synchronize().onReady([this] {
          peer.sendFrom<&OsuChare::bwData>(myPe(), ck::Buffer(h_buf.get(), env->bytes));
        });
      }
    }
  }

  void bwData(ck::Buffer) {
    if (++window_got < env->window) return;
    window_got = 0;
    if (env->mode == Mode::Device) {
      peer.sendFrom<&OsuChare::bwAck>(myPe(), 1);
      return;
    }
    stream->memcpyAsync(d_buf, h_buf.ref(), env->bytes, cuda::MemcpyKind::HostToDevice);
    stream->synchronize().onReady([this] { peer.sendFrom<&OsuChare::bwAck>(myPe(), 1); });
  }

  void bwAck(int) {
    if (++it < env->warmup + env->iters) {
      bwSendWindow();
    } else {
      const double elapsed_us = sim::toUs(sys().engine.now() - t0);
      const double total = static_cast<double>(env->bytes) * env->window * env->iters;
      env->result = total / elapsed_us;  // bytes/us == MB/s
    }
  }
};

struct Registrar {
  Registrar() {
    ck::setPostEntry<&OsuChare::latPing, &OsuChare::post>();
    ck::setPostEntry<&OsuChare::latPong, &OsuChare::post>();
    ck::setPostEntry<&OsuChare::bwData, &OsuChare::post>();
  }
};

struct CharmFixture {
  CharmFixture(const BenchConfig& cfg, std::size_t bytes) {
    static Registrar registrar;
    model::Model m = cfg.model;
    m.machine.backed_device_memory = false;
    sys = std::make_unique<hw::System>(m.machine);
    if (cfg.observe) sys->obs.spans.enableStreaming();
    if (cfg.setup) cfg.setup(*sys);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    rt = std::make_unique<ck::Runtime>(*sys, *ctx, m);

    env.bytes = bytes;
    env.iters = cfg.iters;
    env.warmup = cfg.warmup;
    env.window = cfg.window;
    env.mode = cfg.mode;

    auto [a, b] = pickPes(cfg);
    client = rt->create<OsuChare>(a);
    server = rt->create<OsuChare>(b);
    init(*client.local(), a, server);
    init(*server.local(), b, client);
    client.local()->client = true;
  }

  void init(OsuChare& c, int pe, ck::Proxy<OsuChare> peer) {
    c.env = &env;
    c.peer = peer;
    c.d_buf = cuda::deviceAlloc(*sys, pe, env.bytes);
    if (env.mode == Mode::HostStaging) c.h_buf = cuda::HostBuffer(*sys, env.bytes);
    c.stream = std::make_unique<cuda::Stream>(*sys, pe);
  }

  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<ck::Runtime> rt;
  CharmEnv env;
  ck::Proxy<OsuChare> client, server;
};

}  // namespace

double charmLatency(const BenchConfig& cfg, std::size_t bytes) {
  CharmFixture f(cfg, bytes);
  f.rt->startOn(f.client.pe(), [&] { f.client.local()->latStart(); });
  f.sys->engine.run();
  if (cfg.inspect) cfg.inspect(*f.sys);
  return f.env.result;
}

double charmBandwidth(const BenchConfig& cfg, std::size_t bytes) {
  CharmFixture f(cfg, bytes);
  f.rt->startOn(f.client.pe(), [&] { f.client.local()->bwStart(); });
  f.sys->engine.run();
  if (cfg.inspect) cfg.inspect(*f.sys);
  return f.env.result;
}

}  // namespace cux::osu::detail
