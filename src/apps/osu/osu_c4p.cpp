#include <memory>

#include "apps/osu/osu.hpp"
#include "charm4py/charm4py.hpp"
#include "hw/cuda.hpp"
#include "ucx/context.hpp"

/// OSU latency/bandwidth adapted to Charm4py channels (paper Sec. III-D and
/// Fig. 8): coroutines exchanging messages through a channel, either GPU-
/// aware (buffers handed to the channel directly) or host-staging (explicit
/// charm.lib CUDA copies around host-buffer channel traffic).

namespace cux::osu::detail {

namespace {

struct C4pEnv {
  std::size_t bytes = 0;
  int iters = 0, warmup = 0, window = 0;
  Mode mode = Mode::Device;
  c4p::Charm4py* py = nullptr;
  c4p::ChannelEnd* ends[2] = {nullptr, nullptr};
  int pes[2] = {0, 1};
  hw::MemRef d_buf[2];
  cuda::HostBuffer h_buf[2];
  std::unique_ptr<cuda::Stream> stream[2];
  double result = 0;
};

sim::FutureTask c4pLatencyMain(C4pEnv* env, int side) {
  c4p::Charm4py& py = *env->py;
  c4p::ChannelEnd* ch = env->ends[side];
  const int pe = env->pes[side];
  const std::size_t n = env->bytes;
  const bool client = side == 0;
  hw::System& sys = py.system();
  double t0 = 0;

  for (int it = 0; it < env->warmup + env->iters; ++it) {
    if (client && it == env->warmup) {
      t0 = sim::toUs(sys.engine.now());
      sys.obs.markIteration(sys.engine.now());
    }
    if (env->mode == Mode::Device) {
      // gpu_direct branch of paper Fig. 8.
      if (client) {
        co_await ch->send(env->d_buf[side].ptr, n);
        co_await ch->recv(env->d_buf[side].ptr, n);
      } else {
        co_await ch->recv(env->d_buf[side].ptr, n);
        co_await ch->send(env->d_buf[side].ptr, n);
      }
    } else {
      // Host-staging branch of paper Fig. 8.
      if (client) {
        py.cudaDtoH(pe, env->h_buf[side].ref(), env->d_buf[side], n, *env->stream[side]);
        co_await py.streamSynchronize(pe, *env->stream[side]);
        co_await ch->send(env->h_buf[side].get(), n);
        co_await ch->recv(env->h_buf[side].get(), n);
        py.cudaHtoD(pe, env->d_buf[side], env->h_buf[side].ref(), n, *env->stream[side]);
        co_await py.streamSynchronize(pe, *env->stream[side]);
      } else {
        co_await ch->recv(env->h_buf[side].get(), n);
        py.cudaHtoD(pe, env->d_buf[side], env->h_buf[side].ref(), n, *env->stream[side]);
        co_await py.streamSynchronize(pe, *env->stream[side]);
        py.cudaDtoH(pe, env->h_buf[side].ref(), env->d_buf[side], n, *env->stream[side]);
        co_await py.streamSynchronize(pe, *env->stream[side]);
        co_await ch->send(env->h_buf[side].get(), n);
      }
    }
    if (client && it >= env->warmup) sys.obs.markIteration(sys.engine.now());
  }
  if (client) {
    env->result = (sim::toUs(sys.engine.now()) - t0) / (2.0 * env->iters);
  }
}

sim::FutureTask c4pBandwidthMain(C4pEnv* env, int side) {
  c4p::Charm4py& py = *env->py;
  c4p::ChannelEnd* ch = env->ends[side];
  const int pe = env->pes[side];
  const std::size_t n = env->bytes;
  const bool client = side == 0;
  hw::System& sys = py.system();
  int ack = 0;
  double t0 = 0;
  std::vector<sim::Future<void>> sends;
  sends.reserve(static_cast<std::size_t>(env->window));

  for (int it = 0; it < env->warmup + env->iters; ++it) {
    if (client && it == env->warmup) t0 = sim::toUs(sys.engine.now());
    if (client) {
      sends.clear();
      for (int w = 0; w < env->window; ++w) {
        if (env->mode == Mode::HostStaging) {
          py.cudaDtoH(pe, env->h_buf[side].ref(), env->d_buf[side], n, *env->stream[side]);
          co_await py.streamSynchronize(pe, *env->stream[side]);
          sends.push_back(ch->send(env->h_buf[side].get(), n));
        } else {
          sends.push_back(ch->send(env->d_buf[side].ptr, n));
        }
      }
      co_await sim::allOf(sends);
      co_await ch->recv(&ack, sizeof ack);
    } else {
      // channel.recv suspends the coroutine (charm4py semantics), so window
      // receives complete strictly one after another — this serialisation is
      // what caps Charm4py's bandwidth below the other models (Sec. IV-B2).
      void* dst = env->mode == Mode::Device ? env->d_buf[side].ptr : env->h_buf[side].get();
      for (int w = 0; w < env->window; ++w) co_await ch->recv(dst, n);
      if (env->mode == Mode::HostStaging) {
        py.cudaHtoD(pe, env->d_buf[side], env->h_buf[side].ref(), n, *env->stream[side]);
        co_await py.streamSynchronize(pe, *env->stream[side]);
      }
      co_await ch->send(&ack, sizeof ack);
    }
  }
  if (client) {
    const double elapsed_us = sim::toUs(sys.engine.now()) - t0;
    const double total = static_cast<double>(n) * env->window * env->iters;
    env->result = total / elapsed_us;
  }
}

struct C4pFixture {
  C4pFixture(const BenchConfig& cfg, std::size_t bytes) {
    model::Model m = cfg.model;
    m.machine.backed_device_memory = false;
    sys = std::make_unique<hw::System>(m.machine);
    if (cfg.observe) sys->obs.spans.enableStreaming();
    if (cfg.setup) cfg.setup(*sys);
    ctx = std::make_unique<ucx::Context>(*sys, m.ucx);
    rt = std::make_unique<ck::Runtime>(*sys, *ctx, m);
    py = std::make_unique<c4p::Charm4py>(*rt);

    auto [a, b] = pickPes(cfg);
    auto ch = py->makeChannel(a, b);
    env.py = py.get();
    env.bytes = bytes;
    env.iters = cfg.iters;
    env.warmup = cfg.warmup;
    env.window = cfg.window;
    env.mode = cfg.mode;
    env.ends[0] = ch.a;
    env.ends[1] = ch.b;
    env.pes[0] = a;
    env.pes[1] = b;
    for (int s = 0; s < 2; ++s) {
      env.d_buf[s] = cuda::deviceAlloc(*sys, env.pes[s], bytes);
      if (cfg.mode == Mode::HostStaging) env.h_buf[s] = cuda::HostBuffer(*sys, bytes);
      env.stream[s] = std::make_unique<cuda::Stream>(*sys, env.pes[s]);
    }
  }

  std::unique_ptr<hw::System> sys;
  std::unique_ptr<ucx::Context> ctx;
  std::unique_ptr<ck::Runtime> rt;
  std::unique_ptr<c4p::Charm4py> py;
  C4pEnv env;
};

}  // namespace

double c4pLatency(const BenchConfig& cfg, std::size_t bytes) {
  C4pFixture f(cfg, bytes);
  f.py->startOn(f.env.pes[0], [&] { (void)c4pLatencyMain(&f.env, 0); });
  f.py->startOn(f.env.pes[1], [&] { (void)c4pLatencyMain(&f.env, 1); });
  f.sys->engine.run();
  if (cfg.inspect) cfg.inspect(*f.sys);
  return f.env.result;
}

double c4pBandwidth(const BenchConfig& cfg, std::size_t bytes) {
  C4pFixture f(cfg, bytes);
  f.py->startOn(f.env.pes[0], [&] { (void)c4pBandwidthMain(&f.env, 0); });
  f.py->startOn(f.env.pes[1], [&] { (void)c4pBandwidthMain(&f.env, 1); });
  f.sys->engine.run();
  if (cfg.inspect) cfg.inspect(*f.sys);
  return f.env.result;
}

}  // namespace cux::osu::detail
