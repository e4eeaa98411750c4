/// Charm4py-style channels: GPU-aware vs host-staging exchange.
///
/// A C++ rendering of the paper's Fig. 8: two chares establish a channel and
/// exchange GPU data either directly (gpu_direct) or staged through host
/// memory with explicit charm.lib CUDA copies. Every channel call pays the
/// modelled Python/Cython overhead, so the printed timings show both the
/// staging cost and the interpreter tax.
///
/// Build & run:  ./build/examples/charm4py_channels

#include <cstdio>
#include <cstring>

#include "charm4py/charm4py.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "ucx/context.hpp"

using namespace cux;

namespace {

constexpr std::size_t kBytes = 1u << 20;

sim::FutureTask exchange(c4p::Charm4py* py, c4p::ChannelEnd* channel, int pe, bool gpu_direct,
                         bool initiator, hw::MemRef d_data, hw::MemRef h_data, cuda::Stream* stream,
                         double* out_us) {
  hw::System& sys = py->system();
  const double t0 = sim::toUs(sys.engine.now());

  if (gpu_direct) {
    // GPU-aware: send and receive using GPU buffers directly (Fig. 8, else
    // branch).
    if (initiator) {
      co_await channel->send(d_data.ptr, kBytes);
      co_await channel->recv(d_data.ptr, kBytes);
    } else {
      co_await channel->recv(d_data.ptr, kBytes);
      co_await channel->send(d_data.ptr, kBytes);
    }
  } else {
    // Host-staging: explicit transfers between host and device around the
    // channel operations (Fig. 8, if branch).
    if (initiator) {
      py->cudaDtoH(pe, h_data, d_data, kBytes, *stream);
      co_await py->streamSynchronize(pe, *stream);
      co_await channel->send(h_data.ptr, kBytes);
      co_await channel->recv(h_data.ptr, kBytes);
      py->cudaHtoD(pe, d_data, h_data, kBytes, *stream);
      co_await py->streamSynchronize(pe, *stream);
    } else {
      co_await channel->recv(h_data.ptr, kBytes);
      py->cudaHtoD(pe, d_data, h_data, kBytes, *stream);
      co_await py->streamSynchronize(pe, *stream);
      py->cudaDtoH(pe, h_data, d_data, kBytes, *stream);
      co_await py->streamSynchronize(pe, *stream);
      co_await channel->send(h_data.ptr, kBytes);
    }
  }
  if (out_us != nullptr) *out_us = sim::toUs(sys.engine.now()) - t0;
}

double runOnce(bool gpu_direct, bool check_integrity) {
  model::Model m = model::summit(1);
  hw::System sys(m.machine);
  ucx::Context ucx(sys, m.ucx);
  ck::Runtime rt(sys, ucx, m);
  c4p::Charm4py py(rt);

  cuda::DeviceBuffer d0(sys, 0, kBytes), d1(sys, 3, kBytes);
  std::vector<std::byte> h0(kBytes), h1(kBytes);
  cuda::Stream s0(sys, 0), s1(sys, 3);
  std::memset(d0.get(), 0x5A, kBytes);
  std::memset(d1.get(), 0, kBytes);

  auto ch = py.makeChannel(0, 3);
  double rtt = 0;
  py.startOn(0, [&] {
    (void)exchange(&py, ch.a, 0, gpu_direct, true, d0.ref(), hw::MemRef::host(h0.data()), &s0,
                   &rtt);
  });
  py.startOn(3, [&] {
    (void)exchange(&py, ch.b, 3, gpu_direct, false, d1.ref(), hw::MemRef::host(h1.data()), &s1,
                   nullptr);
  });
  sys.engine.run();

  if (check_integrity && std::memcmp(d0.get(), d1.get(), kBytes) != 0) {
    std::printf("data integrity FAILED\n");
  }
  return rtt;
}

}  // namespace

int main() {
  const double direct = runOnce(/*gpu_direct=*/true, true);
  const double staged = runOnce(/*gpu_direct=*/false, true);
  std::printf("channel round trip of %zu bytes between two GPUs (one node):\n", kBytes);
  std::printf("  gpu_direct   : %8.2f us\n", direct);
  std::printf("  host-staging : %8.2f us  (%.1fx slower)\n", staged, staged / direct);
  std::printf("\nThe GPU-aware path hands device pointers to the channel; the host-staging\n"
              "path pays two CUDA copies and Python buffer serialisation per direction.\n");
  return 0;
}
