/// The paper's Section VI, runnable: both improvements its conclusion
/// proposes for the metadata-exchange limitation ("the delay in posting the
/// receive caused by the need to wait for the host-side message").
///
///  * user-provided tags — sender and receiver agree on a tag value, so the
///    receive is pre-posted before any metadata travels;
///  * GPU-capable active messages — the receiver registers an allocator, so
///    even an unannounced rendezvous payload starts moving at RTS arrival.
///
/// Build & run:  ./build/examples/future_work

#include <cstdio>
#include <cstring>

#include "converse/converse.hpp"
#include "core/device_comm.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "ucx/am.hpp"
#include "ucx/context.hpp"

using namespace cux;

int main() {
  model::Model m = model::summit(2);
  hw::System sys(m.machine);
  ucx::Context ucx(sys, m.ucx);
  cmi::Converse cmi(sys, ucx, m.costs);
  core::DeviceComm dev(cmi);
  ucx::ActiveMessages am(ucx);

  constexpr std::size_t kBytes = 256 * 1024;
  cuda::DeviceBuffer src(sys, 0, kBytes), dst_tag(sys, 6, kBytes), dst_am(sys, 6, kBytes);
  std::memset(src.get(), 0x42, kBytes);

  // --- user-provided tags: receive posted BEFORE the send exists ----------
  sim::TimePoint tag_done = 0;
  cmi.runOn(6, [&] {
    dev.lrtsRecvDeviceUserTag(6, dst_tag.ref(), kBytes, /*user_tag=*/0xBEEF,
                              core::DeviceRecvType::Charm,
                              [&] { tag_done = sys.engine.now(); });
    std::printf("[pe 6] receive pre-posted under user tag 0xBEEF at t=%.2f us\n",
                sim::toUs(sys.engine.now()));
  });
  cmi.runOn(0, [&] {
    core::CmiDeviceBuffer buf{src.ref(), kBytes, 0};
    dev.lrtsSendDeviceUserTag(0, 6, buf, 0xBEEF);
    std::printf("[pe 0] send issued; no metadata message needed\n");
  });
  sys.engine.run();
  std::printf("user-tag transfer complete at t=%.2f us (integrity %s)\n\n",
              sim::toUs(tag_done),
              std::memcmp(src.get(), dst_tag.get(), kBytes) == 0 ? "OK" : "FAILED");

  // --- active messages: allocator supplies the buffer at match time -------
  sim::TimePoint am_start = sys.engine.now();
  sim::TimePoint am_done = 0;
  am.registerAm(6, /*id=*/7,
                [&](std::uint64_t len, int from) {
                  std::printf("[pe 6] AM allocator: %llu bytes from pe %d at t=%.2f us\n",
                              static_cast<unsigned long long>(len), from,
                              sim::toUs(sys.engine.now()));
                  return dst_am.get();
                },
                [&](void*, std::uint64_t, int) { am_done = sys.engine.now(); });
  cmi.runOn(0, [&] { am.amSend(0, 6, 7, src.get(), kBytes); });
  sys.engine.run();
  std::printf("active-message transfer complete in %.2f us (integrity %s)\n",
              sim::toUs(am_done - am_start),
              std::memcmp(src.get(), dst_am.get(), kBytes) == 0 ? "OK" : "FAILED");
  std::printf("\nRun ./build/bench/ext_futurework for the quantified comparison\n"
              "against the paper's baseline metadata-exchange design.\n");
  return 0;
}
