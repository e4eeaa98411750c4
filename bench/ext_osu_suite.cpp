#include <cstdio>

#include "apps/osu/osu.hpp"
#include "trace_pin.hpp"

/// Extension bench: the rest of the OSU suite beyond the figures the paper
/// plots — bidirectional bandwidth (osu_bibw) and multi-pair latency
/// (osu_multi_lat) for AMPI and the OpenMPI baseline, GPU-aware vs staged.

int main() {
  using namespace cux;
  auto cfg = [](osu::Stack s, osu::Mode m, osu::Placement p) {
    osu::BenchConfig c;
    c.stack = s;
    c.mode = m;
    c.place = p;
    c.iters = 15;
    c.warmup = 3;
    c.window = 32;
    c.sizes = {4096, 65536, 1u << 20, 4u << 20};
    return bench::pinned(c);
  };

  std::printf("# osu_bibw: bidirectional bandwidth (MB/s), inter-node\n");
  std::printf("%-10s %12s %12s %12s %12s\n", "size", "AMPI-H", "AMPI-D", "OpenMPI-H",
              "OpenMPI-D");
  {
    const auto ah = osu::runBiBandwidth(cfg(osu::Stack::Ampi, osu::Mode::HostStaging,
                                            osu::Placement::InterNode));
    const auto ad = osu::runBiBandwidth(cfg(osu::Stack::Ampi, osu::Mode::Device,
                                            osu::Placement::InterNode));
    const auto oh = osu::runBiBandwidth(cfg(osu::Stack::Ompi, osu::Mode::HostStaging,
                                            osu::Placement::InterNode));
    const auto od = osu::runBiBandwidth(cfg(osu::Stack::Ompi, osu::Mode::Device,
                                            osu::Placement::InterNode));
    for (std::size_t i = 0; i < ah.size(); ++i) {
      std::printf("%-10zu %12.1f %12.1f %12.1f %12.1f\n", ah[i].bytes, ah[i].value,
                  ad[i].value, oh[i].value, od[i].value);
    }
  }

  std::printf("\n# osu_multi_lat: average one-way latency (us) with 6 concurrent\n"
              "# pairs across two nodes (full NIC pressure)\n");
  std::printf("%-10s %12s %12s\n", "size", "AMPI-D", "OpenMPI-D");
  {
    const auto a = osu::runMultiLatency(cfg(osu::Stack::Ampi, osu::Mode::Device,
                                            osu::Placement::InterNode));
    const auto o = osu::runMultiLatency(cfg(osu::Stack::Ompi, osu::Mode::Device,
                                            osu::Placement::InterNode));
    for (std::size_t i = 0; i < a.size(); ++i) {
      std::printf("%-10zu %12.2f %12.2f\n", a[i].bytes, a[i].value, o[i].value);
    }
  }
  std::printf("\nBidirectional traffic shares each NVLink/NIC direction pair; multi-pair\n"
              "latency shows NIC serialisation under load.\n");
  return 0;
}
