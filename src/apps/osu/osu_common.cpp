#include "apps/osu/osu.hpp"

#include <stdexcept>
#include <string>

namespace cux::osu {

const char* name(Stack s) {
  switch (s) {
    case Stack::Charm:
      return "Charm++";
    case Stack::Ampi:
      return "AMPI";
    case Stack::Ompi:
      return "OpenMPI";
    case Stack::Charm4py:
      return "Charm4py";
  }
  return "?";
}

const char* suffix(Mode m) { return m == Mode::Device ? "D" : "H"; }

std::vector<std::size_t> defaultSizes() {
  std::vector<std::size_t> out;
  for (std::size_t s = 1; s <= (4u << 20); s <<= 1) out.push_back(s);
  return out;
}

double latencyPoint(const BenchConfig& cfg, std::size_t bytes) {
  switch (cfg.stack) {
    case Stack::Charm:
      return detail::charmLatency(cfg, bytes);
    case Stack::Ampi:
    case Stack::Ompi:
      return detail::mpiLatency(cfg, bytes);
    case Stack::Charm4py:
      return detail::c4pLatency(cfg, bytes);
  }
  return 0;
}

double bandwidthPoint(const BenchConfig& cfg, std::size_t bytes) {
  switch (cfg.stack) {
    case Stack::Charm:
      return detail::charmBandwidth(cfg, bytes);
    case Stack::Ampi:
    case Stack::Ompi:
      return detail::mpiBandwidth(cfg, bytes);
    case Stack::Charm4py:
      return detail::c4pBandwidth(cfg, bytes);
  }
  return 0;
}

std::vector<Point> runLatency(const BenchConfig& cfg) {
  const auto sizes = cfg.sizes.empty() ? defaultSizes() : cfg.sizes;
  std::vector<Point> out;
  out.reserve(sizes.size());
  for (std::size_t s : sizes) out.push_back({s, latencyPoint(cfg, s)});
  return out;
}

std::vector<Point> runBandwidth(const BenchConfig& cfg) {
  const auto sizes = cfg.sizes.empty() ? defaultSizes() : cfg.sizes;
  std::vector<Point> out;
  out.reserve(sizes.size());
  for (std::size_t s : sizes) out.push_back({s, bandwidthPoint(cfg, s)});
  return out;
}

namespace {

// osu_bibw and osu_multi_lat exist for the MPI stacks only. Any other stack
// would fall through to the MPI fixture, which builds an OpenMPI world for
// every stack but AMPI, and report OpenMPI numbers under the wrong name.
void requireMpiStack(const BenchConfig& cfg, const char* bench) {
  if (cfg.stack != Stack::Ampi && cfg.stack != Stack::Ompi)
    throw std::invalid_argument(std::string("osu: ") + bench +
                                " is implemented for the MPI stacks, not " + name(cfg.stack));
}

}  // namespace

std::vector<Point> runBiBandwidth(const BenchConfig& cfg) {
  requireMpiStack(cfg, "osu_bibw");
  const auto sizes = cfg.sizes.empty() ? defaultSizes() : cfg.sizes;
  std::vector<Point> out;
  out.reserve(sizes.size());
  for (std::size_t s : sizes) out.push_back({s, detail::mpiBiBandwidth(cfg, s)});
  return out;
}

std::vector<Point> runMultiLatency(const BenchConfig& cfg) {
  requireMpiStack(cfg, "osu_multi_lat");
  const auto sizes = cfg.sizes.empty() ? defaultSizes() : cfg.sizes;
  std::vector<Point> out;
  out.reserve(sizes.size());
  for (std::size_t s : sizes) out.push_back({s, detail::mpiMultiLatency(cfg, s)});
  return out;
}

namespace detail {

std::pair<int, int> pickPes(const BenchConfig& cfg) {
  const hw::MachineConfig& m = cfg.model.machine;
  if (cfg.place == Placement::IntraNode) {
    if (m.gpus_per_node < 2)
      throw std::invalid_argument("osu: intra-node placement needs >= 2 GPUs per node");
    return {0, 1};  // same socket, NVLink peers
  }
  if (m.num_nodes < 2)
    throw std::invalid_argument("osu: inter-node placement needs >= 2 nodes");
  return {0, m.gpus_per_node};  // PE 0 of node 0 and node 1
}

}  // namespace detail

}  // namespace cux::osu
