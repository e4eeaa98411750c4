#include "hw/machine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace cux::hw {

namespace {
// Per-node link layout (B = nvlink_bricks, R = nic_rails; with B = R = 1
// this is byte-for-byte the historical single-route layout):
//   [0 .. G*B)             gpu up, brick-major within a GPU (g*B + b)
//   [G*B .. 2*G*B)         gpu down
//   [2GB .. 2GB+S)         xbus from socket s (S = sockets_per_node)
//   [2GB+S .. 2GB+S+R)     nic up, rail r
//   [2GB+S+R .. 2GB+S+2R)  nic down, rail r
//   [2GB+S+2R]             shm copy engine
}  // namespace

Machine::Machine(const MachineConfig& cfg) : cfg_(cfg) {
  // Caller input: checked in every build type.
  if (cfg_.num_nodes < 1) throw std::invalid_argument("Machine: need at least one node");
  if (cfg_.gpus_per_node < 1) throw std::invalid_argument("Machine: need at least one GPU per node");
  if (cfg_.sockets_per_node < 1) {
    throw std::invalid_argument("Machine: need at least one socket per node");
  }
  if (cfg_.gpus_per_node % cfg_.sockets_per_node != 0) {
    throw std::invalid_argument("Machine: GPUs must divide evenly across sockets");
  }
  if (cfg_.nvlink_bricks < 1) {
    throw std::invalid_argument("Machine: need at least one NVLink brick per GPU");
  }
  if (cfg_.nic_rails < 1) throw std::invalid_argument("Machine: need at least one NIC rail per node");
  const int bricks = cfg_.nvlink_bricks;
  const int rails = cfg_.nic_rails;
  links_.reserve(perNodeLinks() * cfg_.num_nodes);
  // Single-brick/single-rail names keep their historical un-suffixed form
  // ("gpu0.up", "nic.up") so default-config traces stay bit-identical.
  const auto brickTag = [bricks](int b) {
    return bricks == 1 ? std::string{} : ".b" + std::to_string(b);
  };
  const auto railTag = [rails](int r) {
    return rails == 1 ? std::string{} : std::to_string(r);
  };
  for (int n = 0; n < cfg_.num_nodes; ++n) {
    const std::string prefix = "n" + std::to_string(n) + ".";
    for (int g = 0; g < cfg_.gpus_per_node; ++g)
      for (int b = 0; b < bricks; ++b)
        links_.emplace_back(prefix + "gpu" + std::to_string(g) + brickTag(b) + ".up",
                            cfg_.nvlink);
    for (int g = 0; g < cfg_.gpus_per_node; ++g)
      for (int b = 0; b < bricks; ++b)
        links_.emplace_back(prefix + "gpu" + std::to_string(g) + brickTag(b) + ".down",
                            cfg_.nvlink);
    for (int s = 0; s < cfg_.sockets_per_node; ++s)
      links_.emplace_back(prefix + "xbus" + std::to_string(s), cfg_.xbus);
    for (int r = 0; r < rails; ++r)
      links_.emplace_back(prefix + "nic" + railTag(r) + ".up", cfg_.ib);
    for (int r = 0; r < rails; ++r)
      links_.emplace_back(prefix + "nic" + railTag(r) + ".down", cfg_.ib);
    links_.emplace_back(prefix + "shm", cfg_.shm);
  }
  compute_.resize(static_cast<std::size_t>(cfg_.num_nodes) * cfg_.gpus_per_node);
}

std::size_t Machine::perNodeLinks() const noexcept {
  return 2 * static_cast<std::size_t>(cfg_.gpus_per_node) * cfg_.nvlink_bricks +
         cfg_.sockets_per_node + 2 * static_cast<std::size_t>(cfg_.nic_rails) + 1;
}
std::size_t Machine::gpuUpIdx(GpuId g, int brick) const noexcept {
  assert(brick >= 0 && brick < cfg_.nvlink_bricks);
  return perNodeLinks() * g.node +
         static_cast<std::size_t>(g.local) * cfg_.nvlink_bricks + brick;
}
std::size_t Machine::gpuDownIdx(GpuId g, int brick) const noexcept {
  assert(brick >= 0 && brick < cfg_.nvlink_bricks);
  return perNodeLinks() * g.node +
         static_cast<std::size_t>(cfg_.gpus_per_node + g.local) * cfg_.nvlink_bricks + brick;
}
std::size_t Machine::xbusIdx(int node, int from_socket) const noexcept {
  return perNodeLinks() * node +
         2 * static_cast<std::size_t>(cfg_.gpus_per_node) * cfg_.nvlink_bricks + from_socket;
}
std::size_t Machine::nicUpIdx(int node, int rail) const noexcept {
  assert(rail >= 0 && rail < cfg_.nic_rails);
  return xbusIdx(node, cfg_.sockets_per_node) + rail;
}
std::size_t Machine::nicDownIdx(int node, int rail) const noexcept {
  return nicUpIdx(node, 0) + cfg_.nic_rails + rail;
}
std::size_t Machine::shmIdx(int node) const noexcept {
  return nicUpIdx(node, 0) + 2 * static_cast<std::size_t>(cfg_.nic_rails);
}

Path Machine::deviceToDevicePath(int src_pe, int dst_pe) {
  const GpuId src = gpuOfPe(src_pe);
  const GpuId dst = gpuOfPe(dst_pe);
  Path path;
  if (src.node == dst.node) {
    if (src.local == dst.local) return path;  // same device: no fabric traversal
    path.push_back(&gpuUp(src));
    const int ssock = cfg_.socketOf(src.local);
    const int dsock = cfg_.socketOf(dst.local);
    if (ssock != dsock) path.push_back(&xbus(src.node, ssock));
    path.push_back(&gpuDown(dst));
  } else {
    // Inter-node direct path (GPUDirect-RDMA-like): GPU egress, both NIC
    // directions, GPU ingress. The pipelined-staging protocol uses the same
    // links but in explicit chunks via the egress/ingress paths.
    path.push_back(&gpuUp(src));
    path.push_back(&nicUp(src.node));
    path.push_back(&nicDown(dst.node));
    path.push_back(&gpuDown(dst));
  }
  return path;
}

Path Machine::hostToHostPath(int src_pe, int dst_pe) {
  const int sn = nodeOfPe(src_pe);
  const int dn = nodeOfPe(dst_pe);
  Path path;
  if (sn == dn) {
    if (src_pe != dst_pe) path.push_back(&shm(sn));
  } else {
    path.push_back(&nicUp(sn));
    path.push_back(&nicDown(dn));
  }
  return path;
}

std::vector<Machine::Route> Machine::deviceRoutes(int src_pe, int dst_pe) {
  std::vector<Route> routes;
  const GpuId src = gpuOfPe(src_pe);
  const GpuId dst = gpuOfPe(dst_pe);
  if (src == dst) return routes;  // same device: nothing to route
  const int bricks = cfg_.nvlink_bricks;

  if (src.node != dst.node) {
    // Inter-node: one GPUDirect-style route per NIC rail. Rails stripe
    // across NVLink bricks so that with bricks >= rails no two rails
    // contend on the same GPU brick.
    routes.reserve(static_cast<std::size_t>(cfg_.nic_rails));
    for (int r = 0; r < cfg_.nic_rails; ++r) {
      Route route;
      route.kind = "rail";
      route.rail = r;
      const int b = r % bricks;
      route.path.push_back(&gpuUp(src, b));
      route.path.push_back(&nicUp(src.node, r));
      route.path.push_back(&nicDown(dst.node, r));
      route.path.push_back(&gpuDown(dst, b));
      routes.push_back(route);
    }
    return routes;
  }

  const int ssock = cfg_.socketOf(src.local);
  const int dsock = cfg_.socketOf(dst.local);

  // Direct NVLink-peer route on brick 0 — identical links to the
  // single-route deviceToDevicePath.
  {
    Route route;
    route.kind = "direct";
    route.path.push_back(&gpuUp(src, 0));
    if (ssock != dsock) route.path.push_back(&xbus(src.node, ssock));
    route.path.push_back(&gpuDown(dst, 0));
    routes.push_back(route);
  }

  // Neighbor-staged route: bytes leave the source on a spare brick, land in
  // a neighbor GPU's memory, and leave again towards the destination. The
  // neighbor is the lowest local index other than src and dst, preferring
  // the source's socket (no X-Bus crossing on the first hop).
  int mid_local = -1;
  for (int l = 0; l < cfg_.gpus_per_node; ++l) {
    if (l == src.local || l == dst.local) continue;
    if (cfg_.socketOf(l) == ssock) {
      mid_local = l;
      break;
    }
    if (mid_local < 0) mid_local = l;
  }
  if (mid_local >= 0) {
    const GpuId mid{src.node, mid_local};
    const int msock = cfg_.socketOf(mid_local);
    // The staged route rides brick min(1, B-1) on every hop, so with
    // bricks >= 2 it never serialises with the direct route's brick 0.
    const int b = std::min(1, bricks - 1);
    Route route;
    route.kind = "staged";
    route.path.push_back(&gpuUp(src, b));
    if (ssock != msock) route.path.push_back(&xbus(src.node, ssock));
    route.path.push_back(&gpuDown(mid, b));
    route.path.push_back(&gpuUp(mid, b));
    if (msock != dsock) route.path.push_back(&xbus(src.node, msock));
    route.path.push_back(&gpuDown(dst, b));
    routes.push_back(route);
  }
  return routes;
}

sim::TimePoint Machine::transfer(const Path& path, sim::TimePoint now, std::uint64_t bytes) {
  if (path.empty()) return now;
  // Wormhole model: head_i = when the message head reaches link i's input;
  // each link is busy for bytes/bw from max(head, link.free); the tail's
  // arrival is bounded below by every link's drain time plus the latencies
  // of the links that follow it.
  sim::TimePoint head = now;
  sim::TimePoint completion = 0;
  std::array<sim::TimePoint, Path::kMaxLinks> drain{};
  for (std::size_t i = 0; i < path.size(); ++i) {
    Link& link = *path[i];
    const sim::TimePoint start = head > link.freeAt() ? head : link.freeAt();
    const sim::Duration busy = sim::transferTime(bytes, link.params().bandwidth_gbps);
    drain[i] = start + busy;
    head = start + sim::usec(link.params().latency_us);
    link.setFreeAt(drain[i]);
    link.recordBusy(start, drain[i]);
  }
  // Tail arrival: each link's drain time still has to traverse its own
  // latency plus the latency of all downstream links.
  sim::Duration rest = 0;
  for (std::size_t i = path.size(); i-- > 0;) {
    rest += sim::usec(path[i]->params().latency_us);
    const sim::TimePoint candidate = drain[i] + rest;
    if (candidate > completion) completion = candidate;
  }
  return completion;
}

sim::TimePoint Machine::ctrlTransfer(const Path& path, sim::TimePoint now,
                                     std::uint64_t bytes) {
  sim::TimePoint t = now;
  for (const Link* link : path) {
    t += sim::usec(link->params().latency_us) +
         sim::transferTime(bytes, link->params().bandwidth_gbps);
  }
  return t;
}

void Machine::attachUtil(UtilRecorder& u) {
  // Classify by walking the same per-node layout the constructor built (see
  // the layout comment at the top of this file): GPU up/down links are
  // NVLink bricks, then X-Bus, NIC rails, and the shm copy engine.
  for (int n = 0; n < cfg_.num_nodes; ++n) {
    for (int g = 0; g < cfg_.gpus_per_node; ++g)
      for (int b = 0; b < cfg_.nvlink_bricks; ++b) {
        Link& up = gpuUp(GpuId{n, g}, b);
        up.attachUtil(&u, u.addResource(up.name(), ResClass::NvLink));
        Link& down = gpuDown(GpuId{n, g}, b);
        down.attachUtil(&u, u.addResource(down.name(), ResClass::NvLink));
      }
    for (int s = 0; s < cfg_.sockets_per_node; ++s) {
      Link& x = xbus(n, s);
      x.attachUtil(&u, u.addResource(x.name(), ResClass::XBus));
    }
    for (int r = 0; r < cfg_.nic_rails; ++r) {
      Link& up = nicUp(n, r);
      up.attachUtil(&u, u.addResource(up.name(), ResClass::Nic));
      Link& down = nicDown(n, r);
      down.attachUtil(&u, u.addResource(down.name(), ResClass::Nic));
    }
    Link& s = shm(n);
    s.attachUtil(&u, u.addResource(s.name(), ResClass::Shm));
    for (int g = 0; g < cfg_.gpus_per_node; ++g) {
      const std::string cname = "n" + std::to_string(n) + ".gpu" + std::to_string(g) + ".sm";
      gpuCompute(GpuId{n, g}).attachUtil(&u, u.addResource(cname, ResClass::GpuCompute));
    }
  }
}

}  // namespace cux::hw
