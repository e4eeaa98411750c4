#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/jacobi/jacobi.hpp"
#include "hw/cuda.hpp"
#include "hw/system.hpp"
#include "model/model.hpp"
#include "sim/rng.hpp"

namespace {

using namespace cux;

hw::MachineConfig summitCfg(int nodes) { return model::summit(nodes).machine; }

// --------------------------------------------------------------------------
// Topology / paths
// --------------------------------------------------------------------------

TEST(Machine, PeToGpuMapping) {
  hw::System sys(summitCfg(2));
  EXPECT_EQ(sys.machine.nodeOfPe(0), 0);
  EXPECT_EQ(sys.machine.nodeOfPe(5), 0);
  EXPECT_EQ(sys.machine.nodeOfPe(6), 1);
  EXPECT_EQ(sys.machine.gpuOfPe(7).node, 1);
  EXPECT_EQ(sys.machine.gpuOfPe(7).local, 1);
  EXPECT_TRUE(sys.machine.sameNode(0, 5));
  EXPECT_FALSE(sys.machine.sameNode(5, 6));
}

TEST(Machine, SocketAssignment) {
  hw::MachineConfig cfg = summitCfg(1);
  // 6 GPUs, 2 sockets: 0-2 on socket 0, 3-5 on socket 1 (Summit layout).
  EXPECT_EQ(cfg.socketOf(0), 0);
  EXPECT_EQ(cfg.socketOf(2), 0);
  EXPECT_EQ(cfg.socketOf(3), 1);
  EXPECT_EQ(cfg.socketOf(5), 1);
}

TEST(Machine, RejectsBadConfigInEveryBuild) {
  const auto bad = [](auto edit) {
    hw::MachineConfig cfg = summitCfg(2);
    edit(cfg);
    return cfg;
  };
  EXPECT_THROW(hw::Machine(bad([](hw::MachineConfig& c) { c.num_nodes = 0; })),
               std::invalid_argument);
  EXPECT_THROW(hw::Machine(bad([](hw::MachineConfig& c) { c.gpus_per_node = 0; })),
               std::invalid_argument);
  EXPECT_THROW(hw::Machine(bad([](hw::MachineConfig& c) { c.gpus_per_node = 5; })),
               std::invalid_argument);  // 5 GPUs over 2 sockets
  EXPECT_THROW(hw::Machine(bad([](hw::MachineConfig& c) { c.nvlink_bricks = 0; })),
               std::invalid_argument);
  EXPECT_THROW(hw::Machine(bad([](hw::MachineConfig& c) { c.nic_rails = 0; })),
               std::invalid_argument);
  // Last: before the check, a socket count of 0 is a modulo by zero.
  EXPECT_THROW(hw::Machine(bad([](hw::MachineConfig& c) { c.sockets_per_node = 0; })),
               std::invalid_argument);
  EXPECT_NO_THROW(hw::Machine(summitCfg(2)));
}

TEST(Machine, IntraSocketDevicePathSkipsXbus) {
  hw::System sys(summitCfg(1));
  auto path = sys.machine.deviceToDevicePath(0, 1);
  ASSERT_EQ(path.size(), 2u);  // gpu0.up, gpu1.down
  EXPECT_EQ(path[0]->name(), "n0.gpu0.up");
  EXPECT_EQ(path[1]->name(), "n0.gpu1.down");
}

TEST(Machine, CrossSocketDevicePathUsesXbus) {
  hw::System sys(summitCfg(1));
  auto path = sys.machine.deviceToDevicePath(0, 4);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1]->name(), "n0.xbus0");
}

TEST(Machine, InterNodeDevicePathUsesNics) {
  hw::System sys(summitCfg(2));
  auto path = sys.machine.deviceToDevicePath(0, 6);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(path[1]->name(), "n0.nic.up");
  EXPECT_EQ(path[2]->name(), "n1.nic.down");
}

TEST(Machine, SameDevicePathIsEmpty) {
  hw::System sys(summitCfg(1));
  EXPECT_TRUE(sys.machine.deviceToDevicePath(3, 3).empty());
  EXPECT_TRUE(sys.machine.hostToHostPath(3, 3).empty());
}

TEST(Machine, HostPathsIntraVsInter) {
  hw::System sys(summitCfg(2));
  auto intra = sys.machine.hostToHostPath(0, 1);
  ASSERT_EQ(intra.size(), 1u);
  EXPECT_EQ(intra[0]->name(), "n0.shm");
  auto inter = sys.machine.hostToHostPath(0, 6);
  ASSERT_EQ(inter.size(), 2u);
}

// --------------------------------------------------------------------------
// Link occupancy and the wormhole transfer model
// --------------------------------------------------------------------------

TEST(Link, ReserveSerialisesTransfers) {
  hw::Link link("l", {1.0, 1.0});  // 1 us latency, 1 GB/s => 1 ns per byte
  auto a1 = link.reserve(0, 1000);
  EXPECT_EQ(a1, sim::usec(1.0) + 1000);
  auto a2 = link.reserve(0, 1000);  // queued behind the first
  EXPECT_EQ(a2, 1000 + sim::usec(1.0) + 1000);
}

TEST(Machine, SingleLinkTransferCost) {
  hw::System sys(summitCfg(1));
  auto path = sys.machine.hostToHostPath(0, 1);
  const double shm_bw = sys.config.shm.bandwidth_gbps;
  const std::uint64_t bytes = 65000;
  auto arrival = sys.machine.transfer(path, 0, bytes);
  EXPECT_EQ(arrival, sim::usec(0.25) + sim::transferTime(bytes, shm_bw));
}

TEST(Machine, CutThroughDoesNotStoreAndForward) {
  // Inter-node host path: nicUp + nicDown, both 12.5 GB/s. Cut-through must
  // cost ~ one serialisation, not two.
  hw::System sys(summitCfg(2));
  auto path = sys.machine.hostToHostPath(0, 6);
  const std::uint64_t bytes = 4u << 20;
  auto arrival = sys.machine.transfer(path, 0, bytes);
  const double us = sim::toUs(arrival);
  const double one_pass = sim::toUs(sim::transferTime(bytes, 12.5));
  EXPECT_GT(us, one_pass);            // plus latencies
  EXPECT_LT(us, 1.15 * one_pass + 5);  // far less than two serialisations
}

TEST(Machine, BottleneckLinkDominates) {
  hw::System sys(summitCfg(2));
  // Device inter-node direct path: nvlink(50) + ib(12.5) + ib(12.5) + nvlink(50).
  auto path = sys.machine.deviceToDevicePath(0, 6);
  const std::uint64_t bytes = 8u << 20;
  auto arrival = sys.machine.transfer(path, 0, bytes);
  const double expected_min = sim::toUs(sim::transferTime(bytes, 12.5));
  EXPECT_GE(sim::toUs(arrival), expected_min);
  EXPECT_LT(sim::toUs(arrival), expected_min * 1.3);
}

TEST(Machine, ContentionSharesBandwidth) {
  hw::System sys(summitCfg(1));
  // Two transfers over the same shm link back-to-back take twice as long.
  auto p = sys.machine.hostToHostPath(0, 1);
  const std::uint64_t bytes = 1u << 20;
  auto a1 = sys.machine.transfer(p, 0, bytes);
  auto a2 = sys.machine.transfer(p, 0, bytes);
  EXPECT_GT(a2, a1);
  EXPECT_NEAR(sim::toUs(a2),
              2 * sim::toUs(sim::transferTime(bytes, sys.config.shm.bandwidth_gbps)) + 0.25,
              1.0);
}

// --------------------------------------------------------------------------
// Memory registry
// --------------------------------------------------------------------------

TEST(Memory, HostPointersClassifyAsHost) {
  hw::System sys(summitCfg(1));
  int x = 0;
  EXPECT_FALSE(sys.memory.classify(&x).isDevice());
  EXPECT_EQ(sys.memory.classify(&x).device, -1);
  EXPECT_TRUE(sys.memory.classify(&x).backed);
}

TEST(Memory, DeviceAllocClassifies) {
  hw::System sys(summitCfg(1));
  void* p = cuda::deviceAlloc(sys, 3, 4096, /*backed=*/true).ptr;
  EXPECT_TRUE(sys.memory.classify(p).isDevice());
  EXPECT_EQ(sys.memory.classify(p).device, 3);
  EXPECT_TRUE(sys.memory.classify(p).backed);
  // Interior pointers classify too.
  EXPECT_EQ(sys.memory.classify(static_cast<char*>(p) + 4095).device, 3);
  // One-past-end is not inside.
  EXPECT_EQ(sys.memory.classify(static_cast<char*>(p) + 4096).device, -1);
  cuda::deviceFree(sys, p);
  EXPECT_FALSE(sys.memory.classify(p).isDevice());
}

TEST(Memory, UnbackedAllocationsAreNotDereferenceable) {
  hw::System sys(summitCfg(1));
  void* p = cuda::deviceAlloc(sys, 0, 1u << 30, /*backed=*/false).ptr;  // 1 GB, address space only
  EXPECT_TRUE(sys.memory.classify(p).isDevice());
  EXPECT_FALSE(sys.memory.classify(p).backed);
  cuda::deviceFree(sys, p);
}

TEST(Memory, EveryAllocAndFreeBumpsTheEpochAndEveryLookupCounts) {
  hw::System sys(summitCfg(1));
  hw::MemoryRegistry& mem = sys.memory;
  std::uint64_t epoch = mem.epoch();
  void* d = mem.allocDevice(1, 256, /*backed=*/false);
  EXPECT_GT(mem.epoch(), epoch);
  epoch = mem.epoch();
  void* b = mem.allocDevice(2, 256, /*backed=*/true);
  EXPECT_GT(mem.epoch(), epoch);
  epoch = mem.epoch();
  void* h = mem.allocHostUnbacked(256);
  EXPECT_GT(mem.epoch(), epoch);

  epoch = mem.epoch();
  const std::uint64_t lookups = mem.lookups();
  int x = 0;
  const hw::MemRef rd = mem.classify(d);
  const hw::MemRef rb = mem.classify(b);
  const hw::MemRef rh = mem.classify(h);
  const hw::MemRef rx = mem.classify(&x);
  EXPECT_EQ(mem.lookups(), lookups + 4);
  EXPECT_EQ(mem.epoch(), epoch);  // lookups never move the epoch
  EXPECT_TRUE(rd.isDevice() && !rd.backed && rd.device == 1);
  EXPECT_TRUE(rb.isDevice() && rb.backed && rb.device == 2);
  EXPECT_TRUE(!rh.isDevice() && !rh.backed && rh.device == -1);
  EXPECT_TRUE(!rx.isDevice() && rx.backed && rx.device == -1 && rx.ptr == &x);

  for (void* p : {d, b, h}) {
    epoch = mem.epoch();
    mem.freeDevice(p);
    EXPECT_GT(mem.epoch(), epoch);
  }
}

TEST(Memory, AllocationsClassifyThemselvesWithoutALookup) {
  hw::System sys(summitCfg(1));
  const std::uint64_t lookups = sys.memory.lookups();
  const hw::MemRef d = cuda::deviceAlloc(sys, 4, 512, /*backed=*/false);
  const hw::MemRef p = sys.pool.alloc(3, 512, /*backed=*/true);
  cuda::HostBuffer h(sys, 512);
  EXPECT_EQ(sys.memory.lookups(), lookups);
  for (const hw::MemRef& r : {d, p, h.ref()}) {
    const hw::MemRef c = sys.memory.classify(r.ptr);
    EXPECT_EQ(c.space, r.space);
    EXPECT_EQ(c.device, r.device);
    EXPECT_EQ(c.backed, r.backed);
  }
  EXPECT_EQ(d.at(100).ptr, static_cast<char*>(d.ptr) + 100);
  EXPECT_EQ(d.at(100).device, 4);
  cuda::deviceFree(sys, d.ptr);
  sys.pool.free(p.ptr);
}

TEST(Memory, UnbackedHostRegions) {
  hw::System sys(summitCfg(1));
  void* p = sys.memory.allocHostUnbacked(1u << 20);
  EXPECT_FALSE(sys.memory.classify(p).isDevice());
  EXPECT_FALSE(sys.memory.classify(p).backed);
  sys.memory.freeDevice(p);
}

TEST(Memory, ManyAllocationsTracked) {
  hw::System sys(summitCfg(1));
  std::vector<void*> ptrs;
  for (int i = 0; i < 100; ++i) ptrs.push_back(cuda::deviceAlloc(sys, i % 6, 128, true).ptr);
  EXPECT_EQ(sys.memory.liveAllocations(), 100u);
  for (void* p : ptrs) EXPECT_TRUE(sys.memory.classify(p).isDevice());
  for (void* p : ptrs) cuda::deviceFree(sys, p);
  EXPECT_EQ(sys.memory.liveAllocations(), 0u);
  EXPECT_EQ(sys.memory.bytesAllocated(), 0u);
}

// Caller-input checks on the registry hold in every build type (not only
// under assert): a foreign or double free and a zero-byte region throw and
// leave the registry untouched.
TEST(Memory, FreeOfForeignPointerThrows) {
  hw::System sys(summitCfg(1));
  void* p = cuda::deviceAlloc(sys, 0, 256, /*backed=*/false).ptr;
  int x = 0;
  EXPECT_THROW(sys.memory.freeDevice(&x), std::invalid_argument);
  EXPECT_THROW(sys.memory.freeDevice(static_cast<char*>(p) + 8), std::invalid_argument);
  EXPECT_EQ(sys.memory.liveAllocations(), 1u);
  sys.memory.freeDevice(p);
  EXPECT_THROW(sys.memory.freeDevice(p), std::invalid_argument);  // double free
  EXPECT_EQ(sys.memory.liveAllocations(), 0u);
  EXPECT_EQ(sys.memory.bytesAllocated(), 0u);
}

TEST(Memory, ZeroSizeRegionsThrow) {
  hw::System sys(summitCfg(1));
  EXPECT_THROW((void)sys.memory.allocDevice(0, 0, /*backed=*/true), std::invalid_argument);
  EXPECT_THROW((void)sys.memory.allocDevice(0, 0, /*backed=*/false), std::invalid_argument);
  EXPECT_THROW((void)sys.memory.allocHostUnbacked(0), std::invalid_argument);
  EXPECT_EQ(sys.memory.liveAllocations(), 0u);
  EXPECT_EQ(sys.memory.bytesAllocated(), 0u);
}

TEST(Memory, GpuIndexAMemRefCannotCarryThrows) {
  hw::System sys(summitCfg(1));
  constexpr int kTooBig = hw::MemoryRegistry::kMaxDevice + 1;
  EXPECT_THROW((void)sys.memory.allocDevice(-1, 64, /*backed=*/true), std::invalid_argument);
  EXPECT_THROW((void)sys.memory.allocDevice(kTooBig, 64, /*backed=*/false), std::invalid_argument);
  EXPECT_EQ(sys.memory.liveAllocations(), 0u);
}

TEST(MemoryDeathTest, UnbackedRegionsFaultOnDereference) {
  hw::MemoryRegistry mem;
  auto* d = static_cast<volatile char*>(mem.allocDevice(0, 4096, /*backed=*/false));
  auto* h = static_cast<volatile char*>(mem.allocHostUnbacked(4096));
  EXPECT_DEATH(d[17] = 1, "");
  EXPECT_DEATH((void)h[0], "");
  mem.freeDevice(const_cast<char*>(d));
  mem.freeDevice(const_cast<char*>(h));
}

// Seeded cross-check against a reference model: a std::map of live ranges.
// Random sequences of backed, unbacked-device and unbacked-host allocations
// and frees (enough to compact the indexes, fill several reservations and
// release dead ones), each followed by queries of base, interior,
// one-past-end, freed, stack and heap pointers and a double free.
TEST(Memory, RegistryMatchesReferenceModel) {
  struct Ref {
    std::size_t size;
    hw::MemSpace space;
    int device;
    bool backed;
  };
  hw::MemoryRegistry mem;
  std::map<std::uintptr_t, Ref> live;
  std::vector<std::uintptr_t> freed;
  std::uint64_t live_bytes = 0;
  sim::SplitMix64 rng(20210517);
  int on_stack = 0;
  const auto on_heap = std::make_unique<int>(0);

  auto check = [&](std::uintptr_t addr) {
    const Ref* want = nullptr;
    std::uintptr_t want_base = 0;
    auto it = live.upper_bound(addr);
    if (it != live.begin()) {
      --it;
      if (addr - it->first < it->second.size) {
        want = &it->second;
        want_base = it->first;
      }
    }
    const void* p = reinterpret_cast<const void*>(addr);
    const hw::Region* got = mem.find(p);
    ASSERT_EQ(got != nullptr, want != nullptr) << std::hex << addr;
    if (want == nullptr) {
      EXPECT_FALSE(mem.classify(p).isDevice());
      EXPECT_EQ(mem.classify(p).device, -1);
      EXPECT_TRUE(mem.classify(p).backed);
      return;
    }
    EXPECT_EQ(got->base, want_base);
    EXPECT_EQ(got->size, want->size);
    EXPECT_EQ(got->space, want->space);
    EXPECT_EQ(got->backed, want->backed);
    EXPECT_EQ(mem.classify(p).device, want->space == hw::MemSpace::Device ? want->device : -1);
    EXPECT_EQ(mem.classify(p).backed, want->backed);
  };
  auto freeOne = [&](std::map<std::uintptr_t, Ref>::iterator it) {
    mem.freeDevice(reinterpret_cast<void*>(it->first));
    live_bytes -= it->second.size;
    freed.push_back(it->first);
    live.erase(it);
  };

  for (int step = 0; step < 6000; ++step) {
    if (live.empty() || rng.below(100) < 52) {
      const int device = static_cast<int>(rng.below(6));
      void* p = nullptr;
      Ref r{};
      switch (rng.below(3)) {
        case 0:
          r = Ref{1 + rng.below(2048), hw::MemSpace::Device, device, true};
          p = mem.allocDevice(device, r.size, true);
          break;
        case 1:
          // Mostly face-sized regions, now and then a grid-sized one that
          // outgrows the carved reservation.
          r = Ref{1 + rng.below(rng.below(8) == 0 ? std::uint64_t{1} << 31 : 1u << 22),
                  hw::MemSpace::Device, device, false};
          p = mem.allocDevice(device, r.size, false);
          break;
        default:
          r = Ref{1 + rng.below(1u << 20), hw::MemSpace::Host, -1, false};
          p = mem.allocHostUnbacked(r.size);
          break;
      }
      const auto base = reinterpret_cast<std::uintptr_t>(p);
      ASSERT_TRUE(live.emplace(base, r).second) << "address handed out twice";
      live_bytes += r.size;
    } else {
      freeOne(std::next(live.begin(), static_cast<std::ptrdiff_t>(rng.below(live.size()))));
    }
    ASSERT_EQ(mem.liveAllocations(), live.size());
    ASSERT_EQ(mem.bytesAllocated(), live_bytes);

    if (!live.empty()) {
      const auto& [base, r] =
          *std::next(live.begin(), static_cast<std::ptrdiff_t>(rng.below(live.size())));
      check(base);
      check(base + rng.below(r.size));
      check(base + r.size - 1);
      check(base + r.size);
    }
    if (!freed.empty()) {
      // A freed base is a double free unless the allocator handed it out
      // again (the heap for backed regions, the kernel for a released
      // reservation).
      const std::uintptr_t f = freed[rng.below(freed.size())];
      check(f);
      check(f + rng.below(64));
      if (live.count(f) == 0) {
        EXPECT_THROW(mem.freeDevice(reinterpret_cast<void*>(f)), std::invalid_argument);
      }
    }
    check(reinterpret_cast<std::uintptr_t>(&on_stack));
    check(reinterpret_cast<std::uintptr_t>(on_heap.get()));
  }

  while (!live.empty()) {
    freeOne(std::next(live.begin(), static_cast<std::ptrdiff_t>(rng.below(live.size()))));
  }
  EXPECT_EQ(mem.liveAllocations(), 0u);
  EXPECT_EQ(mem.bytesAllocated(), 0u);
  for (const std::uintptr_t f : freed) {
    check(f);
    EXPECT_THROW(mem.freeDevice(reinterpret_cast<void*>(f)), std::invalid_argument);
  }

  // A region larger than what is left of the carved (now fully dead)
  // reservation moves carving to a new one and releases the old.
  void* big = mem.allocDevice(2, std::uint64_t{1} << 40, false);
  EXPECT_EQ(mem.classify(static_cast<char*>(big) + (std::uint64_t{1} << 39)).device, 2);
  for (const std::uintptr_t f : freed) check(f);
  mem.freeDevice(big);
  EXPECT_EQ(mem.liveAllocations(), 0u);
}

// Paper-scale footprint with no simulation: the region pattern of Fig. 15's
// 256-node weak-scaling row (1536 GPUs, 12288 x 12288 x 6144 cells, ~15 TB
// of halo grids), as jacobi::BlockState allocates it in host-staging mode:
// two halo grids per block plus send/receive face buffers on the device and
// their host staging copies.
TEST(Memory, PaperScaleJacobiFootprint) {
  const int blocks = 256 * 6;
  const jacobi::Decomposition d =
      jacobi::decompose(jacobi::weakScaledGrid(jacobi::kWeakBase, 8), blocks);
  const std::uint64_t halo_bytes =
      static_cast<std::uint64_t>(d.block.x + 2) * (d.block.y + 2) * (d.block.z + 2) * 8;
  hw::MemoryRegistry mem;
  std::vector<void*> ptrs;
  std::uint64_t bytes = 0;
  auto alloc = [&](void* p, std::uint64_t n) {
    ptrs.push_back(p);
    bytes += n;
  };
  for (int b = 0; b < blocks; ++b) {
    for (int g = 0; g < 2; ++g) alloc(mem.allocDevice(b, halo_bytes, false), halo_bytes);
    for (int i = 0; i < jacobi::kNumDirs; ++i) {
      const auto dir = static_cast<jacobi::Dir>(i);
      if (d.neighbor(b, dir) < 0) continue;
      const std::uint64_t face = d.faceBytes(dir);
      for (int k = 0; k < 3; ++k) alloc(mem.allocDevice(b, face, false), face);
      for (int k = 0; k < 3; ++k) alloc(mem.allocHostUnbacked(face), face);
    }
  }
  EXPECT_GT(bytes, std::uint64_t{15} * 1000 * 1000 * 1000 * 1000);  // 15 TB
  EXPECT_EQ(mem.liveAllocations(), ptrs.size());
  EXPECT_EQ(mem.bytesAllocated(), bytes);

  // Classify every region, as a GPU-aware send does, at base and last byte.
  std::size_t devices = 0;
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    const hw::Region* r = mem.find(ptrs[i]);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(mem.find(static_cast<char*>(ptrs[i]) + r->size - 1), r);
    EXPECT_FALSE(mem.classify(ptrs[i]).backed);
    if (mem.classify(ptrs[i]).isDevice()) ++devices;
  }
  EXPECT_EQ(devices, ptrs.size() - (ptrs.size() - 2 * blocks) / 2);

  for (void* p : ptrs) mem.freeDevice(p);
  EXPECT_EQ(mem.liveAllocations(), 0u);
  EXPECT_EQ(mem.bytesAllocated(), 0u);
  for (void* p : ptrs) EXPECT_EQ(mem.find(p), nullptr);
}

// --------------------------------------------------------------------------
// CUDA shim
// --------------------------------------------------------------------------

TEST(Cuda, RoundTripPreservesData) {
  hw::System sys(summitCfg(1));
  const std::size_t n = 4096;
  std::vector<unsigned char> src(n), back(n, 0);
  sim::SplitMix64 rng(1);
  rng.fill(src.data(), n);

  cuda::DeviceBuffer dev(sys, 0, n);
  cuda::Stream s(sys, 0);
  s.memcpyAsync(dev.ref(), hw::MemRef::host(src.data()), n, cuda::MemcpyKind::HostToDevice);
  s.memcpyAsync(hw::MemRef::host(back.data()), dev.ref(), n, cuda::MemcpyKind::DeviceToHost);
  bool done = false;
  s.synchronize().onReady([&] { done = true; });
  sys.engine.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(src, back);
}

TEST(Cuda, CopiesAreDeferredUntilCompletion) {
  hw::System sys(summitCfg(1));
  std::vector<unsigned char> src(1024, 0xAB);
  cuda::DeviceBuffer dev(sys, 0, 1024);
  std::memset(dev.get(), 0, 1024);
  cuda::Stream s(sys, 0);
  s.memcpyAsync(dev.ref(), hw::MemRef::host(src.data()), 1024, cuda::MemcpyKind::HostToDevice);
  // Before the engine runs, device memory must be untouched (CUDA async
  // semantics: visibility at completion).
  EXPECT_EQ(static_cast<unsigned char*>(dev.get())[0], 0);
  sys.engine.run();
  EXPECT_EQ(static_cast<unsigned char*>(dev.get())[0], 0xAB);
}

TEST(Cuda, StreamOpsExecuteInOrder) {
  // Ops retire in enqueue order whatever their cost, also when enqueued
  // while the stream is busy: after partial drains the op queue's ring
  // wraps, then grows while wrapped.
  hw::System sys(summitCfg(1));
  cuda::Stream s(sys, 0);
  std::vector<int> order;
  int next = 0;
  auto enqueue = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const int id = next++;
      s.launch(sim::usec((7 * id) % 11), [&order, id] { order.push_back(id); });
    }
  };
  auto drainTo = [&](std::size_t done) {
    while (order.size() < done && sys.engine.step()) {
    }
  };
  enqueue(3);
  drainTo(2);
  enqueue(3);
  drainTo(4);
  enqueue(20);
  drainTo(10);
  enqueue(5);
  sys.engine.run();
  std::vector<int> want(static_cast<std::size_t>(next));
  for (int i = 0; i < next; ++i) want[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(order, want);
  EXPECT_TRUE(s.idle());
}

TEST(Cuda, MemcpyTimingMatchesLinkBandwidth) {
  hw::System sys(summitCfg(1));
  const std::uint64_t n = 64u << 20;  // 64 MB over 50 GB/s nvlink ~ 1342 us
  cuda::DeviceBuffer dev(sys, 0, n, /*backed=*/false);
  void* host = sys.memory.allocHostUnbacked(n);
  cuda::Stream s(sys, 0);
  s.memcpyAsync(dev.ref(), sys.memory.classify(host), n, cuda::MemcpyKind::HostToDevice);
  sim::TimePoint done_at = 0;
  s.synchronize().onReady([&] { done_at = sys.engine.now(); });
  sys.engine.run();
  const double us = sim::toUs(done_at);
  const double transfer = sim::toUs(sim::transferTime(n, 50.0));
  EXPECT_NEAR(us, transfer, 15.0);
  sys.memory.freeDevice(host);
}

TEST(Cuda, SynchronizeOnIdleStreamStillCosts) {
  hw::System sys(summitCfg(1));
  cuda::Stream s(sys, 0);
  sim::TimePoint at = 0;
  s.synchronize().onReady([&] { at = sys.engine.now(); });
  sys.engine.run();
  EXPECT_EQ(at, sim::usec(sys.config.cuda_sync_us));
}

TEST(Cuda, UnbackedCopiesSkipByteMovement) {
  hw::System sys(summitCfg(1));
  cuda::DeviceBuffer dev(sys, 0, 1024, /*backed=*/false);
  std::vector<unsigned char> host(1024, 7);
  cuda::Stream s(sys, 0);
  // Must not crash despite the PROT_NONE destination.
  s.memcpyAsync(dev.ref(), hw::MemRef::host(host.data()), 1024, cuda::MemcpyKind::HostToDevice);
  s.memcpyAsync(hw::MemRef::host(host.data()), dev.ref(), 1024, cuda::MemcpyKind::DeviceToHost);
  sys.engine.run();
  EXPECT_EQ(host[0], 7);  // unchanged: source was unbacked
}

hw::MachineConfig stagingCfg(bool backed) {
  hw::MachineConfig cfg = summitCfg(1);
  cfg.backed_device_memory = backed;
  return cfg;
}

// Timing-only machines stage through address space: the buffer classifies as
// host memory (so protocol choices match a backed run) but is never touched.
TEST(HostBuffer, UnbackedOnTimingOnlyMachine) {
  hw::System sys(stagingCfg(false));
  const std::size_t baseline = sys.memory.liveAllocations();
  {
    cuda::HostBuffer h(sys, 1u << 20);
    ASSERT_NE(h.get(), nullptr);
    EXPECT_EQ(h.size(), 1u << 20);
    EXPECT_FALSE(sys.memory.classify(h.get()).isDevice());
    EXPECT_EQ(sys.memory.classify(h.get()).space, hw::MemSpace::Host);
    EXPECT_FALSE(sys.memory.classify(h.get()).backed);
    EXPECT_EQ(sys.memory.liveAllocations(), baseline + 1);
  }
  EXPECT_EQ(sys.memory.liveAllocations(), baseline);
  EXPECT_EQ(sys.memory.bytesAllocated(), 0u);
}

TEST(HostBuffer, BackedIsWritableHostMemory) {
  hw::System sys(stagingCfg(true));
  const std::size_t baseline = sys.memory.liveAllocations();
  {
    cuda::HostBuffer h(sys, 4096);
    auto* b = static_cast<unsigned char*>(h.get());
    EXPECT_EQ(b[0], 0);  // zero-initialised, like the vectors it replaces
    EXPECT_EQ(b[4095], 0);
    EXPECT_EQ(sys.memory.classify(h.get()).space, hw::MemSpace::Host);
    EXPECT_TRUE(sys.memory.classify(h.get()).backed);
    for (std::size_t i = 0; i < 4096; ++i) b[i] = static_cast<unsigned char>(i * 7);

    // Staged round trip through a device buffer reads back bit-exact.
    cuda::DeviceBuffer d(sys, 0, 4096);
    cuda::HostBuffer back(sys, 4096);
    cuda::Stream s(sys, 0);
    s.memcpyAsync(d.ref(), h.ref(), 4096, cuda::MemcpyKind::HostToDevice);
    s.memcpyAsync(back.ref(), d.ref(), 4096, cuda::MemcpyKind::DeviceToHost);
    sys.engine.run();
    EXPECT_EQ(std::memcmp(back.get(), h.get(), 4096), 0);
  }
  EXPECT_EQ(sys.memory.liveAllocations(), baseline);
}

TEST(HostBuffer, ZeroBytesAllocatesNothing) {
  for (const bool backed : {false, true}) {
    hw::System sys(stagingCfg(backed));
    cuda::HostBuffer h(sys, 0);
    EXPECT_EQ(h.get(), nullptr);
    EXPECT_EQ(h.size(), 0u);
    EXPECT_EQ(sys.memory.liveAllocations(), 0u);
  }
}

TEST(HostBuffer, MoveTransfersOwnership) {
  hw::System sys(stagingCfg(false));
  cuda::HostBuffer a(sys, 4096);
  void* p = a.get();
  cuda::HostBuffer b(std::move(a));
  EXPECT_EQ(a.get(), nullptr);
  EXPECT_EQ(b.get(), p);
  a = cuda::HostBuffer(sys, 8192);  // into a moved-from buffer
  EXPECT_EQ(sys.memory.liveAllocations(), 2u);
  b = std::move(a);  // releases b's old region
  EXPECT_EQ(sys.memory.liveAllocations(), 1u);
  EXPECT_EQ(b.size(), 8192u);
  b = cuda::HostBuffer();
  EXPECT_EQ(sys.memory.liveAllocations(), 0u);
}

TEST(Cuda, KernelTimingIncludesLaunchOverhead) {
  hw::System sys(summitCfg(1));
  cuda::Stream s(sys, 0);
  sim::TimePoint done_at = 0;
  s.launch(sim::usec(100), [&] { done_at = sys.engine.now(); });
  sys.engine.run();
  EXPECT_EQ(done_at,
            sim::usec(sys.config.cuda_call_us + sys.config.kernel_launch_us + 100.0));
}

// --------------------------------------------------------------------------
// DevicePool: the CuPy-style caching allocator behind pipelined collectives
// and the training workload's gradient buckets.
// --------------------------------------------------------------------------

TEST(DevicePool, RoundsUpToBinAndReusesFreedBlocks) {
  hw::System sys(summitCfg(1));
  const bool backed = sys.config.backed_device_memory;
  void* a = sys.pool.alloc(0, 100, backed).ptr;  // rounds to 512
  EXPECT_EQ(sys.pool.misses(), 1u);
  EXPECT_EQ(sys.pool.hits(), 0u);
  EXPECT_EQ(sys.pool.bytesLive(), 512u);
  sys.pool.free(a);
  EXPECT_EQ(sys.pool.bytesLive(), 0u);
  EXPECT_EQ(sys.pool.bytesCached(), 512u);
  // A request in the same 512-byte class is a hit and returns the block.
  void* b = sys.pool.alloc(0, 300, backed).ptr;
  EXPECT_EQ(b, a);
  EXPECT_EQ(sys.pool.hits(), 1u);
  EXPECT_EQ(sys.pool.misses(), 1u);
  sys.pool.free(b);
}

TEST(DevicePool, DistinctClassesDoNotShareBlocks) {
  hw::System sys(summitCfg(1));
  const bool backed = sys.config.backed_device_memory;
  void* a = sys.pool.alloc(0, 512, backed).ptr;
  sys.pool.free(a);
  // Different device, different size class, different backing: all misses.
  void* other_dev = sys.pool.alloc(1, 512, backed).ptr;
  void* other_size = sys.pool.alloc(0, 1024, backed).ptr;
  EXPECT_NE(other_dev, a);
  EXPECT_NE(other_size, a);
  EXPECT_EQ(sys.pool.hits(), 0u);
  EXPECT_EQ(sys.pool.misses(), 3u);
  sys.pool.free(other_dev);
  sys.pool.free(other_size);
}

TEST(DevicePool, TrimReleasesCachedBlocks) {
  hw::System sys(summitCfg(1));
  const bool backed = sys.config.backed_device_memory;
  void* a = sys.pool.alloc(0, 4096, backed).ptr;
  void* b = sys.pool.alloc(0, 8192, backed).ptr;
  sys.pool.free(a);
  sys.pool.free(b);
  EXPECT_EQ(sys.pool.bytesCached(), 4096u + 8192u);
  sys.pool.trim();
  EXPECT_EQ(sys.pool.bytesCached(), 0u);
  // After a trim the next allocation goes back through the registry.
  void* c = sys.pool.alloc(0, 4096, backed).ptr;
  EXPECT_EQ(sys.pool.hits(), 0u);
  EXPECT_EQ(sys.pool.misses(), 3u);
  sys.pool.free(c);
}

TEST(DevicePool, HighWatermarkTracksPeakLiveBytes) {
  hw::System sys(summitCfg(1));
  const bool backed = sys.config.backed_device_memory;
  void* a = sys.pool.alloc(0, 1024, backed).ptr;
  void* b = sys.pool.alloc(0, 2048, backed).ptr;
  EXPECT_EQ(sys.pool.bytesHighWatermark(), 3072u);
  sys.pool.free(a);
  sys.pool.free(b);
  // Reuse from cache does not raise the watermark.
  void* c = sys.pool.alloc(0, 2048, backed).ptr;
  EXPECT_EQ(sys.pool.bytesHighWatermark(), 3072u);
  sys.pool.free(c);
}

// Caller checks hold in every build type: a double free would otherwise put
// one block on the freelist twice and hand it out to two owners.
TEST(DevicePool, DoubleFreeThrows) {
  hw::System sys(summitCfg(1));
  const bool backed = sys.config.backed_device_memory;
  void* a = sys.pool.alloc(0, 512, backed).ptr;
  sys.pool.free(a);
  EXPECT_THROW(sys.pool.free(a), std::invalid_argument);
  EXPECT_EQ(sys.pool.bytesLive(), 0u);
  EXPECT_EQ(sys.pool.bytesCached(), 512u);
  void* b = sys.pool.alloc(0, 512, backed).ptr;
  void* c = sys.pool.alloc(0, 512, backed).ptr;
  EXPECT_NE(b, c);
  EXPECT_EQ(sys.pool.bytesLive(), 1024u);
  sys.pool.free(b);
  sys.pool.free(c);
  EXPECT_THROW(sys.pool.free(c), std::invalid_argument);
  EXPECT_EQ(sys.pool.bytesLive(), 0u);
}

TEST(DevicePool, FreeOfForeignPointerThrows) {
  hw::System sys(summitCfg(1));
  const bool backed = sys.config.backed_device_memory;
  void* a = sys.pool.alloc(0, 512, backed).ptr;
  void* direct = sys.memory.allocDevice(0, 512, backed);  // registry, not pool
  int x = 0;
  EXPECT_THROW(sys.pool.free(&x), std::invalid_argument);
  EXPECT_THROW(sys.pool.free(static_cast<char*>(a) + 8), std::invalid_argument);
  EXPECT_THROW(sys.pool.free(direct), std::invalid_argument);
  EXPECT_EQ(sys.pool.bytesLive(), 512u);
  EXPECT_EQ(sys.pool.bytesCached(), 0u);
  sys.pool.free(nullptr);  // no-op
  sys.pool.free(a);
  sys.memory.freeDevice(direct);
}

TEST(DevicePool, BackedBlocksKeepContentsAcrossReuse) {
  hw::System sys(summitCfg(1));
  if (!sys.config.backed_device_memory) GTEST_SKIP() << "needs backed device memory";
  auto* p = static_cast<double*>(sys.pool.alloc(0, 8 * 64, true).ptr);
  for (int j = 0; j < 64; ++j) p[j] = 3.0 * j;
  sys.pool.free(p);
  auto* q = static_cast<double*>(sys.pool.alloc(0, 8 * 64, true).ptr);
  ASSERT_EQ(q, p);  // same cached region
  EXPECT_DOUBLE_EQ(q[63], 3.0 * 63);
  sys.pool.free(q);
}

}  // namespace
