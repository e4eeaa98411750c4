#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "converse/converse.hpp"
#include "core/device_comm.hpp"
#include "hw/cuda.hpp"
#include "model/model.hpp"
#include "obs/sink.hpp"
#include "sim/rng.hpp"
#include "trace_sink.hpp"
#include "ucx/context.hpp"

/// Trace-hash determinism: the engine's contract is that identical
/// configurations produce bit-identical event orderings. These tests pin
/// that down with an order-sensitive hash over the full trace timeline —
/// any reordering of equal-timestamp events (e.g. a broken FIFO tie-break
/// after an engine change) flips the hash.

namespace {

using namespace cux;

TEST(TraceHash, OrderSensitive) {
  sim::Tracer a, b;
  a.enable();
  b.enable();
  a.record(10, sim::TraceCat::UcxSend, 0, 1, 64, 7, "x");
  a.record(10, sim::TraceCat::UcxRecv, 1, 0, 64, 7, "y");
  b.record(10, sim::TraceCat::UcxRecv, 1, 0, 64, 7, "y");
  b.record(10, sim::TraceCat::UcxSend, 0, 1, 64, 7, "x");
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), sim::Tracer{}.hash());
}

/// `obs`: span collection on, with windowed aggregation and a sink.
std::uint64_t mixedUcxTrafficHash(const sim::FaultConfig& fault = {}, bool obs = false) {
  model::Model m = model::summit(2);
  m.machine.fault = fault;
  obs::NullSink sink;
  hw::System sys(m.machine);
  sys.trace.enable();
  if (obs) sys.obs.spans.enableStreaming({}, &sink);
  ucx::Context ctx(sys, m.ucx);
  sim::SplitMix64 rng(42);

  // Host and device, eager and rendezvous, intra- and inter-node, posted
  // receives and unexpected arrivals, plus owned-payload active messages.
  std::vector<std::vector<std::byte>> host_bufs;
  std::vector<cuda::DeviceBuffer> dev_bufs;
  const std::uint64_t sizes[] = {64, 4096, 16384, 512 * 1024};
  int pair = 0;
  for (std::uint64_t size : sizes) {
    for (int dst_pe : {1, 6}) {  // same node / other node
      const auto tag = static_cast<ucx::Tag>(0x100 + pair++);
      host_bufs.emplace_back(size);
      host_bufs.emplace_back(size);
      auto& src = host_bufs[host_bufs.size() - 2];
      auto& dst = host_bufs.back();
      rng.fill(src.data(), src.size());
      if (rng.below(2) == 0) {  // half posted-first, half unexpected
        ctx.worker(dst_pe).tagRecv(hw::MemRef::host(dst.data()), size, tag, ucx::kFullMask, {});
        ctx.tagSend(0, dst_pe, hw::MemRef::host(src.data()), size, tag, {});
      } else {
        ctx.tagSend(0, dst_pe, hw::MemRef::host(src.data()), size, tag, {});
        ctx.worker(dst_pe).tagRecv(hw::MemRef::host(dst.data()), size, tag, ucx::kFullMask, {});
      }
      dev_bufs.emplace_back(sys, 0, size);
      dev_bufs.emplace_back(sys, dst_pe, size);
      auto& dsrc = dev_bufs[dev_bufs.size() - 2];
      auto& ddst = dev_bufs.back();
      const auto dtag = static_cast<ucx::Tag>(0x200 + pair);
      ctx.worker(dst_pe).tagRecv(ddst.ref(), size, dtag, ucx::kFullMask, {});
      ctx.tagSend(0, dst_pe, dsrc.ref(), size, dtag, {});
    }
  }
  ctx.worker(7).setHandler(0x9, ucx::kFullMask, [](ucx::Delivery) {});
  for (std::uint64_t size : {256u, 65536u}) {
    std::vector<std::byte> payload(size);
    rng.fill(payload.data(), payload.size());
    ctx.amSend(2, 7, 0x9, std::move(payload), 0);
  }
  sys.engine.run();
  return sys.trace.hash();
}

TEST(TraceHash, MixedUcxTrafficBitIdenticalAcrossRuns) {
  const auto h1 = mixedUcxTrafficHash();
  const auto h2 = mixedUcxTrafficHash();
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, sim::Tracer{}.hash());  // the workload actually traced something
}

std::uint64_t deviceCommHash(bool smp, const sim::FaultConfig& fault = {},
                             bool obs = false) {
  model::Model m = model::summit(2);
  m.costs.smp_comm_thread = smp;
  m.machine.fault = fault;
  obs::NullSink sink;
  hw::System sys(m.machine);
  sys.trace.enable();
  if (obs) sys.obs.spans.enableStreaming({}, &sink);
  ucx::Context ctx(sys, m.ucx);
  cmi::Converse cmi(sys, ctx, m.costs);
  core::DeviceComm dev(cmi);
  std::vector<std::unique_ptr<cuda::DeviceBuffer>> bufs;
  for (int i = 0; i < 8; ++i) {
    bufs.push_back(std::make_unique<cuda::DeviceBuffer>(sys, 0, 8192));
    bufs.push_back(std::make_unique<cuda::DeviceBuffer>(sys, 6, 8192));
    auto* src = bufs[bufs.size() - 2].get();
    auto* dst = bufs.back().get();
    cmi.runOn(0, [&dev, &cmi, src, dst, i] {
      core::CmiDeviceBuffer buf{src->ref(), 8192, 0};
      dev.lrtsSendDevice(0, 6, buf);
      const auto device_tag = buf.tag;
      if (i % 2 == 0) {
        core::CmiDeviceBuffer ubuf{src->ref(), 8192, 0};
        dev.lrtsSendDeviceUserTag(0, 6, ubuf, static_cast<std::uint64_t>(i));
        dev.lrtsRecvDeviceUserTag(6, dst->ref(), 8192, static_cast<std::uint64_t>(i),
                                  core::DeviceRecvType::Raw, {});
      }
      cmi.runOn(6, [&dev, dst, device_tag] {
        dev.lrtsRecvDevice(6, core::DeviceRdmaOp{dst->ref(), 8192, device_tag},
                           core::DeviceRecvType::Raw, {});
      });
    });
  }
  sys.engine.run();
  return sys.trace.hash();
}

TEST(TraceHash, DeviceCommBitIdenticalAcrossRuns) {
  EXPECT_EQ(deviceCommHash(false), deviceCommHash(false));
  EXPECT_EQ(deviceCommHash(true), deviceCommHash(true));
  // SMP routing really changes the timeline (comm-thread serialisation).
  EXPECT_NE(deviceCommHash(false), deviceCommHash(true));
}

// The tag matcher's contract: on fault-free traces it is bit-identical to
// the original linear-scan matcher — same matches, same timestamps, same
// event order — for the full protocol mix (eager/rendezvous, host/device,
// posted/unexpected, active messages) and for the machine-layer device path.
// The constants were captured while both matchers still ran side by side and
// agreed; a matcher change that moves any of them changes behaviour.
TEST(TraceHash, BucketedMatcherBitIdenticalToLinearReference) {
  EXPECT_EQ(mixedUcxTrafficHash(), 0xad6e018849762653ull);
  EXPECT_EQ(deviceCommHash(false), 0x4ce326817043075aull);
  EXPECT_EQ(deviceCommHash(true), 0x69ff80aba70e48aeull);
}

// The determinism contract of the fault injector: while DISABLED it must be
// invisible — no random numbers consumed, no reliability branches taken, no
// sequence numbers assigned — so the trace hash is bit-identical to a
// configuration that never mentions faults at all. This holds even when drop
// probabilities and outage windows are configured but enabled == false.
TEST(TraceHash, DisabledInjectorIsBitIdenticalToNoInjector) {
  sim::FaultConfig configured_but_off;
  configured_but_off.enabled = false;
  configured_but_off.seed = 0xDEAD;
  configured_but_off.setAllClasses(sim::FaultPolicy{0.5, 25.0});
  configured_but_off.down_windows.push_back(sim::LinkDownWindow{0, sim::msec(1.0), -1, -1});

  EXPECT_EQ(mixedUcxTrafficHash(), mixedUcxTrafficHash(configured_but_off));
  EXPECT_EQ(deviceCommHash(false), deviceCommHash(false, configured_but_off));
  EXPECT_EQ(deviceCommHash(true), deviceCommHash(true, configured_but_off));
}

// The observability contract (mirroring the injector's): span collection
// writes only to its own buffers — windowed aggregation and sink fan-out
// happen at retirement, on the observer's side of the fence; it never
// touches sim::Tracer, schedules engine events, or consumes randomness — so
// enabling it leaves the trace hash bit-identical. This must hold on the
// clean timeline AND on a faulty one, where the Retry/Fallback/Errored span
// phases fire too.
TEST(TraceHash, ObservabilityIsTraceInvisible) {
  EXPECT_EQ(mixedUcxTrafficHash({}, false), mixedUcxTrafficHash({}, true));
  EXPECT_EQ(deviceCommHash(false, {}, false), deviceCommHash(false, {}, true));
  EXPECT_EQ(deviceCommHash(true, {}, false), deviceCommHash(true, {}, true));
  const auto loss = sim::FaultConfig::uniformLoss(0.1, 3);
  EXPECT_EQ(mixedUcxTrafficHash(loss, false), mixedUcxTrafficHash(loss, true));
  EXPECT_EQ(deviceCommHash(false, loss, false), deviceCommHash(false, loss, true));
}

// Faulty timelines, pinned like the fault-free ones above. Seed determinism
// (below) only compares two runs of one build, so a change to the retry,
// duplicate-suppression or failure-detector paths could move every faulty
// timeline unseen; these constants catch that. Each config is run through
// the mixed UCX workload and the DeviceComm workload without and with SMP.
struct FaultyPin {
  const char* name;
  sim::FaultConfig fault;
  std::uint64_t ucx, dev, dev_smp;
};

sim::FaultConfig jitterPolicy() {
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.setAllClasses(sim::FaultPolicy{0.1, 30.0});
  return fc;
}

sim::FaultConfig killed(double at_us) {
  sim::FaultConfig fc;
  fc.killPe(6, sim::usec(at_us));
  return fc;
}

sim::FaultConfig outage() {
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.bidirectionalOutage(0, sim::usec(300.0), 0, 6);
  return fc;
}

TEST(TraceHash, FaultyTimelinesArePinned) {
  const FaultyPin pins[] = {
      {"loss5%/1", sim::FaultConfig::uniformLoss(0.05, 1),
       0xcd45a35bee01814bull, 0xd09da0c88ee2fda2ull, 0x2c109350069065aeull},
      {"loss5%/2", sim::FaultConfig::uniformLoss(0.05, 2),
       0x42663e7a3ed5e2ebull, 0x534c4cda9e12d0b2ull, 0xc5a77a0d6ed2bf21ull},
      {"loss5%/3", sim::FaultConfig::uniformLoss(0.05, 3),
       0x2a57c81cb64e96e8ull, 0x55da0f1ea6e9115full, 0x5a9a2f0316c05b35ull},
      {"loss30%/1", sim::FaultConfig::uniformLoss(0.3, 1),
       0x1d6fcb8e13233326ull, 0x544464d745208361ull, 0x53c2a75ccc8870b5ull},
      {"loss30%/2", sim::FaultConfig::uniformLoss(0.3, 2),
       0x81ec43657ae5b3b9ull, 0x557269ccf31cfc7cull, 0x94a08e1afc5739acull},
      {"loss30%/3", sim::FaultConfig::uniformLoss(0.3, 3),
       0x61c54d497275001full, 0xacaa767eef8ab9c3ull, 0x6277a973dfa6718eull},
      {"jitter", jitterPolicy(),
       0x02cb0be72ed439aaull, 0xa598d5f48b4df4aeull, 0x7f03214d20768d0full},
      {"kill6@0", killed(0.0),
       0x71c2d06df2cbbd7bull, 0xfc9c89cefc5d25f2ull, 0x3d1976636854a42dull},
      {"kill6@5", killed(5.0),
       0x8d20dce3b11fba17ull, 0xda7de8fe086dda95ull, 0x116f2e6df11c78d1ull},
      {"kill6@20", killed(20.0),
       0x54215fe1ef2c24a5ull, 0xe2199b4f6cec5bd2ull, 0xaed1462fb4b52c5dull},
      {"kill6@60", killed(60.0),
       0x1aee242e332d6655ull, 0x9eb3e59df394ca01ull, 0x2a3879fd82479137ull},
      {"outage0-6", outage(),
       0x5ae61b06e869c828ull, 0x0ea018eea03c16b5ull, 0xf1de8df7f2cc6921ull},
  };
  for (const FaultyPin& p : pins) {
    SCOPED_TRACE(p.name);
    const auto u = mixedUcxTrafficHash(p.fault);
    const auto d = deviceCommHash(false, p.fault);
    const auto s = deviceCommHash(true, p.fault);
    EXPECT_EQ(u, p.ucx);
    EXPECT_EQ(d, p.dev);
    EXPECT_EQ(s, p.dev_smp);
  }
}

/// Multi-path device rendezvous: 2 NVLink bricks and 2 NIC rails, 1 and
/// 4 MiB device sends to a same-node and an other-node PE. The 4 MiB sends
/// split across the direct and staged routes and across both rails, the
/// 1 MiB ones stay below the split threshold, and the inter-node ones send
/// a CTS first.
model::Model multipathModel(const sim::FaultConfig& fault) {
  model::Model m = model::summit(2);
  m.machine.backed_device_memory = false;
  m.machine.nvlink_bricks = 2;
  m.machine.nic_rails = 2;
  m.ucx.multipath.enabled = true;
  m.machine.fault = fault;
  return m;
}

/// Posts the multipath traffic; `bufs` must outlive the engine run.
void multipathTraffic(hw::System& sys, ucx::Context& ctx, std::vector<cuda::DeviceBuffer>& bufs) {
  bufs.reserve(8);
  ucx::Tag tag = 0x300;
  for (const std::uint64_t size : {1u << 20, 4u << 20}) {
    for (const int dst_pe : {1, 6}) {
      bufs.emplace_back(sys, 0, size);
      bufs.emplace_back(sys, dst_pe, size);
      ctx.worker(dst_pe).tagRecv(bufs.back().ref(), size, tag, ucx::kFullMask, {});
      ctx.tagSend(0, dst_pe, bufs[bufs.size() - 2].ref(), size, tag, {});
      ++tag;
    }
  }
}

std::uint64_t multipathHash(const sim::FaultConfig& fault = {}) {
  const model::Model m = multipathModel(fault);
  hw::System sys(m.machine);
  sys.trace.enable();
  ucx::Context ctx(sys, m.ucx);
  std::vector<cuda::DeviceBuffer> bufs;
  multipathTraffic(sys, ctx, bufs);
  sys.engine.run();
  return sys.trace.hash();
}

TEST(TraceHash, MultipathTimelinesArePinned) {
  const auto a = multipathHash();
  const auto b = multipathHash(sim::FaultConfig::uniformLoss(0.2, 5));
  EXPECT_EQ(a, 0x1ea839f4e1112a88ull);
  EXPECT_EQ(b, 0x57c8271f25cab044ull);
}

/// FNV-1a over a kept record stream, written out independently of the
/// Tracer: each field as 8 little-endian bytes, then the detail's bytes.
std::uint64_t replayHash(const std::vector<test::TraceSink::Record>& records) {
  std::uint64_t h = 14695981039346656037ull;
  auto byte = [&h](unsigned char b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  auto word = [&byte](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  };
  for (const test::TraceSink::Record& r : records) {
    word(r.time);
    word(static_cast<std::uint64_t>(r.cat));
    word(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.pe)));
    word(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.peer)));
    word(r.bytes);
    word(r.tag);
    for (const char c : r.detail) byte(static_cast<unsigned char>(c));
  }
  return h;
}

// The Tracer folds each record at record() time and keeps nothing. A sink
// on a faulty multipath run keeps every record; replaying them must give
// the Tracer's hash, and their count must be the trace.records gauge. The
// run also records markers whose details live in stack buffers that are
// scribbled over as soon as record() returns.
TEST(TraceHash, StreamingHashEqualsRecordReplay) {
  const model::Model m = multipathModel(sim::FaultConfig::uniformLoss(0.2, 5));
  test::TraceSink sink;
  hw::System sys(m.machine);
  sys.trace.enable(&sink);
  ucx::Context ctx(sys, m.ucx);
  std::vector<cuda::DeviceBuffer> bufs;
  multipathTraffic(sys, ctx, bufs);
  constexpr int kMarkers = 8;
  for (int i = 0; i < kMarkers; ++i) {
    sys.engine.schedule(sim::usec(25.0 * i), [&sys, i] {
      char detail[32];
      std::snprintf(detail, sizeof detail, "marker-%d", i);
      sys.trace.record(sys.engine.now(), sim::TraceCat::User, i, -1, 0, 0, detail);
      std::memset(detail, 'X', sizeof detail - 1);
    });
  }
  sys.engine.run();

  ASSERT_GT(sink.count(sim::TraceCat::Drop), 0u);
  ASSERT_GT(sink.count(sim::TraceCat::Retry), 0u);
  ASSERT_EQ(sink.count(sim::TraceCat::User), static_cast<std::size_t>(kMarkers));
  int marker = 0;
  for (const test::TraceSink::Record& r : sink.records) {
    if (r.cat == sim::TraceCat::User) {
      EXPECT_EQ(r.detail, "marker-" + std::to_string(marker++));
    }
  }
  EXPECT_EQ(replayHash(sink.records), sys.trace.hash());
  sys.obs.refresh();
  EXPECT_EQ(sys.obs.registry.gaugeValue("trace.records"), sink.records.size());
  EXPECT_EQ(sys.trace.recorded(), sink.records.size());
}

// Enabled faults are themselves deterministic: a fixed seed reproduces the
// exact loss/retry/duplicate timeline; a different seed produces a
// different one (at 10% drop over this much traffic, collision of the two
// full timelines is implausible).
TEST(TraceHash, EnabledInjectorIsSeedDeterministic) {
  const auto faulty = [](std::uint64_t seed) {
    return mixedUcxTrafficHash(sim::FaultConfig::uniformLoss(0.1, seed));
  };
  EXPECT_EQ(faulty(1), faulty(1));
  EXPECT_NE(faulty(1), faulty(2));
  // ...and injecting faults really does alter the timeline.
  EXPECT_NE(faulty(1), mixedUcxTrafficHash());
}

}  // namespace
