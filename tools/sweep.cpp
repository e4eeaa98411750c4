/// gpucomm_sweep — command-line driver for arbitrary measurement sweeps.
///
/// Lets a user run any point of the paper's evaluation space (and beyond)
/// without writing code:
///
///   gpucomm_sweep --metric latency  --stack ampi --place inter
///   gpucomm_sweep --metric bandwidth --stack charm4py --mode host --sizes 4096,65536
///   gpucomm_sweep --metric jacobi --stack charm --nodes 8 --grid 3072,3072,3072 --odf 4
///   gpucomm_sweep --metric loss --stack charm --place inter --fault-seed 7
///
/// Any metric accepts --drop P / --fault-seed N to run under deterministic
/// uniform message loss; --metric loss sweeps the drop rate itself and
/// reports how retransmission inflates latency.
///
/// Output is CSV on stdout (one row per size / per node count / per rate).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ampi/ampi.hpp"
#include "apps/jacobi/jacobi.hpp"
#include "apps/osu/osu.hpp"
#include "apps/train/train.hpp"
#include "charm4py/charm4py.hpp"
#include "coll/c4p_group.hpp"
#include "coll/charm_section.hpp"
#include "converse/converse.hpp"
#include "core/device_comm.hpp"
#include "hw/cuda.hpp"
#include "hw/util.hpp"
#include "obs/critpath.hpp"
#include "obs/perfetto.hpp"
#include "obs/report.hpp"
#include "obs/sink.hpp"
#include "sim/fault.hpp"

using namespace cux;

namespace {

struct Args {
  std::string metric = "latency";  // latency | bandwidth | jacobi
  osu::Stack stack = osu::Stack::Charm;
  bool stack_set = false;  ///< --stack given (breakdown narrows to one stack)
  bool json = false;       ///< machine-readable output instead of CSV
  std::string perfetto;    ///< --perfetto FILE (breakdown: trace of last point)
  osu::Mode mode = osu::Mode::Device;
  osu::Placement place = osu::Placement::IntraNode;
  int nodes = 2;
  std::vector<std::size_t> sizes;
  int iters = 20;
  int warmup = 5;
  int window = 64;
  jacobi::Vec3 grid{1536, 1536, 1536};
  int odf = 1;
  bool gdrcopy = true;
  double drop = 0.0;
  std::uint64_t fault_seed = 0x5eed;
  std::vector<double> drops{0.0, 0.01, 0.02, 0.05, 0.10};  // --metric loss sweep
  coll::CollImpl impl = coll::CollImpl::Auto;              // --metric coll / train
  bool impl_set = false;
  int ranks = 8;  ///< collective members / training workers (--metric coll, train)
  int steps = 3;  ///< training steps (--metric train)
  std::string stream_obs;  ///< --stream-obs FILE: JSONL stream of retired spans / windows
};

// --------------------------------------------------------------------------
// --stream-obs: one shared JSONL stream across every data point of a metric
// --------------------------------------------------------------------------

/// Owns the --stream-obs output file and its JsonlSink. Every metric that
/// constructs a simulated machine calls apply() from the fixture's setup hook
/// (attaching the sink to the span collector, so spans flow out as they
/// retire) and flush() after the run (windowed aggregates + utilization
/// timeline lines).
struct StreamObs {
  std::ofstream file;
  std::unique_ptr<obs::JsonlSink> jsonl;

  [[nodiscard]] bool active() const noexcept { return jsonl != nullptr; }

  bool open(const std::string& path) {
    if (path.empty()) return true;
    file.open(path);
    if (!file) {
      std::fprintf(stderr, "stream-obs: cannot open %s\n", path.c_str());
      return false;
    }
    jsonl = std::make_unique<obs::JsonlSink>(file);
    return true;
  }

  void apply(hw::System& sys) {
    if (jsonl) sys.obs.spans.enableStreaming({}, jsonl.get());
  }

  void emitUtil(hw::System& sys) {
    if (!jsonl || !sys.util.enabled()) return;
    const std::uint64_t wns = sys.util.windowNs();
    for (const auto& [key, busy] : sys.util.windows()) {
      const auto cls = static_cast<hw::ResClass>(key.first);
      jsonl->utilLine(hw::name(cls), key.second, wns, busy,
                      static_cast<std::uint64_t>(sys.util.classResources(cls)) * wns);
    }
  }

  void flush(hw::System& sys) {
    sys.obs.spans.flushWindows();
    emitUtil(sys);
  }
};

StreamObs g_stream;  // NOLINT: single-threaded CLI driver state

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --metric latency|bandwidth|jacobi|loss|match|breakdown|coll|train|failstop|"
      "multipath|profile\n"
      "                                      what to measure\n"
      "                                      (profile: critical-path attribution —\n"
      "                                      each measured iteration's wall time\n"
      "                                      decomposed into compute, per-link-class\n"
      "                                      wire wait, recv-post delay, early-arrival\n"
      "                                      wait and retry overhead, plus per-class\n"
      "                                      resource-utilization totals; components\n"
      "                                      sum to the wall time, checked to 1%% —\n"
      "                                      a violation exits nonzero; stacks charm,\n"
      "                                      ampi, charm4py unless --stack; uses\n"
      "                                      --sizes, --iters, --warmup, --mode,\n"
      "                                      --place, --nodes)\n"
      "                                      (multipath: single-path vs multi-path\n"
      "                                      device bandwidth — intra-node direct vs\n"
      "                                      direct + neighbor-staged NVLink route on\n"
      "                                      a second brick, inter-node NIC rail\n"
      "                                      striping at 1/2/4 rails; exits nonzero\n"
      "                                      if the speedup misses the acceptance\n"
      "                                      bars; uses --sizes, --stack, --iters,\n"
      "                                      --warmup, --window, --nodes)\n"
      "                                      (failstop: fail-stop recovery smoke —\n"
      "                                      trains each stack failure-free, then with\n"
      "                                      a PE killed mid-run; checks the detector-\n"
      "                                      driven abort, checkpoint/restart, and\n"
      "                                      bit-identical final model state; exits\n"
      "                                      nonzero on hang or mismatch; uses\n"
      "                                      --ranks, --steps, --impl)\n"
      "                                      (coll: pipelined allreduce per stack —\n"
      "                                      steady-state us/iteration per size and\n"
      "                                      algorithm; uses --ranks, --impl, --sizes,\n"
      "                                      --nodes; stacks ampi, charm, charm4py\n"
      "                                      unless --stack)\n"
      "                                      (train: data-parallel SGD per-step\n"
      "                                      anatomy — compute, bucket allreduce\n"
      "                                      union vs sum, overlap ratio; uses\n"
      "                                      --ranks, --steps, --impl)\n"
      "                                      (match: tag-matching engine occupancy\n"
      "                                      per stack — posted/unexpected\n"
      "                                      high-watermarks, bucket counts, longest\n"
      "                                      chains, scan steps; uses --nodes,\n"
      "                                      --window, --iters)\n"
      "                                      (breakdown: per-phase latency\n"
      "                                      percentiles from message-lifecycle\n"
      "                                      spans — metadata leg, recv-post delay,\n"
      "                                      early-arrival wait, data movement —\n"
      "                                      per stack and size; default stacks\n"
      "                                      charm,ampi,charm4py unless --stack)\n"
      "  --stack charm|ampi|ompi|charm4py    programming model (default charm)\n"
      "  --mode device|host                  GPU-aware (-D) or host-staging (-H)\n"
      "  --place intra|inter                 PE placement for micro-benchmarks\n"
      "  --nodes N                           simulated Summit nodes (default 2)\n"
      "  --sizes a,b,c                       message sizes in bytes (default: OSU sweep)\n"
      "  --iters N --warmup N --window N     benchmark repetition knobs\n"
      "  --grid X,Y,Z                        Jacobi global grid (default 1536^3)\n"
      "  --odf N                             Jacobi overdecomposition (charm only)\n"
      "  --no-gdrcopy                        simulate GDRCopy not being detected\n"
      "  --drop P                            uniform message-drop probability [0,1)\n"
      "  --fault-seed N                      fault injector seed (default 0x5eed)\n"
      "  --drops a,b,c                       drop rates in %% for --metric loss\n"
      "                                      (default 0,1,2,5,10)\n"
      "  --impl auto|ring|tree|reference     collective algorithm (default: sweep\n"
      "                                      ring, tree, reference for coll; auto\n"
      "                                      for train)\n"
      "  --ranks N                           collective members / training workers\n"
      "                                      (default 8)\n"
      "  --steps N                           training steps (default 3)\n"
      "  --json                              machine-readable JSON instead of CSV\n"
      "  --perfetto FILE                     (breakdown, profile) write a Chrome\n"
      "                                      trace_event JSON of the last data\n"
      "                                      point's spans (profile adds resource-\n"
      "                                      utilization counter tracks), loadable\n"
      "                                      in ui.perfetto.dev\n"
      "  --stream-obs FILE                   stream observability JSONL (any metric):\n"
      "                                      one JSON object per line, typed\n"
      "                                      span/window/util (schema checked by\n"
      "                                      tools/check_obs_stream.py)\n",
      argv0);
  std::exit(2);
}

std::vector<std::size_t> parseSizes(const char* s) {
  std::vector<std::size_t> out;
  for (const char* p = s; *p != '\0';) {
    char* end = nullptr;
    out.push_back(std::strtoull(p, &end, 10));
    p = *end == ',' ? end + 1 : end;
  }
  return out;
}

Args parse(int argc, char** argv) {
  Args a;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string opt = argv[i];
    if (opt == "--metric") {
      a.metric = need(i);
    } else if (opt == "--stack") {
      const std::string v = need(i);
      if (v == "charm") {
        a.stack = osu::Stack::Charm;
      } else if (v == "ampi") {
        a.stack = osu::Stack::Ampi;
      } else if (v == "ompi") {
        a.stack = osu::Stack::Ompi;
      } else if (v == "charm4py") {
        a.stack = osu::Stack::Charm4py;
      } else {
        usage(argv[0]);
      }
      a.stack_set = true;
    } else if (opt == "--json") {
      a.json = true;
    } else if (opt == "--perfetto") {
      a.perfetto = need(i);
    } else if (opt == "--stream-obs") {
      a.stream_obs = need(i);
    } else if (opt == "--mode") {
      const std::string v = need(i);
      a.mode = v == "host" ? osu::Mode::HostStaging : osu::Mode::Device;
    } else if (opt == "--place") {
      const std::string v = need(i);
      a.place = v == "inter" ? osu::Placement::InterNode : osu::Placement::IntraNode;
    } else if (opt == "--nodes") {
      a.nodes = std::atoi(need(i));
    } else if (opt == "--sizes") {
      a.sizes = parseSizes(need(i));
    } else if (opt == "--iters") {
      a.iters = std::atoi(need(i));
    } else if (opt == "--warmup") {
      a.warmup = std::atoi(need(i));
    } else if (opt == "--window") {
      a.window = std::atoi(need(i));
    } else if (opt == "--odf") {
      a.odf = std::atoi(need(i));
    } else if (opt == "--no-gdrcopy") {
      a.gdrcopy = false;
    } else if (opt == "--drop") {
      a.drop = std::atof(need(i));
      if (a.drop < 0.0 || a.drop >= 1.0) usage(argv[0]);
    } else if (opt == "--fault-seed") {
      a.fault_seed = std::strtoull(need(i), nullptr, 0);
    } else if (opt == "--drops") {
      a.drops.clear();
      for (std::size_t pct : parseSizes(need(i))) a.drops.push_back(static_cast<double>(pct) / 100.0);
      if (a.drops.empty()) usage(argv[0]);
    } else if (opt == "--impl") {
      const auto v = coll::parseImpl(need(i));
      if (!v) usage(argv[0]);
      a.impl = *v;
      a.impl_set = true;
    } else if (opt == "--ranks") {
      a.ranks = std::atoi(need(i));
      if (a.ranks < 1) usage(argv[0]);
    } else if (opt == "--steps") {
      a.steps = std::atoi(need(i));
      if (a.steps < 1) usage(argv[0]);
    } else if (opt == "--grid") {
      const auto v = parseSizes(need(i));
      if (v.size() != 3) usage(argv[0]);
      a.grid = {static_cast<std::int64_t>(v[0]), static_cast<std::int64_t>(v[1]),
                static_cast<std::int64_t>(v[2])};
    } else {
      usage(argv[0]);
    }
  }
  return a;
}

int runMicro(const Args& a) {
  osu::BenchConfig cfg;
  cfg.stack = a.stack;
  cfg.mode = a.mode;
  cfg.place = a.place;
  cfg.sizes = a.sizes;
  cfg.iters = a.iters;
  cfg.warmup = a.warmup;
  cfg.window = a.window;
  cfg.model = model::summit(a.nodes < 2 && a.place == osu::Placement::InterNode ? 2 : a.nodes);
  cfg.model.ucx.gdrcopy_enabled = a.gdrcopy;
  if (a.drop > 0.0) cfg.model.machine.fault = sim::FaultConfig::uniformLoss(a.drop, a.fault_seed);
  if (g_stream.active()) {
    cfg.setup = [](hw::System& sys) { g_stream.apply(sys); };
    cfg.inspect = [](hw::System& sys) { g_stream.flush(sys); };
  }
  const bool lat = a.metric == "latency";
  const auto pts = lat ? osu::runLatency(cfg) : osu::runBandwidth(cfg);
  const char* value_key = lat ? "one_way_latency_us" : "bandwidth_MBps";
  if (a.json) {
    std::printf("{\"metric\":\"%s\",\"points\":[", a.metric.c_str());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      std::printf("%s{\"size_bytes\":%zu,\"%s\":%.3f}", i == 0 ? "" : ",", pts[i].bytes,
                  value_key, pts[i].value);
    }
    std::printf("]}\n");
    return 0;
  }
  std::printf("size_bytes,%s\n", value_key);
  for (const auto& p : pts) std::printf("%zu,%.3f\n", p.bytes, p.value);
  return 0;
}

int runJacobi(const Args& a) {
  jacobi::JacobiConfig cfg;
  cfg.stack = static_cast<jacobi::Stack>(a.stack);
  cfg.mode = a.mode;
  cfg.nodes = a.nodes;
  cfg.grid = a.grid;
  cfg.iters = a.iters;
  cfg.warmup = a.warmup;
  cfg.backed = false;
  cfg.overdecomposition = a.odf;
  cfg.model = model::summit(a.nodes);
  cfg.model.ucx.gdrcopy_enabled = a.gdrcopy;
  if (a.drop > 0.0) cfg.model.machine.fault = sim::FaultConfig::uniformLoss(a.drop, a.fault_seed);
  if (g_stream.active()) {
    cfg.setup = [](hw::System& sys) { g_stream.apply(sys); };
    cfg.inspect = [](hw::System& sys) { g_stream.flush(sys); };
  }
  const auto r = jacobi::runJacobi(cfg);
  if (a.json) {
    std::printf("{\"metric\":\"jacobi\",\"nodes\":%d,"
                "\"grid\":[%lld,%lld,%lld],\"procs\":[%lld,%lld,%lld],"
                "\"overall_ms_per_iter\":%.3f,\"comm_ms_per_iter\":%.3f}\n",
                a.nodes, static_cast<long long>(a.grid.x), static_cast<long long>(a.grid.y),
                static_cast<long long>(a.grid.z), static_cast<long long>(r.dec.procs.x),
                static_cast<long long>(r.dec.procs.y), static_cast<long long>(r.dec.procs.z),
                r.overall_ms_per_iter, r.comm_ms_per_iter);
    return 0;
  }
  std::printf("nodes,grid,procs,overall_ms_per_iter,comm_ms_per_iter\n");
  std::printf("%d,%lldx%lldx%lld,%lldx%lldx%lld,%.3f,%.3f\n", a.nodes,
              static_cast<long long>(a.grid.x), static_cast<long long>(a.grid.y),
              static_cast<long long>(a.grid.z), static_cast<long long>(r.dec.procs.x),
              static_cast<long long>(r.dec.procs.y), static_cast<long long>(r.dec.procs.z),
              r.overall_ms_per_iter, r.comm_ms_per_iter);
  return 0;
}

/// Latency-vs-drop-rate sweep: the reliability layer's retransmission tax.
/// A fixed seed per rate keeps every row reproducible; a hung run would
/// report 0 latency, so completion itself is part of the measurement. Each
/// row also reports the recovery machinery's registry counters — how many
/// retransmissions, degraded-route fallbacks, and receive re-posts the
/// reliability layer spent to deliver that latency.
int runLoss(const Args& a) {
  osu::BenchConfig cfg;
  cfg.stack = a.stack;
  cfg.mode = a.mode;
  cfg.place = a.place;
  cfg.iters = a.iters;
  cfg.warmup = a.warmup;
  cfg.model = model::summit(a.nodes < 2 && a.place == osu::Placement::InterNode ? 2 : a.nodes);
  cfg.model.ucx.gdrcopy_enabled = a.gdrcopy;
  const std::vector<std::size_t> sizes =
      a.sizes.empty() ? std::vector<std::size_t>{4096, 65536, 1048576} : a.sizes;
  if (!a.json) {
    std::printf(
        "drop_percent,size_bytes,one_way_latency_us,retransmits,send_errors,fallbacks,"
        "recv_reposts\n");
  }
  if (a.json) std::printf("{\"metric\":\"loss\",\"points\":[");
  bool first = true;
  struct Recovery {
    std::uint64_t retransmits = 0;
    std::uint64_t send_errors = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t recv_reposts = 0;
  };
  for (const double rate : a.drops) {
    cfg.model.machine.fault = rate > 0.0 ? sim::FaultConfig::uniformLoss(rate, a.fault_seed)
                                         : sim::FaultConfig{};
    for (const std::size_t bytes : sizes) {
      Recovery rc;
      if (g_stream.active()) cfg.setup = [](hw::System& sys) { g_stream.apply(sys); };
      cfg.inspect = [&rc](hw::System& sys) {
        sys.obs.refresh();
        const obs::Registry& r = sys.obs.registry;
        rc.retransmits = r.gaugeValue("ucx.retransmits");
        rc.send_errors = r.gaugeValue("ucx.send_errors");
        rc.fallbacks = r.gaugeValue("lrts.fallbacks");
        rc.recv_reposts = r.gaugeValue("lrts.recv_reposts");
        g_stream.flush(sys);
      };
      const double lat = osu::latencyPoint(cfg, bytes);
      if (a.json) {
        std::printf("%s{\"drop_percent\":%.1f,\"size_bytes\":%zu,\"one_way_latency_us\":%.3f,"
                    "\"retransmits\":%llu,\"send_errors\":%llu,\"fallbacks\":%llu,"
                    "\"recv_reposts\":%llu}",
                    first ? "" : ",", rate * 100.0, bytes, lat,
                    static_cast<unsigned long long>(rc.retransmits),
                    static_cast<unsigned long long>(rc.send_errors),
                    static_cast<unsigned long long>(rc.fallbacks),
                    static_cast<unsigned long long>(rc.recv_reposts));
        first = false;
      } else {
        std::printf("%.1f,%zu,%.3f,%llu,%llu,%llu,%llu\n", rate * 100.0, bytes, lat,
                    static_cast<unsigned long long>(rc.retransmits),
                    static_cast<unsigned long long>(rc.send_errors),
                    static_cast<unsigned long long>(rc.fallbacks),
                    static_cast<unsigned long long>(rc.recv_reposts));
      }
    }
  }
  if (a.json) std::printf("]}\n");
  return 0;
}

// --------------------------------------------------------------------------
// --metric match: tag-matching engine occupancy per stack
// --------------------------------------------------------------------------

void printMatchRow(const Args& a, bool first, const char* stack,
                   const ucx::Worker::MatchStats& s) {
  if (a.json) {
    std::printf("%s{\"stack\":\"%s\",\"posted_hwm\":%zu,\"unexpected_hwm\":%zu,"
                "\"posted\":%zu,\"unexpected\":%zu,\"posted_buckets\":%zu,"
                "\"unexpected_buckets\":%zu,\"posted_max_chain\":%zu,"
                "\"unexpected_max_chain\":%zu,\"scan_steps\":%llu}",
                first ? "" : ",", stack, s.posted_hwm, s.unexpected_hwm, s.posted, s.unexpected,
                s.posted_buckets, s.unexpected_buckets, s.posted_max_chain,
                s.unexpected_max_chain, static_cast<unsigned long long>(s.scan_steps));
    return;
  }
  std::printf("%s,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%llu\n", stack, s.posted_hwm, s.unexpected_hwm,
              s.posted, s.unexpected, s.posted_buckets, s.unexpected_buckets, s.posted_max_chain,
              s.unexpected_max_chain, static_cast<unsigned long long>(s.scan_steps));
}

/// Drives a window-deep burst workload through each stack's matching engine
/// and reports occupancy: `--window` messages posted-first then `--window`
/// unexpected-first per iteration, so both the posted store and the
/// unexpected store reach their per-iteration high-watermarks. One row per
/// stack: raw UCX workers, the Charm++ machine layer's device-metadata path
/// (DeviceComm), and the AMPI (src, tag, comm) queues.
int runMatch(const Args& a) {
  const int nodes = a.nodes < 2 ? 2 : a.nodes;
  const int window = a.window < 1 ? 1 : a.window;
  const int iters = a.iters < 1 ? 1 : a.iters;
  if (a.json) {
    std::printf("{\"metric\":\"match\",\"rows\":[");
  } else {
    std::printf(
        "stack,posted_hwm,unexpected_hwm,posted,unexpected,posted_buckets,"
        "unexpected_buckets,posted_max_chain,unexpected_max_chain,scan_steps\n");
  }

  const auto tagOf = [](int it, int i) { return static_cast<ucx::Tag>(it * 100000 + i); };

  {  // raw UCX worker
    model::Model m = model::summit(nodes);
    hw::System sys(m.machine);
    if (g_stream.active()) g_stream.apply(sys);
    ucx::Context ctx(sys, m.ucx);
    std::vector<std::byte> src(256), dst(256);
    for (int it = 0; it < iters; ++it) {
      for (int i = 0; i < window; ++i) {
        ctx.worker(6).tagRecv(dst.data(), 256, tagOf(it, i), ucx::kFullMask, {});
      }
      for (int i = 0; i < window; ++i) ctx.tagSend(0, 6, src.data(), 256, tagOf(it, i), {});
      sys.engine.run();
      for (int i = 0; i < window; ++i) {
        ctx.tagSend(0, 6, src.data(), 256, tagOf(it, window + i), {});
      }
      sys.engine.run();
      for (int i = 0; i < window; ++i) {
        ctx.worker(6).tagRecv(dst.data(), 256, tagOf(it, window + i), ucx::kFullMask, {});
      }
      sys.engine.run();
    }
    g_stream.flush(sys);
    printMatchRow(a, true, "ucx", ctx.matchStats());
  }

  {  // Charm++ machine layer: GPU transfers whose metadata receives ride
     // Worker::tagRecv under a full mask
    model::Model m = model::summit(nodes);
    hw::System sys(m.machine);
    if (g_stream.active()) g_stream.apply(sys);
    ucx::Context ctx(sys, m.ucx);
    cmi::Converse cmi(sys, ctx, m.costs);
    core::DeviceComm dev(cmi);
    cuda::DeviceBuffer sbuf(sys, 0, 8192), dbuf(sys, 6, 8192);
    for (int it = 0; it < iters; ++it) {
      for (int i = 0; i < window; ++i) {
        cmi.runOn(0, [&dev, &cmi, &sbuf, &dbuf] {
          core::CmiDeviceBuffer buf{sbuf.get(), 8192, 0};
          dev.lrtsSendDevice(0, 6, buf);
          const auto device_tag = buf.tag;
          cmi.runOn(6, [&dev, &dbuf, device_tag] {
            dev.lrtsRecvDevice(6, core::DeviceRdmaOp{dbuf.get(), 8192, device_tag},
                               core::DeviceRecvType::Charm, {});
          });
        });
      }
      sys.engine.run();
    }
    g_stream.flush(sys);
    printMatchRow(a, false, "charm", dev.matchStats());
  }

  {  // AMPI: (src, tag, comm) matching over the bucketed rank queues
    model::Model m = model::summit(nodes);
    hw::System sys(m.machine);
    if (g_stream.active()) g_stream.apply(sys);
    ucx::Context ctx(sys, m.ucx);
    ck::Runtime rt(sys, ctx, m);
    ampi::World world(rt);
    std::vector<std::byte> src(256), dst(256);
    world.run([&](ampi::Rank& r) -> sim::FutureTask {
      if (r.rank() == 0) {
        for (int it = 0; it < iters; ++it) {
          std::vector<ampi::Request> reqs;
          reqs.reserve(static_cast<std::size_t>(window));
          for (int i = 0; i < window; ++i) reqs.push_back(r.isend(src.data(), 256, 1, i));
          for (auto& q : reqs) co_await r.wait(q);
        }
      } else if (r.rank() == 1) {
        for (int it = 0; it < iters; ++it) {
          std::vector<ampi::Request> reqs;
          reqs.reserve(static_cast<std::size_t>(window));
          for (int i = 0; i < window; ++i) reqs.push_back(r.irecv(dst.data(), 256, 0, i));
          for (auto& q : reqs) co_await r.wait(q);
        }
      }
      co_return;
    });
    sys.engine.run();
    if (!world.done().ready()) {
      std::fprintf(stderr, "match: AMPI workload deadlocked\n");
      return 1;
    }
    g_stream.flush(sys);
    printMatchRow(a, false, "ampi", world.matchStats());
  }
  if (a.json) std::printf("]}\n");
  return 0;
}

// --------------------------------------------------------------------------
// --metric breakdown: per-phase latency percentiles from lifecycle spans
// --------------------------------------------------------------------------

/// CLI identifier of a stack (lowercase, matches the --stack values).
[[nodiscard]] const char* stackKey(osu::Stack s) {
  switch (s) {
    case osu::Stack::Charm:
      return "charm";
    case osu::Stack::Ampi:
      return "ampi";
    case osu::Stack::Ompi:
      return "ompi";
    case osu::Stack::Charm4py:
      return "charm4py";
  }
  return "?";
}

/// Runs the OSU latency point per stack and size with span collection on and
/// reports per-phase interval percentiles: the metadata leg, the recv-post
/// delay (the paper's delayed-posting limitation), the early-arrival wait and
/// the data movement, none of which the end-to-end latency figures can show.
int runBreakdown(const Args& a) {
  const std::vector<osu::Stack> stacks =
      a.stack_set ? std::vector<osu::Stack>{a.stack}
                  : std::vector<osu::Stack>{osu::Stack::Charm, osu::Stack::Ampi,
                                            osu::Stack::Charm4py};
  const std::vector<std::size_t> sizes =
      a.sizes.empty() ? std::vector<std::size_t>{4096, 65536, 1048576} : a.sizes;

  struct Row {
    const char* stack;
    std::size_t bytes;
    double latency_us;
    obs::Breakdown b;
  };
  std::vector<Row> rows;
  std::ofstream trace_file;  // --perfetto: trace of the last point
  std::unique_ptr<obs::PerfettoSink> trace;
  if (!a.perfetto.empty()) {
    trace_file.open(a.perfetto);
    if (!trace_file) {
      std::fprintf(stderr, "breakdown: cannot open %s\n", a.perfetto.c_str());
      return 1;
    }
    trace = std::make_unique<obs::PerfettoSink>(trace_file);
  }

  for (const osu::Stack stack : stacks) {
    for (const std::size_t bytes : sizes) {
      osu::BenchConfig cfg;
      cfg.stack = stack;
      cfg.mode = a.mode;
      cfg.place = a.place;
      cfg.iters = a.iters;
      cfg.warmup = a.warmup;
      cfg.model =
          model::summit(a.nodes < 2 && a.place == osu::Placement::InterNode ? 2 : a.nodes);
      cfg.model.ucx.gdrcopy_enabled = a.gdrcopy;
      if (a.drop > 0.0) {
        cfg.model.machine.fault = sim::FaultConfig::uniformLoss(a.drop, a.fault_seed);
      }
      cfg.observe = true;
      Row row{stackKey(stack), bytes, 0.0, {}};
      obs::Sink* last_trace =
          stack == stacks.back() && bytes == sizes.back() ? trace.get() : nullptr;
      cfg.setup = [&row, last_trace](hw::System& sys) {
        sys.obs.spans.enableStreaming({}, &row.b);
        sys.obs.spans.enableStreaming({}, last_trace);
        g_stream.apply(sys);
      };
      cfg.inspect = [](hw::System& sys) { g_stream.flush(sys); };
      row.latency_us = osu::latencyPoint(cfg, bytes);
      rows.push_back(std::move(row));
    }
  }

  struct Interval {
    const char* name;
    std::vector<double> obs::Breakdown::* samples;
  };
  const Interval intervals[] = {
      {"total", &obs::Breakdown::total},           {"meta", &obs::Breakdown::meta},
      {"post_delay", &obs::Breakdown::post_delay}, {"early_wait", &obs::Breakdown::early_wait},
      {"data", &obs::Breakdown::data},
  };

  if (a.json) {
    std::printf("{\"metric\":\"breakdown\",\"points\":[");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      Row& r = rows[i];
      std::printf("%s{\"stack\":\"%s\",\"size_bytes\":%zu,\"one_way_latency_us\":%.3f,"
                  "\"spans\":%llu,\"completed\":%llu,\"errored\":%llu,"
                  "\"matched_posted\":%llu,\"matched_unexpected\":%llu,"
                  "\"retries\":%llu,\"fallbacks\":%llu,\"intervals\":{",
                  i == 0 ? "" : ",", r.stack, r.bytes, r.latency_us,
                  static_cast<unsigned long long>(r.b.spans),
                  static_cast<unsigned long long>(r.b.completed),
                  static_cast<unsigned long long>(r.b.errored),
                  static_cast<unsigned long long>(r.b.matched_posted),
                  static_cast<unsigned long long>(r.b.matched_unexpected),
                  static_cast<unsigned long long>(r.b.retries),
                  static_cast<unsigned long long>(r.b.fallbacks));
      for (std::size_t k = 0; k < std::size(intervals); ++k) {
        std::vector<double>& v = r.b.*(intervals[k].samples);
        std::printf("%s\"%s\":{\"samples\":%zu,\"p50_us\":%.3f,\"p90_us\":%.3f,"
                    "\"p99_us\":%.3f}",
                    k == 0 ? "" : ",", intervals[k].name, v.size(), obs::percentile(v, 50),
                    obs::percentile(v, 90), obs::percentile(v, 99));
      }
      std::printf("}}");
    }
    std::printf("]}\n");
  } else {
    std::printf("stack,size_bytes,interval,samples,p50_us,p90_us,p99_us\n");
    for (Row& r : rows) {
      for (const Interval& iv : intervals) {
        std::vector<double>& v = r.b.*(iv.samples);
        std::printf("%s,%zu,%s,%zu,%.3f,%.3f,%.3f\n", r.stack, r.bytes, iv.name, v.size(),
                    obs::percentile(v, 50), obs::percentile(v, 90), obs::percentile(v, 99));
      }
    }
  }

  if (trace) std::fprintf(stderr, "breakdown: wrote Perfetto trace to %s\n", a.perfetto.c_str());
  return 0;
}

// --------------------------------------------------------------------------
// --metric multipath: single-path vs multi-path device bandwidth
// --------------------------------------------------------------------------

/// fig12/fig13-style device bandwidth with the multi-path transfer engine
/// off and on. Intra-node: the single direct NVLink route vs direct + one
/// neighbor-staged route on a second brick (nvlink_bricks=2). Inter-node:
/// NIC rail striping at rail counts 1, 2, 4. Exits nonzero when the
/// intra-node speedup at >= 4 MiB falls below the 1.5x acceptance bar or
/// the inter-node bandwidth fails to grow with the rail count.
int runMultipath(const Args& a) {
  auto point = [&](osu::Placement place, std::size_t bytes, bool multipath, int bricks,
                   int rails) {
    osu::BenchConfig cfg;
    cfg.stack = a.stack;
    cfg.mode = osu::Mode::Device;
    cfg.place = place;
    cfg.iters = a.iters;
    cfg.warmup = a.warmup;
    cfg.window = a.window;
    cfg.model =
        model::summit(std::max(a.nodes, place == osu::Placement::InterNode ? 2 : 1));
    cfg.model.machine.backed_device_memory = false;  // timing-only run
    cfg.model.machine.nvlink_bricks = bricks;
    cfg.model.machine.nic_rails = rails;
    cfg.model.ucx.multipath.enabled = multipath;
    if (g_stream.active()) {
      cfg.setup = [](hw::System& sys) { g_stream.apply(sys); };
      cfg.inspect = [](hw::System& sys) { g_stream.flush(sys); };
    }
    return osu::bandwidthPoint(cfg, bytes);
  };

  std::vector<std::size_t> sizes = a.sizes;
  if (sizes.empty()) sizes = {1u << 20, 4u << 20, 16u << 20};
  const int rail_counts[] = {1, 2, 4};

  bool ok = true;
  if (!a.json) std::printf("scope,config,size_bytes,bandwidth_MBps,speedup\n");
  if (a.json) std::printf("{\"metric\":\"multipath\",\"intra\":[");
  bool first = true;
  for (const std::size_t s : sizes) {
    const double single = point(osu::Placement::IntraNode, s, false, 1, 1);
    const double multi = point(osu::Placement::IntraNode, s, true, 2, 1);
    const double speedup = single > 0.0 ? multi / single : 0.0;
    // Acceptance (ISSUE 9): >= 1.5x at >= 4 MiB with two usable NVLink routes.
    if (s >= (4u << 20) && speedup < 1.5) ok = false;
    if (a.json) {
      std::printf("%s{\"size_bytes\":%zu,\"single_MBps\":%.1f,\"multi_MBps\":%.1f,"
                  "\"speedup\":%.3f}",
                  first ? "" : ",", s, single, multi, speedup);
    } else {
      std::printf("intra,single,%zu,%.1f,1.000\n", s, single);
      std::printf("intra,multi_bricks2,%zu,%.1f,%.3f\n", s, multi, speedup);
    }
    first = false;
  }
  if (a.json) std::printf("],\"inter\":[");
  first = true;
  for (const std::size_t s : sizes) {
    double rail_bw[3] = {0, 0, 0};
    for (int i = 0; i < 3; ++i)
      rail_bw[i] = point(osu::Placement::InterNode, s, true, 1, rail_counts[i]);
    // Rails must add bandwidth for large transfers (the single NVLink egress
    // brick at 50 GB/s caps the 4-rail configuration well before 4x).
    if (s >= (4u << 20) && !(rail_bw[1] > rail_bw[0] * 1.3 && rail_bw[2] > rail_bw[1])) {
      ok = false;
    }
    for (int i = 0; i < 3; ++i) {
      const double speedup = rail_bw[0] > 0.0 ? rail_bw[i] / rail_bw[0] : 0.0;
      if (a.json) {
        std::printf("%s{\"size_bytes\":%zu,\"rails\":%d,\"bandwidth_MBps\":%.1f,"
                    "\"speedup\":%.3f}",
                    first ? "" : ",", s, rail_counts[i], rail_bw[i], speedup);
      } else {
        std::printf("inter,rails%d,%zu,%.1f,%.3f\n", rail_counts[i], s, rail_bw[i], speedup);
      }
      first = false;
    }
  }
  if (a.json) std::printf("],\"ok\":%s}\n", ok ? "true" : "false");
  if (!ok) {
    std::fprintf(stderr,
                 "multipath: ACCEPTANCE FAILURE — intra-node speedup < 1.5x at >= 4 MiB "
                 "or inter-node bandwidth not scaling with rails\n");
    return 1;
  }
  return 0;
}

// --------------------------------------------------------------------------
// --metric coll: pipelined collectives per stack, algorithm, and size
// --------------------------------------------------------------------------

/// Iteration loop shared by all three stacks: `total` back-to-back
/// allreduces with a distinct tag slot per iteration, recording the virtual
/// time at which the last member finishes each iteration.
template <class RankT>
sim::FutureTask collLoop(RankT r, hw::System* sys, void* src, void* dst, std::uint64_t count,
                         coll::CollConfig cfg, int total, std::shared_ptr<std::vector<int>> left,
                         std::shared_ptr<std::vector<sim::TimePoint>> done) {
  for (int it = 0; it < total; ++it) {
    co_await coll::allreduce(r, src, dst, count, coll::Op::Sum, coll::collTag(it), cfg);
    const auto slot = static_cast<std::size_t>(it);
    if (--(*left)[slot] == 0) (*done)[slot] = sys->engine.now();
  }
}

/// Steady-state us/iteration of a device-buffer allreduce on one stack.
double collPoint(const Args& a, osu::Stack stack, coll::CollImpl impl, std::uint64_t bytes,
                 int warmup, int iters) {
  const int nodes = std::max(a.nodes, (a.ranks + 5) / 6);
  model::Model m = model::summit(nodes);
  m.machine.backed_device_memory = false;  // timing-only run
  if (a.drop > 0.0) m.machine.fault = sim::FaultConfig::uniformLoss(a.drop, a.fault_seed);
  hw::System sys(m.machine);
  if (g_stream.active()) g_stream.apply(sys);
  ucx::Context ctx(sys, m.ucx);
  ck::Runtime rt(sys, ctx, m);

  const int n = a.ranks;
  const std::uint64_t count = bytes / 8;
  const int total = warmup + iters;
  std::vector<int> pes;
  std::vector<std::unique_ptr<cuda::DeviceBuffer>> src, dst;
  for (int r = 0; r < n; ++r) {
    pes.push_back(r);
    src.push_back(std::make_unique<cuda::DeviceBuffer>(sys, r, bytes));
    dst.push_back(std::make_unique<cuda::DeviceBuffer>(sys, r, bytes));
  }
  auto left = std::make_shared<std::vector<int>>(static_cast<std::size_t>(total), n);
  auto done = std::make_shared<std::vector<sim::TimePoint>>(static_cast<std::size_t>(total), 0);
  coll::CollConfig cfg;
  cfg.impl = impl;

  std::unique_ptr<ampi::World> world;
  std::unique_ptr<coll::CharmSection> sec;
  std::unique_ptr<c4p::Charm4py> py;
  std::unique_ptr<coll::C4pGroup> grp;
  switch (stack) {
    case osu::Stack::Ampi:
      world = std::make_unique<ampi::World>(rt, n);
      world->run([&](ampi::Rank& r) -> sim::FutureTask {
        const auto i = static_cast<std::size_t>(r.rank());
        return collLoop(r, &sys, src[i]->get(), dst[i]->get(), count, cfg, total, left, done);
      });
      break;
    case osu::Stack::Charm:
      sec = std::make_unique<coll::CharmSection>(rt, pes);
      for (int r = 0; r < n; ++r) {
        const auto i = static_cast<std::size_t>(r);
        coll::SectionRank sr = sec->rank(r);
        rt.startOn(r, [sr, &sys, s = src[i]->get(), d = dst[i]->get(), count, cfg, total, left,
                       done]() mutable {
          (void)collLoop(sr, &sys, s, d, count, cfg, total, left, done);
        });
      }
      break;
    case osu::Stack::Charm4py:
      py = std::make_unique<c4p::Charm4py>(rt);
      grp = std::make_unique<coll::C4pGroup>(*py, pes);
      for (int r = 0; r < n; ++r) {
        const auto i = static_cast<std::size_t>(r);
        coll::C4pRank cr = grp->rank(r);
        py->startOn(r, [cr, &sys, s = src[i]->get(), d = dst[i]->get(), count, cfg, total, left,
                        done]() mutable {
          (void)collLoop(cr, &sys, s, d, count, cfg, total, left, done);
        });
      }
      break;
    case osu::Stack::Ompi:
      break;  // rejected in runColl
  }
  sys.engine.run();
  g_stream.flush(sys);
  const auto first = static_cast<std::size_t>(warmup - 1);
  const auto last = static_cast<std::size_t>(total - 1);
  if ((*done)[last] == 0) {
    std::fprintf(stderr, "coll: %s allreduce did not complete\n", stackKey(stack));
    std::exit(1);
  }
  return sim::toUs((*done)[last] - (*done)[first]) / iters;
}

int runColl(const Args& a) {
  if (a.stack_set && a.stack == osu::Stack::Ompi) {
    std::fprintf(stderr, "coll: stacks are ampi, charm, charm4py\n");
    return 2;
  }
  const std::vector<osu::Stack> stacks =
      a.stack_set ? std::vector<osu::Stack>{a.stack}
                  : std::vector<osu::Stack>{osu::Stack::Ampi, osu::Stack::Charm,
                                            osu::Stack::Charm4py};
  const std::vector<coll::CollImpl> impls =
      a.impl_set ? std::vector<coll::CollImpl>{a.impl}
                 : std::vector<coll::CollImpl>{coll::CollImpl::Ring, coll::CollImpl::Tree,
                                               coll::CollImpl::Reference};
  const std::vector<std::size_t> sizes =
      a.sizes.empty() ? std::vector<std::size_t>{65536, 1048576, 4194304} : a.sizes;
  const int warmup = 1;
  const int iters = std::min(a.iters, 10);

  if (a.json) std::printf("{\"metric\":\"coll\",\"points\":[");
  if (!a.json) std::printf("stack,impl,size_bytes,allreduce_us\n");
  bool first = true;
  for (const osu::Stack stack : stacks) {
    for (const coll::CollImpl impl : impls) {
      for (const std::size_t bytes : sizes) {
        const double us = collPoint(a, stack, impl, bytes, warmup, iters);
        if (a.json) {
          std::printf("%s{\"stack\":\"%s\",\"impl\":\"%s\",\"size_bytes\":%zu,"
                      "\"allreduce_us\":%.3f}",
                      first ? "" : ",", stackKey(stack), coll::name(impl), bytes, us);
          first = false;
        } else {
          std::printf("%s,%s,%zu,%.3f\n", stackKey(stack), coll::name(impl), bytes, us);
        }
      }
    }
  }
  if (a.json) std::printf("]}\n");
  return 0;
}

// --------------------------------------------------------------------------
// --metric train: data-parallel SGD per-step anatomy
// --------------------------------------------------------------------------

/// CLI identifier of a training stack (matches the --stack values).
[[nodiscard]] const char* trainKey(train::Stack s) {
  switch (s) {
    case train::Stack::Ampi:
      return "ampi";
    case train::Stack::Charm:
      return "charm";
    case train::Stack::Charm4py:
      return "charm4py";
  }
  return "?";
}

int runTrainMetric(const Args& a) {
  if (a.stack_set && a.stack == osu::Stack::Ompi) {
    std::fprintf(stderr, "train: stacks are ampi, charm, charm4py\n");
    return 2;
  }
  const std::vector<train::Stack> stacks =
      a.stack_set ? std::vector<train::Stack>{a.stack == osu::Stack::Ampi ? train::Stack::Ampi
                                              : a.stack == osu::Stack::Charm
                                                  ? train::Stack::Charm
                                                  : train::Stack::Charm4py}
                  : std::vector<train::Stack>{train::Stack::Ampi, train::Stack::Charm,
                                              train::Stack::Charm4py};
  train::TrainConfig cfg;
  cfg.ranks = a.ranks;
  cfg.steps = a.steps;
  cfg.nodes = std::max(a.nodes, (a.ranks + 5) / 6);
  if (a.impl_set) cfg.coll.impl = a.impl;
  cfg.host_staged = a.mode == osu::Mode::HostStaging;
  // Span lines stream at retirement; attempts have no post-run hook, so the
  // window aggregates of a training attempt are not emitted.
  if (g_stream.active()) cfg.setup = [](hw::System& sys) { g_stream.apply(sys); };

  if (a.json) std::printf("{\"metric\":\"train\",\"points\":[");
  if (!a.json) {
    std::printf(
        "stack,step,step_us,compute_us,allreduce_wall_us,bucket_sum_us,overlap_ratio,"
        "optimizer_us\n");
  }
  bool first = true;
  bool all_verified = true;
  for (const train::Stack stack : stacks) {
    const train::TrainResult r = train::runTrain(cfg, stack);
    all_verified = all_verified && (r.verified || !cfg.verify);
    if (a.json) {
      std::printf("%s{\"stack\":\"%s\",\"ranks\":%d,\"buckets\":%d,\"verified\":%s,"
                  "\"avg_step_us\":%.1f,\"steady_overlap_ratio\":%.3f,\"steps\":[",
                  first ? "" : ",", trainKey(stack), r.ranks, r.buckets,
                  r.verified ? "true" : "false", r.avgStepUs(), r.avgOverlap());
      for (std::size_t s = 0; s < r.steps.size(); ++s) {
        const train::StepStat& st = r.steps[s];
        std::printf("%s{\"step_us\":%.1f,\"compute_us\":%.1f,\"allreduce_wall_us\":%.1f,"
                    "\"bucket_sum_us\":%.1f,\"optimizer_us\":%.1f}",
                    s == 0 ? "" : ",", st.step_us, st.compute_us, st.allreduce_wall_us,
                    st.bucket_sum_us, st.optimizer_us);
      }
      std::printf("]}");
      first = false;
    } else {
      for (std::size_t s = 0; s < r.steps.size(); ++s) {
        const train::StepStat& st = r.steps[s];
        std::printf("%s,%zu,%.1f,%.1f,%.1f,%.1f,%.3f,%.1f\n", trainKey(stack), s, st.step_us,
                    st.compute_us, st.allreduce_wall_us, st.bucket_sum_us, st.overlapRatio(),
                    st.optimizer_us);
      }
    }
  }
  if (a.json) std::printf("]}\n");
  if (!all_verified) {
    std::fprintf(stderr, "train: gradient verification FAILED\n");
    return 1;
  }
  return 0;
}

// --------------------------------------------------------------------------
// --metric failstop: fail-stop recovery smoke (checkpoint/restart identity)
// --------------------------------------------------------------------------

/// Runs the training workload per stack twice: failure-free, then with a
/// fail-stop PE death injected mid-run — detector-bounded abort, drained
/// collectives, PUP checkpoint/restart on a fresh machine. Exits nonzero
/// when any stack hangs a rank, fails to recover, or recovers to a model
/// state that is not bit-identical to the unfailed run's. CI's failure-sweep
/// smoke step runs exactly this.
int runFailstop(const Args& a) {
  if (a.stack_set && a.stack == osu::Stack::Ompi) {
    std::fprintf(stderr, "failstop: stacks are ampi, charm, charm4py\n");
    return 2;
  }
  const std::vector<train::Stack> stacks =
      a.stack_set ? std::vector<train::Stack>{a.stack == osu::Stack::Ampi ? train::Stack::Ampi
                                              : a.stack == osu::Stack::Charm
                                                  ? train::Stack::Charm
                                                  : train::Stack::Charm4py}
                  : std::vector<train::Stack>{train::Stack::Ampi, train::Stack::Charm,
                                              train::Stack::Charm4py};
  train::TrainConfig cfg;
  cfg.ranks = a.ranks;
  cfg.steps = a.steps;
  cfg.nodes = std::max(a.nodes, (a.ranks + 5) / 6);
  if (a.impl_set) cfg.coll.impl = a.impl;
  cfg.host_staged = a.mode == osu::Mode::HostStaging;
  if (g_stream.active()) cfg.setup = [](hw::System& sys) { g_stream.apply(sys); };

  if (a.json) std::printf("{\"metric\":\"failstop\",\"points\":[");
  if (!a.json) {
    std::printf(
        "stack,kill_at_us,restarts,completed_steps,hung_ranks,digest_match,verified,status\n");
  }
  bool first = true;
  bool ok_all = true;
  for (const train::Stack stack : stacks) {
    const train::TrainResult base = train::runTrain(cfg, stack);
    // Kill a non-root worker at 40% of the unfailed run's virtual wall time:
    // safely mid-run, so collectives are still outstanding and the abort +
    // restart path genuinely executes.
    train::TrainConfig fcfg = cfg;
    fcfg.fault.kill_pe = 1;
    fcfg.fault.kill_at_us = base.total_us * 0.4;
    const train::TrainResult rec = train::runTrain(fcfg, stack);
    const bool digest_match = rec.model_digest == base.model_digest;
    const bool ok = !base.failed && base.hung_ranks == 0 && base.verified && !rec.failed &&
                    rec.hung_ranks == 0 && rec.verified && rec.recovered && rec.restarts >= 1 &&
                    rec.completed_steps == cfg.steps && digest_match;
    ok_all = ok_all && ok;
    if (a.json) {
      std::printf("%s{\"stack\":\"%s\",\"kill_at_us\":%.1f,\"restarts\":%d,"
                  "\"completed_steps\":%d,\"hung_ranks\":%d,\"digest_match\":%s,"
                  "\"verified\":%s,\"status\":\"%s\"}",
                  first ? "" : ",", trainKey(stack), fcfg.fault.kill_at_us, rec.restarts,
                  rec.completed_steps, rec.hung_ranks, digest_match ? "true" : "false",
                  rec.verified ? "true" : "false", ok ? "ok" : "FAIL");
      first = false;
    } else {
      std::printf("%s,%.1f,%d,%d,%d,%s,%s,%s\n", trainKey(stack), fcfg.fault.kill_at_us,
                  rec.restarts, rec.completed_steps, rec.hung_ranks,
                  digest_match ? "yes" : "NO", rec.verified ? "yes" : "NO", ok ? "ok" : "FAIL");
    }
  }
  if (a.json) std::printf("]}\n");
  if (!ok_all) {
    std::fprintf(stderr, "failstop: fail-stop recovery FAILED\n");
    return 1;
  }
  return 0;
}

// --------------------------------------------------------------------------
// --metric profile: critical-path attribution + resource utilization
// --------------------------------------------------------------------------

/// One Perfetto counter track per resource class: per-window utilization
/// (busy ns / capacity ns), sampled at each window's start time.
[[nodiscard]] std::vector<obs::CounterTrack> utilCounters(const hw::UtilRecorder& u) {
  std::vector<obs::CounterTrack> out(hw::kResClassCount);
  for (std::size_t c = 0; c < hw::kResClassCount; ++c) {
    out[c].name = std::string("util.") + hw::name(static_cast<hw::ResClass>(c));
  }
  const double w_us = static_cast<double>(u.windowNs()) / 1000.0;
  for (const auto& [key, busy] : u.windows()) {
    const auto cls = static_cast<std::size_t>(key.first);
    const std::uint32_t n = u.classResources(static_cast<hw::ResClass>(key.first));
    const double cap = static_cast<double>(u.windowNs()) * (n == 0 ? 1 : n);
    out[cls].points.emplace_back(static_cast<double>(key.second) * w_us,
                                 static_cast<double>(busy) / cap);
  }
  std::erase_if(out, [](const obs::CounterTrack& t) { return t.points.empty(); });
  return out;
}

/// Runs the OSU latency point per stack and size with streaming span
/// collection, utilization recording and iteration marks on, and decomposes
/// each measured iteration's wall time into compute, per-link-class wire
/// wait, recv-post delay, early-arrival wait, and retry/fallback overhead.
/// The boundary-sweep partition makes the components sum to the wall time by
/// construction; the 1% acceptance bound is still cross-checked and a
/// violation exits nonzero. Utilization columns are whole-point class totals
/// (repeated on every iteration row of the point).
int runProfile(const Args& a) {
  const std::vector<osu::Stack> stacks =
      a.stack_set ? std::vector<osu::Stack>{a.stack}
                  : std::vector<osu::Stack>{osu::Stack::Charm, osu::Stack::Ampi,
                                            osu::Stack::Charm4py};
  const std::vector<std::size_t> sizes =
      a.sizes.empty() ? std::vector<std::size_t>{4096, 65536, 1048576} : a.sizes;

  struct Point {
    const char* stack = "";
    std::size_t bytes = 0;
    double latency_us = 0;
    std::vector<obs::CritPath::Iteration> iters;
    std::array<std::uint64_t, hw::kResClassCount> busy{};
    std::array<std::uint32_t, hw::kResClassCount> nres{};
    std::uint64_t spans = 0, retired = 0, open_hwm = 0, dropped = 0, windows = 0;
  };
  std::vector<Point> points;
  std::vector<obs::CounterTrack> last_counters;  // --perfetto: last point's timeline
  bool sum_ok = true;

  for (const osu::Stack stack : stacks) {
    for (const std::size_t bytes : sizes) {
      osu::BenchConfig cfg;
      cfg.stack = stack;
      cfg.mode = a.mode;
      cfg.place = a.place;
      cfg.iters = a.iters;
      cfg.warmup = a.warmup;
      cfg.model =
          model::summit(a.nodes < 2 && a.place == osu::Placement::InterNode ? 2 : a.nodes);
      cfg.model.ucx.gdrcopy_enabled = a.gdrcopy;
      if (a.drop > 0.0) {
        cfg.model.machine.fault = sim::FaultConfig::uniformLoss(a.drop, a.fault_seed);
      }
      cfg.observe = true;

      obs::CritPathConfig ccfg;
      ccfg.gpus_per_node = cfg.model.machine.gpus_per_node;
      ccfg.host_staged = a.mode == osu::Mode::HostStaging;
      obs::CritPath crit(ccfg);

      Point p;
      p.stack = stackKey(stack);
      p.bytes = bytes;
      std::vector<sim::TimePoint> marks;
      cfg.setup = [&crit](hw::System& sys) {
        sys.obs.spans.enableStreaming({}, &crit);
        g_stream.apply(sys);
        sys.enableUtil();
      };
      cfg.inspect = [&](hw::System& sys) {
        marks = sys.obs.iterationMarks();
        sys.obs.spans.flushWindows();
        p.spans = sys.obs.spans.begun();
        p.retired = sys.obs.spans.retired();
        p.open_hwm = sys.obs.spans.openHighWatermark();
        p.dropped = sys.obs.spans.droppedEvents();
        p.windows = sys.obs.spans.windows().size();
        for (std::size_t c = 0; c < hw::kResClassCount; ++c) {
          p.busy[c] = sys.util.classBusy(static_cast<hw::ResClass>(c));
          p.nres[c] = sys.util.classResources(static_cast<hw::ResClass>(c));
        }
        g_stream.emitUtil(sys);
        if (!a.perfetto.empty()) last_counters = utilCounters(sys.util);
      };
      p.latency_us = osu::latencyPoint(cfg, bytes);
      p.iters = crit.attribute(marks);
      for (const obs::CritPath::Iteration& it : p.iters) {
        double sum = 0;
        for (const double v : it.us) sum += v;
        if (it.wall_us > 0 && std::abs(sum - it.wall_us) / it.wall_us > 0.01) sum_ok = false;
      }
      points.push_back(std::move(p));
    }
  }

  const auto catUs = [](const obs::CritPath::Iteration& it, obs::CritCat c) {
    return it.us[static_cast<std::size_t>(c)];
  };

  if (a.json) {
    std::printf("{\"metric\":\"profile\",\"points\":[");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      std::printf("%s{\"stack\":\"%s\",\"size_bytes\":%zu,\"one_way_latency_us\":%.3f,"
                  "\"spans_begun\":%llu,\"spans_retired\":%llu,\"open_hwm\":%llu,"
                  "\"dropped_events\":%llu,\"windows\":%llu,\"util\":{",
                  i == 0 ? "" : ",", p.stack, p.bytes, p.latency_us,
                  static_cast<unsigned long long>(p.spans),
                  static_cast<unsigned long long>(p.retired),
                  static_cast<unsigned long long>(p.open_hwm),
                  static_cast<unsigned long long>(p.dropped),
                  static_cast<unsigned long long>(p.windows));
      for (std::size_t c = 0; c < hw::kResClassCount; ++c) {
        std::printf("%s\"%s\":{\"resources\":%u,\"busy_ns\":%llu}", c == 0 ? "" : ",",
                    hw::name(static_cast<hw::ResClass>(c)), p.nres[c],
                    static_cast<unsigned long long>(p.busy[c]));
      }
      std::printf("},\"iterations\":[");
      for (std::size_t k = 0; k < p.iters.size(); ++k) {
        const obs::CritPath::Iteration& it = p.iters[k];
        double sum = 0;
        for (const double v : it.us) sum += v;
        std::printf("%s{\"wall_us\":%.3f", k == 0 ? "" : ",", it.wall_us);
        for (std::size_t c = 0; c < obs::kCritCatCount; ++c) {
          std::printf(",\"%s_us\":%.3f", obs::name(static_cast<obs::CritCat>(c)),
                      it.us[c]);
        }
        std::printf(",\"sum_err_pct\":%.4f}",
                    it.wall_us > 0 ? std::abs(sum - it.wall_us) / it.wall_us * 100.0 : 0.0);
      }
      std::printf("]}");
    }
    std::printf("],\"sum_ok\":%s}\n", sum_ok ? "true" : "false");
  } else {
    std::printf("stack,size_bytes,iter,wall_us,retry_us,post_delay_us,early_wait_us,"
                "link_nic_us,link_nvlink_us,link_shm_us,host_meta_us,compute_us,"
                "sum_err_pct,nvlink_busy_ns,xbus_busy_ns,nic_busy_ns,shm_busy_ns,"
                "gpu_busy_ns\n");
    for (const Point& p : points) {
      for (std::size_t k = 0; k < p.iters.size(); ++k) {
        const obs::CritPath::Iteration& it = p.iters[k];
        double sum = 0;
        for (const double v : it.us) sum += v;
        std::printf(
            "%s,%zu,%zu,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,%.4f,%llu,%llu,%llu,"
            "%llu,%llu\n",
            p.stack, p.bytes, k, it.wall_us, catUs(it, obs::CritCat::Retry),
            catUs(it, obs::CritCat::PostDelay), catUs(it, obs::CritCat::EarlyWait),
            catUs(it, obs::CritCat::LinkNic), catUs(it, obs::CritCat::LinkNvLink),
            catUs(it, obs::CritCat::LinkShm), catUs(it, obs::CritCat::HostMeta),
            catUs(it, obs::CritCat::Compute),
            it.wall_us > 0 ? std::abs(sum - it.wall_us) / it.wall_us * 100.0 : 0.0,
            static_cast<unsigned long long>(p.busy[0]),
            static_cast<unsigned long long>(p.busy[1]),
            static_cast<unsigned long long>(p.busy[2]),
            static_cast<unsigned long long>(p.busy[3]),
            static_cast<unsigned long long>(p.busy[4]));
      }
    }
  }

  if (!a.perfetto.empty()) {
    std::ofstream f(a.perfetto);
    if (!f) {
      std::fprintf(stderr, "profile: cannot open %s\n", a.perfetto.c_str());
      return 1;
    }
    obs::PerfettoSink trace(f);  // no spans: the counter tracks carry the timeline
    trace.setCounters(std::move(last_counters));
    trace.finish();
    std::fprintf(stderr, "profile: wrote Perfetto utilization trace to %s\n",
                 a.perfetto.c_str());
  }
  if (!sum_ok) {
    std::fprintf(stderr,
                 "profile: ACCEPTANCE FAILURE — critical-path components do not sum to the "
                 "iteration wall time within 1%%\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (!g_stream.open(a.stream_obs)) return 1;
  if (a.metric == "latency" || a.metric == "bandwidth") return runMicro(a);
  if (a.metric == "jacobi") return runJacobi(a);
  if (a.metric == "loss") return runLoss(a);
  if (a.metric == "match") return runMatch(a);
  if (a.metric == "breakdown") return runBreakdown(a);
  if (a.metric == "multipath") return runMultipath(a);
  if (a.metric == "coll") return runColl(a);
  if (a.metric == "train") return runTrainMetric(a);
  if (a.metric == "failstop") return runFailstop(a);
  if (a.metric == "profile") return runProfile(a);
  usage(argv[0]);
}
