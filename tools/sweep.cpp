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
/// The OSU, jacobi and coll metrics accept --drop P / --fault-seed N to run
/// under deterministic uniform message loss; --metric loss sweeps the drop
/// rate itself and reports how retransmission inflates latency.
///
/// Every metric prints one table through `Table`, which declares its columns
/// once: CSV (a header line, then one line per row) or, with --json,
/// {"metric":M,"points":[{<column>:<cell>,...},...]} — one flat object per CSV
/// row, same keys, order and number formatting. Per-point fields repeat on
/// each row of the point. Run-level verdicts (multipath "ok", profile
/// "sum_ok") are JSON-only keys after "points"; CSV reports them through the
/// exit status and stderr. Malformed options print usage and exit 2.

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
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
  std::string metric = "latency";  // latency | bandwidth | jacobi | ...
  osu::Stack stack = osu::Stack::Charm;
  bool stack_set = false;  ///< --stack given (multi-stack metrics narrow to one)
  bool json = false;       ///< machine-readable output instead of CSV
  std::string perfetto;    ///< --perfetto FILE (breakdown, profile: last point)
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
      "  --metric M                          what to measure (default latency):\n"
      "    latency, bandwidth                OSU series per size (Figs. 10-13)\n"
      "    jacobi                            3D Jacobi ms/iteration (Figs. 14-16)\n"
      "    loss                              latency per --drops rate, with the\n"
      "                                      retransmit/fallback/re-post counters\n"
      "    match                             tag-matching occupancy per stack —\n"
      "                                      posted/unexpected high-watermarks,\n"
      "                                      buckets, longest chains, scan steps\n"
      "    breakdown                         per-phase latency percentiles from\n"
      "                                      message-lifecycle spans — metadata leg,\n"
      "                                      recv-post delay, early-arrival wait, data\n"
      "    profile                           critical-path attribution: each measured\n"
      "                                      iteration's wall time split into compute,\n"
      "                                      per-link-class wire wait, recv-post delay,\n"
      "                                      early-arrival wait and retry overhead,\n"
      "                                      plus per-class resource utilization;\n"
      "                                      exits nonzero if the parts miss the wall\n"
      "                                      time by more than 1%%\n"
      "    multipath                         single- vs multi-path device bandwidth:\n"
      "                                      a second, neighbor-staged NVLink route;\n"
      "                                      1/2/4 NIC rails; exits nonzero below\n"
      "                                      the acceptance bars\n"
      "    coll                              pipelined allreduce us/iteration per\n"
      "                                      stack, size and --impl\n"
      "    train                             data-parallel SGD per step — compute,\n"
      "                                      bucket allreduce union vs sum, overlap\n"
      "    failstop                          trains each stack failure-free, then with\n"
      "                                      a PE killed mid-run; exits nonzero unless\n"
      "                                      checkpoint/restart reproduces the model\n"
      "                                      bit for bit, with no hung rank\n"
      "                                      (breakdown, profile: stacks charm, ampi,\n"
      "                                      charm4py; coll, train, failstop: ampi,\n"
      "                                      charm, charm4py; unless --stack)\n"
      "  --stack charm|ampi|ompi|charm4py    programming model (default charm)\n"
      "  --mode device|host                  GPU-aware (-D) or host-staging (-H)\n"
      "  --place intra|inter                 PE placement for micro-benchmarks\n"
      "  --nodes N                           simulated Summit nodes (default 2)\n"
      "  --sizes a,b,c                       message sizes in bytes (default: OSU sweep)\n"
      "  --iters N --warmup N --window N     benchmark repetition knobs (N >= 1;\n"
      "                                      warmup >= 0)\n"
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

/// The --stack values, in osu::Stack order.
constexpr std::array kStackKeys = {"charm", "ampi", "ompi", "charm4py"};

[[nodiscard]] const char* stackKey(osu::Stack s) {
  return kStackKeys[static_cast<std::size_t>(s)];
}

/// Comma-separated unsigned integers ("4096,65536"); empty when any item is
/// missing, signed, non-numeric or out of range.
std::vector<std::size_t> parseList(std::string_view s) {
  std::vector<std::size_t> out;
  while (true) {
    std::size_t v = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{}) return {};
    out.push_back(v);
    s.remove_prefix(static_cast<std::size_t>(end - s.data()));
    if (s.empty()) return out;
    if (s.front() != ',') return {};
    s.remove_prefix(1);
  }
}

Args parse(int argc, char** argv) {
  Args a;
  auto need = [&](int& i) -> std::string_view {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  auto count = [&](int& i, int min) {  // a whole number >= min
    const std::string_view s = need(i);
    int v = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc{} || end != s.data() + s.size() || v < min) usage(argv[0]);
    return v;
  };
  auto choice = [&](int& i, const auto& names) {  // index of the value in names
    const std::string_view v = need(i);
    const auto it = std::find(names.begin(), names.end(), v);
    if (it == names.end()) usage(argv[0]);
    return static_cast<int>(it - names.begin());
  };
  auto list = [&](int& i) {
    auto v = parseList(need(i));
    if (v.empty()) usage(argv[0]);
    return v;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view opt = argv[i];
    if (opt == "--metric") {
      a.metric = need(i);
    } else if (opt == "--stack") {
      a.stack = static_cast<osu::Stack>(choice(i, kStackKeys));
      a.stack_set = true;
    } else if (opt == "--json") {
      a.json = true;
    } else if (opt == "--perfetto") {
      a.perfetto = need(i);
    } else if (opt == "--stream-obs") {
      a.stream_obs = need(i);
    } else if (opt == "--mode") {  // names in enum order
      a.mode = static_cast<osu::Mode>(choice(i, std::array{"host", "device"}));
    } else if (opt == "--place") {
      a.place = static_cast<osu::Placement>(choice(i, std::array{"intra", "inter"}));
    } else if (opt == "--nodes") {
      a.nodes = count(i, 1);
    } else if (opt == "--sizes") {
      a.sizes = list(i);
    } else if (opt == "--iters") {
      a.iters = count(i, 1);
    } else if (opt == "--warmup") {
      a.warmup = count(i, 0);
    } else if (opt == "--window") {
      a.window = count(i, 1);
    } else if (opt == "--odf") {
      a.odf = count(i, 1);
    } else if (opt == "--no-gdrcopy") {
      a.gdrcopy = false;
    } else if (opt == "--drop") {
      a.drop = std::atof(need(i).data());
      if (a.drop < 0.0 || a.drop >= 1.0) usage(argv[0]);
    } else if (opt == "--fault-seed") {
      a.fault_seed = std::strtoull(need(i).data(), nullptr, 0);
    } else if (opt == "--drops") {
      a.drops.clear();
      for (const std::size_t pct : list(i)) {
        if (pct >= 100) usage(argv[0]);
        a.drops.push_back(static_cast<double>(pct) / 100.0);
      }
    } else if (opt == "--impl") {
      const auto v = coll::parseImpl(need(i));
      if (!v) usage(argv[0]);
      a.impl = *v;
      a.impl_set = true;
    } else if (opt == "--ranks") {
      a.ranks = count(i, 1);
    } else if (opt == "--steps") {
      a.steps = count(i, 1);
    } else if (opt == "--grid") {
      const auto v = list(i);
      const auto bad = [](std::size_t n) { return n == 0 || n > INT64_MAX; };
      if (v.size() != 3 || std::any_of(v.begin(), v.end(), bad)) usage(argv[0]);
      a.grid = {static_cast<std::int64_t>(v[0]), static_cast<std::int64_t>(v[1]),
                static_cast<std::int64_t>(v[2])};
    } else {
      usage(argv[0]);
    }
  }
  return a;
}

// --------------------------------------------------------------------------
// Table: the one stdout writer
// --------------------------------------------------------------------------

/// One table cell, rendered once: text (quoted in JSON), an integer, a
/// fixed-precision real (fix) or a flag (flag). Reals and flags have no
/// implicit conversion, so a real cannot lose its precision by accident.
struct Cell {
  std::string s;
  bool quoted;
  Cell(std::string text, bool quote) : s(std::move(text)), quoted(quote) {}
  Cell(const char* text) : Cell(std::string(text), true) {}  // NOLINT(*-explicit-*)
  Cell(std::string text) : Cell(std::move(text), true) {}    // NOLINT(*-explicit-*)
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Cell(T v) : Cell(std::to_string(v), false) {}  // NOLINT(*-explicit-*)
  Cell(double) = delete;
  Cell(bool) = delete;
};

Cell fix(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return {buf, false};
}

Cell flag(bool b) { return {b ? "true" : "false", false}; }

/// A metric's output: its columns, declared once, then rows of cells. CSV or
/// JSON is chosen here, once per run; rows print as they are added.
class Table {
 public:
  Table(const Args& a, std::vector<std::string> cols) : json_(a.json), cols_(std::move(cols)) {
    if (json_) std::printf("{\"metric\":\"%s\",\"points\":[", a.metric.c_str());
    for (std::size_t i = 0; !json_ && i < cols_.size(); ++i) {
      std::printf("%s%s", cols_[i].c_str(), i + 1 < cols_.size() ? "," : "\n");
    }
  }

  void row(const std::vector<Cell>& cells) {
    if (cells.size() != cols_.size()) throw std::logic_error("Table: row width != column count");
    if (json_) std::printf("%s{", rows_++ == 0 ? "" : ",");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i != 0) std::printf(",");
      if (json_) std::printf("\"%s\":", cols_[i].c_str());
      print(cells[i]);
    }
    std::printf(json_ ? "}" : "\n");
  }

  /// Closes the JSON object, with run-level verdict keys after "points"
  /// (JSON only; CSV reports them through the exit status and stderr).
  void end(std::initializer_list<std::pair<const char*, Cell>> verdicts = {}) {
    if (!json_) return;
    std::printf("]");
    for (const auto& [key, cell] : verdicts) {
      std::printf(",\"%s\":", key);
      print(cell);
    }
    std::printf("}\n");
  }

 private:
  void print(const Cell& c) const {
    const char* q = json_ && c.quoted ? "\"" : "";
    std::printf("%s%s%s", q, c.s.c_str(), q);
  }

  bool json_;
  std::vector<std::string> cols_;
  std::size_t rows_ = 0;
};

// --------------------------------------------------------------------------
// Per-point setup shared by the metrics
// --------------------------------------------------------------------------

/// --stack alone, or the metric's default stacks.
std::vector<osu::Stack> stacksOr(const Args& a, std::vector<osu::Stack> dflt) {
  return a.stack_set ? std::vector<osu::Stack>{a.stack} : dflt;
}

/// --sizes, or the metric's default sizes.
std::vector<std::size_t> sizesOr(const Args& a, std::vector<std::size_t> dflt) {
  return a.sizes.empty() ? dflt : a.sizes;
}

/// Stacks of the collective metrics (coll, train, failstop): ampi, charm,
/// charm4py unless --stack. Empty after reporting --stack ompi, which has no
/// collective driver.
std::vector<osu::Stack> collStacks(const Args& a) {
  if (a.stack_set && a.stack == osu::Stack::Ompi) {
    std::fprintf(stderr, "%s: stacks are ampi, charm, charm4py\n", a.metric.c_str());
    return {};
  }
  return stacksOr(a, {osu::Stack::Ampi, osu::Stack::Charm, osu::Stack::Charm4py});
}

/// The --stream-obs hooks of a fixture config (no-ops without the flag).
/// flush() also finishes every sink attached to the span collector.
template <class Config>
void streamHooks(Config& cfg) {
  cfg.setup = [](hw::System& sys) { g_stream.apply(sys); };
  cfg.inspect = [](hw::System& sys) { g_stream.flush(sys); };
}

/// One OSU point as the command line describes it: stack, mode, placement
/// (an inter-node pair needs two nodes), repetition knobs, GDRCopy, --drop
/// and the --stream-obs hooks.
osu::BenchConfig osuConfig(const Args& a, osu::Stack stack, osu::Placement place) {
  osu::BenchConfig cfg;
  cfg.stack = stack;
  cfg.mode = a.mode;
  cfg.place = place;
  cfg.sizes = a.sizes;
  cfg.iters = a.iters;
  cfg.warmup = a.warmup;
  cfg.window = a.window;
  cfg.model = model::summit(a.nodes < 2 && place == osu::Placement::InterNode ? 2 : a.nodes);
  cfg.model.ucx.gdrcopy_enabled = a.gdrcopy;
  if (a.drop > 0.0) cfg.model.machine.fault = sim::FaultConfig::uniformLoss(a.drop, a.fault_seed);
  streamHooks(cfg);
  return cfg;
}

/// The training run of the train and failstop metrics.
train::TrainConfig trainConfig(const Args& a) {
  train::TrainConfig cfg;
  cfg.ranks = a.ranks;
  cfg.steps = a.steps;
  cfg.nodes = std::max(a.nodes, (a.ranks + 5) / 6);
  if (a.impl_set) cfg.coll.impl = a.impl;
  cfg.host_staged = a.mode == osu::Mode::HostStaging;
  // Span lines stream at retirement; attempts have no post-run hook, so the
  // window aggregates of a training attempt are not emitted.
  cfg.setup = [](hw::System& sys) { g_stream.apply(sys); };
  return cfg;
}

// --------------------------------------------------------------------------
// --metric latency | bandwidth | jacobi | loss
// --------------------------------------------------------------------------

int runMicro(const Args& a) {
  const bool lat = a.metric == "latency";
  const osu::BenchConfig cfg = osuConfig(a, a.stack, a.place);
  const auto pts = lat ? osu::runLatency(cfg) : osu::runBandwidth(cfg);
  Table t(a, {"size_bytes", lat ? "one_way_latency_us" : "bandwidth_MBps"});
  for (const auto& p : pts) t.row({p.bytes, fix(p.value, 3)});
  t.end();
  return 0;
}

std::string dims(const jacobi::Vec3& v) {
  return std::to_string(v.x) + "x" + std::to_string(v.y) + "x" + std::to_string(v.z);
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
  streamHooks(cfg);
  const auto r = jacobi::runJacobi(cfg);
  Table t(a, {"nodes", "grid", "procs", "overall_ms_per_iter", "comm_ms_per_iter"});
  t.row({a.nodes, dims(a.grid), dims(r.dec.procs), fix(r.overall_ms_per_iter, 3),
         fix(r.comm_ms_per_iter, 3)});
  t.end();
  return 0;
}

/// Latency-vs-drop-rate sweep: the reliability layer's retransmission tax.
/// A fixed seed per rate keeps every row reproducible; a hung run would
/// report 0 latency, so completion itself is part of the measurement. Each
/// row also reports the recovery machinery's registry counters — how many
/// retransmissions, degraded-route fallbacks, and receive re-posts the
/// reliability layer spent to deliver that latency.
int runLoss(const Args& a) {
  static constexpr const char* kGauges[] = {"ucx.retransmits", "ucx.send_errors",
                                            "lrts.fallbacks", "lrts.recv_reposts"};
  std::array<std::uint64_t, std::size(kGauges)> rc{};
  osu::BenchConfig cfg = osuConfig(a, a.stack, a.place);
  cfg.inspect = [&rc](hw::System& sys) {
    sys.obs.refresh();
    for (std::size_t i = 0; i < rc.size(); ++i) rc[i] = sys.obs.registry.gaugeValue(kGauges[i]);
    g_stream.flush(sys);
  };
  Table t(a, {"drop_percent", "size_bytes", "one_way_latency_us", "retransmits", "send_errors",
              "fallbacks", "recv_reposts"});
  for (const double rate : a.drops) {
    cfg.model.machine.fault = rate > 0.0 ? sim::FaultConfig::uniformLoss(rate, a.fault_seed)
                                         : sim::FaultConfig{};
    for (const std::size_t bytes : sizesOr(a, {4096, 65536, 1048576})) {
      rc = {};
      const double lat = osu::latencyPoint(cfg, bytes);
      t.row({fix(rate * 100.0, 1), bytes, fix(lat, 3), rc[0], rc[1], rc[2], rc[3]});
    }
  }
  t.end();
  return 0;
}

// --------------------------------------------------------------------------
// --metric match: tag-matching engine occupancy per stack
// --------------------------------------------------------------------------

/// Drives a window-deep burst workload through each stack's matching engine
/// and reports occupancy: `--window` messages posted-first then `--window`
/// unexpected-first per iteration, so both the posted store and the
/// unexpected store reach their per-iteration high-watermarks. One row per
/// stack: raw UCX workers, the Charm++ machine layer's device-metadata path
/// (DeviceComm), and the AMPI (src, tag) queues.
int runMatch(const Args& a) {
  const int nodes = std::max(a.nodes, 2);
  const int window = a.window, iters = a.iters;
  Table t(a, {"stack", "posted_hwm", "unexpected_hwm", "posted", "unexpected", "posted_buckets",
              "unexpected_buckets", "posted_max_chain", "unexpected_max_chain", "scan_steps"});
  const auto matchRow = [&t](const char* stack, const sim::MatchStats& s) {
    t.row({stack, s.posted_hwm, s.unexpected_hwm, s.posted, s.unexpected, s.posted_buckets,
           s.unexpected_buckets, s.posted_max_chain, s.unexpected_max_chain, s.scan_steps});
  };

  const auto tagOf = [](int it, int i) { return static_cast<ucx::Tag>(it * 100000 + i); };

  {  // raw UCX worker
    model::Model m = model::summit(nodes);
    hw::System sys(m.machine);
    g_stream.apply(sys);
    ucx::Context ctx(sys, m.ucx);
    std::vector<std::byte> src(256), dst(256);
    for (int it = 0; it < iters; ++it) {
      for (int i = 0; i < window; ++i) {
        ctx.worker(6).tagRecv(hw::MemRef::host(dst.data()), 256, tagOf(it, i), ucx::kFullMask, {});
      }
      for (int i = 0; i < window; ++i) ctx.tagSend(0, 6, hw::MemRef::host(src.data()), 256,
                                                   tagOf(it, i), {});
      sys.engine.run();
      for (int i = 0; i < window; ++i) {
        ctx.tagSend(0, 6, hw::MemRef::host(src.data()), 256, tagOf(it, window + i), {});
      }
      sys.engine.run();
      for (int i = 0; i < window; ++i) {
        ctx.worker(6).tagRecv(hw::MemRef::host(dst.data()), 256, tagOf(it, window + i),
                              ucx::kFullMask, {});
      }
      sys.engine.run();
    }
    g_stream.flush(sys);
    matchRow("ucx", ctx.matchStats());
  }

  {  // Charm++ machine layer: GPU transfers whose metadata receives ride
     // Worker::tagRecv under a full mask
    model::Model m = model::summit(nodes);
    hw::System sys(m.machine);
    g_stream.apply(sys);
    ucx::Context ctx(sys, m.ucx);
    cmi::Converse cmi(sys, ctx, m.costs);
    core::DeviceComm dev(cmi);
    cuda::DeviceBuffer sbuf(sys, 0, 8192), dbuf(sys, 6, 8192);
    for (int it = 0; it < iters; ++it) {
      for (int i = 0; i < window; ++i) {
        cmi.runOn(0, [&dev, &cmi, &sbuf, &dbuf] {
          core::CmiDeviceBuffer buf{sbuf.ref(), 8192, 0};
          dev.lrtsSendDevice(0, 6, buf);
          const auto device_tag = buf.tag;
          cmi.runOn(6, [&dev, &dbuf, device_tag] {
            dev.lrtsRecvDevice(6, core::DeviceRdmaOp{dbuf.ref(), 8192, device_tag},
                               core::DeviceRecvType::Charm, {});
          });
        });
      }
      sys.engine.run();
    }
    g_stream.flush(sys);
    matchRow("charm", dev.matchStats());
  }

  {  // AMPI: (src, tag) matching over the bucketed rank queues
    model::Model m = model::summit(nodes);
    hw::System sys(m.machine);
    g_stream.apply(sys);
    ucx::Context ctx(sys, m.ucx);
    ck::Runtime rt(sys, ctx, m);
    ampi::World world(rt);
    std::vector<std::byte> src(256), dst(256);
    world.run([&](ampi::Rank& r) -> sim::FutureTask {
      if (r.rank() == 0) {
        for (int it = 0; it < iters; ++it) {
          std::vector<sim::Future<void>> reqs;
          reqs.reserve(static_cast<std::size_t>(window));
          for (int i = 0; i < window; ++i) reqs.push_back(r.isend(src.data(), 256, 1, i));
          for (auto& q : reqs) co_await q;
        }
      } else if (r.rank() == 1) {
        for (int it = 0; it < iters; ++it) {
          std::vector<sim::Future<void>> reqs;
          reqs.reserve(static_cast<std::size_t>(window));
          for (int i = 0; i < window; ++i) reqs.push_back(r.irecv(dst.data(), 256, 0, i));
          for (auto& q : reqs) co_await q;
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
    matchRow("ampi", world.matchStats());
  }
  t.end();
  return 0;
}

// --------------------------------------------------------------------------
// --metric breakdown: per-phase latency percentiles from lifecycle spans
// --------------------------------------------------------------------------

/// Runs the OSU latency point per stack and size with span collection on and
/// reports per-phase interval percentiles: the metadata leg, the recv-post
/// delay (the paper's delayed-posting limitation), the early-arrival wait and
/// the data movement, none of which the end-to-end latency figures can show.
/// One row per interval; the point's latency and span counts repeat on each.
int runBreakdown(const Args& a) {
  const auto stacks = stacksOr(a, {osu::Stack::Charm, osu::Stack::Ampi, osu::Stack::Charm4py});
  const auto sizes = sizesOr(a, {4096, 65536, 1048576});
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

  struct Interval {
    const char* name;
    std::vector<double> obs::Breakdown::* samples;
  };
  const Interval intervals[] = {
      {"total", &obs::Breakdown::total},           {"meta", &obs::Breakdown::meta},
      {"post_delay", &obs::Breakdown::post_delay}, {"early_wait", &obs::Breakdown::early_wait},
      {"data", &obs::Breakdown::data},
  };

  Table t(a, {"stack", "size_bytes", "interval", "samples", "p50_us", "p90_us", "p99_us",
              "one_way_latency_us", "spans", "completed", "errored", "matched_posted",
              "matched_unexpected", "retries", "fallbacks"});
  for (const osu::Stack stack : stacks) {
    for (const std::size_t bytes : sizes) {
      osu::BenchConfig cfg = osuConfig(a, stack, a.place);
      obs::Breakdown b;
      obs::Sink* last_trace =
          stack == stacks.back() && bytes == sizes.back() ? trace.get() : nullptr;
      // The inspect hook's flush() is what finishes `b` and the trace, so it
      // stays on even without --stream-obs.
      cfg.setup = [&b, last_trace](hw::System& sys) {
        sys.obs.spans.enableStreaming({}, &b);
        sys.obs.spans.enableStreaming({}, last_trace);
        g_stream.apply(sys);
      };
      const double lat = osu::latencyPoint(cfg, bytes);
      for (const Interval& iv : intervals) {
        std::vector<double>& v = b.*(iv.samples);
        t.row({stackKey(stack), bytes, iv.name, v.size(), fix(obs::percentile(v, 50), 3),
               fix(obs::percentile(v, 90), 3), fix(obs::percentile(v, 99), 3), fix(lat, 3),
               b.spans, b.completed, b.errored, b.matched_posted, b.matched_unexpected, b.retries,
               b.fallbacks});
      }
    }
  }
  t.end();

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
    osu::BenchConfig cfg = osuConfig(a, a.stack, place);
    cfg.mode = osu::Mode::Device;
    // A fresh model: this metric runs lossless with GDRCopy, whatever
    // --drop and --no-gdrcopy say.
    cfg.model = model::summit(cfg.model.machine.num_nodes);
    cfg.model.machine.backed_device_memory = false;  // timing-only run
    cfg.model.machine.nvlink_bricks = bricks;
    cfg.model.machine.nic_rails = rails;
    cfg.model.ucx.multipath.enabled = multipath;
    return osu::bandwidthPoint(cfg, bytes);
  };

  const auto sizes = sizesOr(a, {1u << 20, 4u << 20, 16u << 20});
  const int rail_counts[] = {1, 2, 4};

  bool ok = true;
  Table t(a, {"scope", "config", "size_bytes", "bandwidth_MBps", "speedup"});
  for (const std::size_t s : sizes) {
    const double single = point(osu::Placement::IntraNode, s, false, 1, 1);
    const double multi = point(osu::Placement::IntraNode, s, true, 2, 1);
    const double speedup = single > 0.0 ? multi / single : 0.0;
    // Acceptance: >= 1.5x at >= 4 MiB with two usable NVLink routes.
    if (s >= (4u << 20) && speedup < 1.5) ok = false;
    t.row({"intra", "single", s, fix(single, 1), fix(1.0, 3)});
    t.row({"intra", "multi_bricks2", s, fix(multi, 1), fix(speedup, 3)});
  }
  for (const std::size_t s : sizes) {
    double rail_bw[3];
    for (int i = 0; i < 3; ++i)
      rail_bw[i] = point(osu::Placement::InterNode, s, true, 1, rail_counts[i]);
    // Rails must add bandwidth for large transfers (the single NVLink egress
    // brick at 50 GB/s caps the 4-rail configuration well before 4x).
    if (s >= (4u << 20) && !(rail_bw[1] > rail_bw[0] * 1.3 && rail_bw[2] > rail_bw[1])) {
      ok = false;
    }
    for (int i = 0; i < 3; ++i) {
      const double speedup = rail_bw[0] > 0.0 ? rail_bw[i] / rail_bw[0] : 0.0;
      t.row({"inter", "rails" + std::to_string(rail_counts[i]), s, fix(rail_bw[i], 1),
             fix(speedup, 3)});
    }
  }
  t.end({{"ok", flag(ok)}});
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
  g_stream.apply(sys);
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
      break;  // rejected by collStacks
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
  const auto stacks = collStacks(a);
  if (stacks.empty()) return 2;
  const std::vector<coll::CollImpl> impls =
      a.impl_set ? std::vector<coll::CollImpl>{a.impl}
                 : std::vector<coll::CollImpl>{coll::CollImpl::Ring, coll::CollImpl::Tree,
                                               coll::CollImpl::Reference};
  const auto sizes = sizesOr(a, {65536, 1048576, 4194304});
  const int warmup = 1;
  const int iters = std::min(a.iters, 10);

  Table t(a, {"stack", "impl", "size_bytes", "allreduce_us"});
  for (const osu::Stack stack : stacks) {
    for (const coll::CollImpl impl : impls) {
      for (const std::size_t bytes : sizes) {
        const double us = collPoint(a, stack, impl, bytes, warmup, iters);
        t.row({stackKey(stack), coll::name(impl), bytes, fix(us, 3)});
      }
    }
  }
  t.end();
  return 0;
}

// --------------------------------------------------------------------------
// --metric train: data-parallel SGD per-step anatomy
// --------------------------------------------------------------------------

/// One row per step; the run's rank and bucket counts, gradient verdict,
/// mean step time and steady-state overlap repeat on each.
int runTrainMetric(const Args& a) {
  const auto stacks = collStacks(a);
  if (stacks.empty()) return 2;
  const train::TrainConfig cfg = trainConfig(a);
  Table t(a, {"stack", "step", "step_us", "compute_us", "allreduce_wall_us", "bucket_sum_us",
              "overlap_ratio", "optimizer_us", "ranks", "buckets", "verified", "avg_step_us",
              "steady_overlap_ratio"});
  bool all_verified = true;
  for (const osu::Stack stack : stacks) {
    const train::TrainResult r = train::runTrain(cfg, *train::parseStack(stackKey(stack)));
    all_verified = all_verified && (r.verified || !cfg.verify);
    for (std::size_t s = 0; s < r.steps.size(); ++s) {
      const train::StepStat& st = r.steps[s];
      t.row({stackKey(stack), s, fix(st.step_us, 1), fix(st.compute_us, 1),
             fix(st.allreduce_wall_us, 1), fix(st.bucket_sum_us, 1), fix(st.overlapRatio(), 3),
             fix(st.optimizer_us, 1), r.ranks, r.buckets, flag(r.verified),
             fix(r.avgStepUs(), 1), fix(r.avgOverlap(), 3)});
    }
  }
  t.end();
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
  const auto stacks = collStacks(a);
  if (stacks.empty()) return 2;
  const train::TrainConfig cfg = trainConfig(a);
  Table t(a, {"stack", "kill_at_us", "restarts", "completed_steps", "hung_ranks", "digest_match",
              "verified", "status"});
  bool ok_all = true;
  for (const osu::Stack stack : stacks) {
    const train::Stack ts = *train::parseStack(stackKey(stack));
    const train::TrainResult base = train::runTrain(cfg, ts);
    // Kill a non-root worker at 40% of the unfailed run's virtual wall time:
    // safely mid-run, so collectives are still outstanding and the abort +
    // restart path genuinely executes.
    train::TrainConfig fcfg = cfg;
    fcfg.fault.kill_pe = 1;
    fcfg.fault.kill_at_us = base.total_us * 0.4;
    const train::TrainResult rec = train::runTrain(fcfg, ts);
    const bool digest_match = rec.model_digest == base.model_digest;
    const bool ok = !base.failed && base.hung_ranks == 0 && base.verified && !rec.failed &&
                    rec.hung_ranks == 0 && rec.verified && rec.recovered && rec.restarts >= 1 &&
                    rec.completed_steps == cfg.steps && digest_match;
    ok_all = ok_all && ok;
    t.row({stackKey(stack), fix(fcfg.fault.kill_at_us, 1), rec.restarts, rec.completed_steps,
           rec.hung_ranks, flag(digest_match), flag(rec.verified), ok ? "ok" : "FAIL"});
  }
  t.end();
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
/// violation exits nonzero. One row per iteration; the point's per-class
/// utilization totals, latency and span counters repeat on each. Column
/// names come from obs::name(CritCat) and hw::name(ResClass).
int runProfile(const Args& a) {
  const auto stacks = stacksOr(a, {osu::Stack::Charm, osu::Stack::Ampi, osu::Stack::Charm4py});
  const auto sizes = sizesOr(a, {4096, 65536, 1048576});
  const auto resName = [](std::size_t c) {
    return std::string(hw::name(static_cast<hw::ResClass>(c)));
  };
  std::vector<std::string> cols = {"stack", "size_bytes", "iter", "wall_us"};
  for (std::size_t c = 0; c < obs::kCritCatCount; ++c) {
    cols.push_back(std::string(obs::name(static_cast<obs::CritCat>(c))) + "_us");
  }
  cols.emplace_back("sum_err_pct");
  for (std::size_t c = 0; c < hw::kResClassCount; ++c) cols.push_back(resName(c) + "_busy_ns");
  for (std::size_t c = 0; c < hw::kResClassCount; ++c) cols.push_back(resName(c) + "_resources");
  cols.insert(cols.end(), {"one_way_latency_us", "spans_begun", "spans_retired", "open_hwm",
                           "dropped_events", "windows"});
  Table t(a, std::move(cols));

  std::vector<obs::CounterTrack> last_counters;  // --perfetto: last point's timeline
  bool sum_ok = true;
  for (const osu::Stack stack : stacks) {
    for (const std::size_t bytes : sizes) {
      osu::BenchConfig cfg = osuConfig(a, stack, a.place);
      obs::CritPathConfig ccfg;
      ccfg.gpus_per_node = cfg.model.machine.gpus_per_node;
      ccfg.host_staged = a.mode == osu::Mode::HostStaging;
      obs::CritPath crit(ccfg);

      std::vector<sim::TimePoint> marks;
      std::vector<Cell> point, counters;  // per-point cells, repeated on each iteration row
      cfg.setup = [&crit](hw::System& sys) {
        sys.obs.spans.enableStreaming({}, &crit);
        g_stream.apply(sys);
        sys.enableUtil();
      };
      cfg.inspect = [&](hw::System& sys) {
        marks = sys.obs.iterationMarks();
        sys.obs.spans.flushWindows();
        for (std::size_t c = 0; c < hw::kResClassCount; ++c) {
          point.emplace_back(sys.util.classBusy(static_cast<hw::ResClass>(c)));
        }
        for (std::size_t c = 0; c < hw::kResClassCount; ++c) {
          point.emplace_back(sys.util.classResources(static_cast<hw::ResClass>(c)));
        }
        const obs::SpanCollector& spans = sys.obs.spans;
        counters = {spans.begun(), spans.retired(), spans.openHighWatermark(),
                    spans.droppedEvents(), spans.windows().size()};
        g_stream.emitUtil(sys);
        if (!a.perfetto.empty()) last_counters = utilCounters(sys.util);
      };
      const double lat = osu::latencyPoint(cfg, bytes);
      point.push_back(fix(lat, 3));
      point.insert(point.end(), counters.begin(), counters.end());
      const auto iters = crit.attribute(marks);
      for (std::size_t k = 0; k < iters.size(); ++k) {
        const obs::CritPath::Iteration& it = iters[k];
        double sum = 0;
        for (const double v : it.us) sum += v;
        const double err = it.wall_us > 0 ? std::abs(sum - it.wall_us) / it.wall_us : 0.0;
        if (err > 0.01) sum_ok = false;
        std::vector<Cell> row = {stackKey(stack), bytes, k, fix(it.wall_us, 3)};
        for (const double v : it.us) row.push_back(fix(v, 3));
        row.push_back(fix(err * 100.0, 4));
        row.insert(row.end(), point.begin(), point.end());
        t.row(row);
      }
    }
  }
  t.end({{"sum_ok", flag(sum_ok)}});

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
