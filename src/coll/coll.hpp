#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string_view>
#include <vector>

#include "hw/cuda.hpp"
#include "obs/span.hpp"
#include "sim/future.hpp"
#include "sim/task.hpp"

/// \file coll.hpp
/// GPU-aware collective communication built on the point-to-point layer —
/// the extension the paper names as future work ("supporting collective
/// communication of GPU data, using this work as the basis to translate
/// collective communication primitives to point-to-point calls", Sec. VI).
///
/// Two primitives live here, allreduce and bcast: the only collectives the
/// workloads that use collectives (ext_collectives and ChainerMN-style data
/// parallel training) call. Two families of algorithms implement them,
/// runtime-selectable per call:
///
///  * `CollImpl::Reference` — the classical whole-message algorithms
///    (binomial broadcast, recursive-doubling allreduce). Retained verbatim
///    as the cross-check oracle for the pipelined algorithms.
///  * `CollImpl::Ring` / `CollImpl::Tree` — chunked, *pipelined* algorithms:
///    messages are split into segments sized by `CollConfig::chunk_bytes`
///    and segment k+1's transfer overlaps segment k's modelled reduction
///    kernel (or its store-and-forward hop), the ChainerMN/Horovod shape.
///    Ring allreduce is reduce-scatter + all-gather and bandwidth-optimal at
///    large sizes; the tree allreduce (pipelined binomial reduce, then
///    pipelined binomial broadcast) wins at small sizes — the crossover is
///    measured in bench/ext_collectives.cpp.
///
/// `CollImpl::Auto` picks Ring at/above `CollConfig::ring_threshold` bytes
/// and Tree below it.
///
/// Every primitive works on host *or* device buffers: the payload rides the
/// GPU-aware point-to-point path, temporaries come from the system's
/// DevicePool, and reduction arithmetic is a modelled GPU kernel whose body
/// performs the real math when the memory is backed, so the test suite can
/// verify results exactly. Each call mints one obs span (kind
/// "coll.<op>") with a CollChunk phase per pipelined segment and a
/// CollReduce phase per reduction-kernel launch.
///
/// The templates accept any rank type exposing the shared MPI-ish
/// point-to-point surface — rank/size/pe/system, optionally aborted(), and
/// isend/send/recv, each returning the operation's sim::Future<void> (awaited
/// directly, or several through sim::allOf). ampi::Rank, ompi::Rank,
/// coll::SectionRank (Charm++ array sections) and coll::C4pRank (Charm4py)
/// all qualify.
///
/// Tag-space discipline: collectives use tags at/above kCollTagBase; a
/// single call consumes tags in [tag, tag + kCollTagStride). Sequential
/// collectives may share one base tag (MPI's ordered semantics); concurrent
/// collectives on the same peer set must space their base tags by
/// kCollTagStride (see collTag()).

namespace cux::coll {

enum class Op : std::uint8_t { Sum, Max, Min };

/// Algorithm selection, per call.
enum class CollImpl : std::uint8_t { Auto, Ring, Tree, Reference };

[[nodiscard]] const char* name(CollImpl impl);
[[nodiscard]] std::optional<CollImpl> parseImpl(std::string_view s);

/// Tag space reserved for collectives; user point-to-point traffic must use
/// smaller tags.
inline constexpr int kCollTagBase = 1 << 28;

/// Per-(step, chunk) tag slots inside one collective call: chunk index in
/// the low 6 bits, step/level above. Bounds cfg.max_chunks at 64.
inline constexpr int kChunkSlots = 64;

/// Tag distance between two collectives that may be in flight concurrently
/// on the same peer set (supports up to 2048 ranks of ring steps).
inline constexpr int kCollTagStride = 1 << 18;

/// Base tag for concurrent collective number `slot` (e.g. one per gradient
/// bucket in flight).
[[nodiscard]] constexpr int collTag(int slot) noexcept {
  return kCollTagBase + slot * kCollTagStride;
}

struct CollConfig {
  CollImpl impl = CollImpl::Auto;
  /// Pipeline segment size; messages smaller than this travel as one chunk.
  std::uint64_t chunk_bytes = 256 * 1024;
  /// Upper bound on segments per message/block (<= kChunkSlots).
  int max_chunks = 32;
  /// Auto: >= this many bytes selects Ring, below selects Tree.
  std::uint64_t ring_threshold = 256 * 1024;
};

namespace detail {

inline void combine(double* dst, const double* src, std::uint64_t count, Op op) {
  switch (op) {
    case Op::Sum:
      for (std::uint64_t i = 0; i < count; ++i) dst[i] += src[i];
      break;
    case Op::Max:
      for (std::uint64_t i = 0; i < count; ++i) dst[i] = src[i] > dst[i] ? src[i] : dst[i];
      break;
    case Op::Min:
      for (std::uint64_t i = 0; i < count; ++i) dst[i] = src[i] < dst[i] ? src[i] : dst[i];
      break;
  }
}

/// Reduction kernel on `count` doubles: modelled as memory-bound traffic
/// (read both operands, write one) with the real arithmetic as the body when
/// the buffers are backed. Returns the stream-order completion future
/// without awaiting it, so callers can overlap the next chunk's transfer.
template <class RankT>
sim::Future<void> combineKernel(RankT& r, cuda::Stream& stream, hw::MemRef dst, hw::MemRef src,
                                std::uint64_t count, Op op) {
  hw::System& sys = r.system();
  const sim::Duration cost =
      sim::transferTime(count * 8 * 3, sys.config.gpu_mem_bandwidth_gbps * 0.8);
  const bool real = dst.backed && src.backed;
  stream.launch(cost, [real, dst = dst.ptr, src = src.ptr, count, op] {
    if (real) combine(static_cast<double*>(dst), static_cast<const double*>(src), count, op);
  });
  return stream.synchronize();
}

/// Scratch device buffer on the caller's GPU, served from the system's
/// caching DevicePool (returned, not released, on destruction).
class Scratch {
 public:
  Scratch(hw::System& sys, int device, std::uint64_t bytes)
      : sys_(sys),
        ref_(sys.pool.alloc(device, bytes == 0 ? 1 : bytes, sys.config.backed_device_memory)) {}
  ~Scratch() { sys_.pool.free(ref_.ptr); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  [[nodiscard]] void* get() const noexcept { return ref_.ptr; }
  [[nodiscard]] std::byte* bytes() const noexcept { return static_cast<std::byte*>(ref_.ptr); }
  [[nodiscard]] const hw::MemRef& ref() const noexcept { return ref_; }

 private:
  hw::System& sys_;
  hw::MemRef ref_;
};

/// An already-fulfilled Future<void> (pipeline-state seed value).
[[nodiscard]] inline sim::Future<void> readyFuture() {
  sim::Promise<void> p;
  p.set();
  return p.future();
}

/// Lifecycle span of one collective call on one rank. RAII: ends the span
/// (Phase::Completed, or Phase::Errored after markAborted()) when the owning
/// coroutine frame is destroyed. All operations are no-ops when the
/// collector is disabled (id 0), and none of them schedule engine events, so
/// collectives stay trace-invisible.
class CollSpan {
 public:
  CollSpan(hw::System& sys, int pe, std::uint64_t bytes, const char* kind)
      : spans_(&sys.obs.spans), eng_(&sys.engine), pe_(pe) {
    id_ = spans_->begin(eng_->now(), pe, -1, bytes, kind);
  }
  CollSpan(const CollSpan&) = delete;
  CollSpan& operator=(const CollSpan&) = delete;
  ~CollSpan() {
    if (id_ != 0) {
      spans_->end(id_, eng_->now(), aborted_ ? obs::Phase::Errored : obs::Phase::Completed, pe_);
    }
  }

  /// One pipelined segment handed to the point-to-point layer.
  void chunk(std::uint64_t bytes) {
    if (id_ != 0) spans_->phase(id_, eng_->now(), obs::Phase::CollChunk, pe_, bytes);
  }
  /// One modelled reduction kernel launched on a segment.
  void reduce(std::uint64_t bytes) {
    if (id_ != 0) spans_->phase(id_, eng_->now(), obs::Phase::CollReduce, pe_, bytes);
  }
  /// The collective drained after a peer failure: the span ends Errored.
  void markAborted() noexcept { aborted_ = true; }

 private:
  obs::SpanCollector* spans_;
  sim::Engine* eng_;
  std::uint64_t id_ = 0;
  int pe_ = -1;
  bool aborted_ = false;
};

/// Fault-tolerance probe shared by every public entry point: a rank type may
/// expose aborted() (true once its communicator/group lost a member to a PE
/// failure); rank types without the member never abort. Point-to-point
/// operations under an aborted rank complete immediately with garbage data —
/// the collective *drains structurally* rather than hanging, and the caller
/// observes the abort through this predicate afterwards.
template <class RankT>
[[nodiscard]] bool rankAborted(const RankT& r) {
  if constexpr (requires { r.aborted(); }) {
    return r.aborted();
  } else {
    return false;
  }
}

/// Registers an aborted collective in the metrics registry and on the span.
template <class RankT>
void noteAbortIfAny(RankT& r, CollSpan& sp) {
  if (!rankAborted(r)) return;
  sp.markAborted();
  r.system().obs.registry.addCounter("coll.aborted", 1);
}

[[nodiscard]] inline CollImpl resolve(const CollConfig& cfg, std::uint64_t bytes) {
  if (cfg.impl != CollImpl::Auto) return cfg.impl;
  return bytes >= cfg.ring_threshold ? CollImpl::Ring : CollImpl::Tree;
}

/// Segments per message/block of `bytes` bytes under `cfg`.
[[nodiscard]] inline int chunksFor(std::uint64_t bytes, const CollConfig& cfg) {
  if (bytes == 0) return 1;
  const std::uint64_t cb = cfg.chunk_bytes == 0 ? 1 : cfg.chunk_bytes;
  std::uint64_t c = (bytes + cb - 1) / cb;
  const int cap = cfg.max_chunks < 1 ? 1 : (cfg.max_chunks > kChunkSlots ? kChunkSlots
                                                                         : cfg.max_chunks);
  if (c < 1) c = 1;
  if (c > static_cast<std::uint64_t>(cap)) c = static_cast<std::uint64_t>(cap);
  return static_cast<int>(c);
}

/// Chunk `c` of a block holding `count` elements on a fixed slot grid of
/// `slot` elements per chunk: [off, off+cnt). Fixed slots (rather than
/// per-block proportional splits) keep scratch chunk ranges disjoint across
/// blocks of slightly different sizes.
struct Range {
  std::uint64_t off = 0;
  std::uint64_t cnt = 0;
};
[[nodiscard]] inline Range slotRange(std::uint64_t count, std::uint64_t slot, int c) {
  const std::uint64_t off = static_cast<std::uint64_t>(c) * slot;
  if (off >= count) return {off, 0};
  const std::uint64_t cnt = count - off < slot ? count - off : slot;
  return {off, cnt};
}

[[nodiscard]] constexpr int tagFor(int base, int step, int chunk) noexcept {
  return base + step * kChunkSlots + chunk;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Reference algorithms: classical whole-message formulations, kept as the
// bit-exact oracle for the pipelined family (CollImpl::Reference).
// ---------------------------------------------------------------------------

namespace reference {

/// Binomial-tree broadcast: log2(P) rounds, whole message per hop.
template <class RankT>
sim::FutureTask bcast(RankT& r, void* buf, std::uint64_t bytes, int root,
                      int tag = kCollTagBase) {
  const int n = r.size();
  const int me = (r.rank() - root + n) % n;  // root-relative rank
  // Receive from the parent, then forward down the tree.
  int mask = 1;
  while (mask < n) {
    if (me & mask) {
      const int parent = (me - mask + root) % n;
      co_await r.recv(buf, bytes, parent, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  std::vector<sim::Future<void>> sends;
  while (mask > 0) {
    if (me + mask < n) {
      const int child = (me + mask + root) % n;
      sends.push_back(r.isend(buf, bytes, child, tag));
    }
    mask >>= 1;
  }
  co_await sim::allOf(sends);
}

/// Recursive-doubling allreduce on the largest power-of-two subset, with
/// remainder ranks folded in and out.
template <class RankT>
sim::FutureTask allreduce(RankT& r, const void* sendbuf, void* recvbuf, std::uint64_t count,
                          Op op, int tag = kCollTagBase) {
  const int n = r.size();
  const int me = r.rank();
  const std::uint64_t bytes = count * 8;
  hw::System& sys = r.system();
  cuda::Stream stream(sys, r.pe());

  int pof2 = 1;
  while (pof2 * 2 <= n) pof2 *= 2;
  const int rem = n - pof2;

  // The caller's buffers enter here: classify each once.
  const hw::MemRef recv_ref = sys.memory.classify(recvbuf);
  cuda::moveBytes(recv_ref, sys.memory.classify(sendbuf), bytes);
  detail::Scratch incoming(sys, r.pe(), bytes);

  // Fold the remainder ranks into their partners.
  if (me < 2 * rem) {
    if (me % 2 == 1) {  // odd remainder ranks send and wait for the result
      co_await r.send(recvbuf, bytes, me - 1, tag);
      co_await r.recv(recvbuf, bytes, me - 1, tag + 1);
      co_return;
    }
    co_await r.recv(incoming.get(), bytes, me + 1, tag);
    co_await detail::combineKernel(r, stream, recv_ref, incoming.ref(), count, op);
  }
  // Ranks participating in recursive doubling, renumbered densely.
  const int my_pof2 = me < 2 * rem ? me / 2 : me - rem;
  for (int mask = 1; mask < pof2; mask <<= 1) {
    const int peer_pof2 = my_pof2 ^ mask;
    const int peer = peer_pof2 < rem ? peer_pof2 * 2 : peer_pof2 + rem;
    auto s = r.isend(recvbuf, bytes, peer, tag + 2);
    co_await r.recv(incoming.get(), bytes, peer, tag + 2);
    co_await s;
    co_await detail::combineKernel(r, stream, recv_ref, incoming.ref(), count, op);
  }
  // Hand the result back to the folded ranks.
  if (me < 2 * rem && me % 2 == 0) {
    co_await r.send(recvbuf, bytes, me + 1, tag + 1);
  }
}

}  // namespace reference

// ---------------------------------------------------------------------------
// Pipelined algorithms: chunked segments, transfer/kernel overlap.
// ---------------------------------------------------------------------------

namespace detail {

/// Ring allreduce: reduce-scatter (n-1 steps) + all-gather (n-1 steps) over n
/// near-equal blocks, each block pipelined in fixed chunk slots so chunk
/// k+1's transfer overlaps chunk k's reduction kernel. Bandwidth-optimal:
/// each rank moves 2(n-1)/n of the payload.
template <class RankT>
sim::FutureTask allreduceRing(RankT& r, const void* sendbuf, void* recvbuf, std::uint64_t count,
                              Op op, int tag, CollConfig cfg, CollSpan* sp) {
  const int n = r.size();
  const int me = r.rank();
  hw::System& sys = r.system();
  const std::uint64_t bytes = count * 8;
  // The caller's buffers enter here: classify each once.
  const hw::MemRef out_ref = sys.memory.classify(recvbuf);
  if (recvbuf != sendbuf) cuda::moveBytes(out_ref, sys.memory.classify(sendbuf), bytes);
  if (n == 1 || count == 0) co_return;

  cuda::Stream stream(sys, r.pe());
  auto* out = static_cast<std::byte*>(recvbuf);
  const auto blk = [&](int b) { return static_cast<std::uint64_t>(b) * count / n; };
  const std::uint64_t max_blk = (count + static_cast<std::uint64_t>(n) - 1) / n;
  const int C = chunksFor(max_blk * 8, cfg);
  const std::uint64_t slot = (max_blk + static_cast<std::uint64_t>(C) - 1) / C;
  Scratch scratch(sys, r.pe(), slot * static_cast<std::uint64_t>(C) * 8);

  const int right = (me + 1) % n;
  const int left = (me - 1 + n) % n;
  std::vector<sim::Future<void>> sends;
  std::vector<sim::Future<void>> kdone;  // per-chunk kernels of the block combined last step

  // --- reduce-scatter phase ------------------------------------------------
  for (int step = 0; step < n - 1; ++step) {
    const int sb = (me - step + n) % n;
    const int rb = (me - step - 1 + n) % n;
    const std::uint64_t s0 = blk(sb), scount = blk(sb + 1) - s0;
    const std::uint64_t r0 = blk(rb), rcount = blk(rb + 1) - r0;
    std::vector<sim::Future<void>> knext(static_cast<std::size_t>(C), readyFuture());
    for (int c = 0; c < C; ++c) {
      // The chunk being sent was combined by last step's kernel c.
      if (step > 0) co_await kdone[static_cast<std::size_t>(c)];
      const Range s_rng = slotRange(scount, slot, c);
      if (s_rng.cnt > 0) {
        sp->chunk(s_rng.cnt * 8);
        sends.push_back(r.isend(out + (s0 + s_rng.off) * 8, s_rng.cnt * 8, right,
                                tagFor(tag, step, c)));
      }
      const Range r_rng = slotRange(rcount, slot, c);
      if (r_rng.cnt > 0) {
        // Scratch slot c was drained by last step's kernel c (awaited above).
        const hw::MemRef stage = scratch.ref().at(static_cast<std::uint64_t>(c) * slot * 8);
        co_await r.recv(stage.ptr, r_rng.cnt * 8, left, tagFor(tag, step, c));
        sp->reduce(r_rng.cnt * 8);
        knext[static_cast<std::size_t>(c)] =
            combineKernel(r, stream, out_ref.at((r0 + r_rng.off) * 8), stage, r_rng.cnt, op);
      }
    }
    kdone = std::move(knext);
  }
  for (auto& f : kdone) co_await f;

  // --- all-gather phase: rank me now owns block (me+1) fully reduced -------
  std::vector<sim::Future<void>> got;  // per-chunk receive completions of last step
  for (int step = 0; step < n - 1; ++step) {
    const int sb = (me + 1 - step + 2 * n) % n;
    const int rb = (me - step + 2 * n) % n;
    const std::uint64_t s0 = blk(sb), scount = blk(sb + 1) - s0;
    const std::uint64_t r0 = blk(rb), rcount = blk(rb + 1) - r0;
    std::vector<sim::Future<void>> gnext(static_cast<std::size_t>(C), readyFuture());
    for (int c = 0; c < C; ++c) {
      // Forward chunk c as soon as last step's copy of it has landed.
      if (step > 0) co_await got[static_cast<std::size_t>(c)];
      const Range s_rng = slotRange(scount, slot, c);
      if (s_rng.cnt > 0) {
        sp->chunk(s_rng.cnt * 8);
        sends.push_back(r.isend(out + (s0 + s_rng.off) * 8, s_rng.cnt * 8, right,
                                tagFor(tag, n - 1 + step, c)));
      }
      const Range r_rng = slotRange(rcount, slot, c);
      if (r_rng.cnt > 0) {
        gnext[static_cast<std::size_t>(c)] =
            r.recv(out + (r0 + r_rng.off) * 8, r_rng.cnt * 8, left, tagFor(tag, n - 1 + step, c));
      }
    }
    got = std::move(gnext);
  }
  for (auto& f : got) co_await f;
  co_await sim::allOf(sends);
}

/// Pipelined binomial reduce into `recvbuf` on `root` (root-relative tree):
/// each level receives chunk c into its scratch slot and launches the
/// combine without waiting, so chunk c+1's transfer overlaps it.
template <class RankT>
sim::FutureTask reduceTree(RankT& r, const void* sendbuf, void* recvbuf, std::uint64_t count,
                           Op op, int root, int tag, CollConfig cfg, CollSpan* sp) {
  const int n = r.size();
  const int me = (r.rank() - root + n) % n;
  hw::System& sys = r.system();
  const std::uint64_t bytes = count * 8;
  cuda::Stream stream(sys, r.pe());

  Scratch acc(sys, r.pe(), me == 0 ? std::uint64_t{1} : bytes);
  // The caller's buffers enter here: classify each once.
  const hw::MemRef acc_ref = me == 0 ? sys.memory.classify(recvbuf) : acc.ref();
  std::byte* accp = static_cast<std::byte*>(acc_ref.ptr);
  cuda::moveBytes(acc_ref, sys.memory.classify(sendbuf), bytes);
  if (n == 1 || count == 0) co_return;

  const int C = chunksFor(bytes, cfg);
  const std::uint64_t slot = (count + static_cast<std::uint64_t>(C) - 1) / C;
  Scratch incoming(sys, r.pe(), bytes);
  std::vector<sim::Future<void>> kdone(static_cast<std::size_t>(C), readyFuture());

  int level = 0;
  for (int mask = 1; mask < n; mask <<= 1, ++level) {
    if (me & mask) {
      const int parent = (me - mask + root) % n;
      std::vector<sim::Future<void>> sends;
      for (int c = 0; c < C; ++c) {
        const Range rng = slotRange(count, slot, c);
        if (rng.cnt == 0) continue;
        co_await kdone[static_cast<std::size_t>(c)];
        sp->chunk(rng.cnt * 8);
        sends.push_back(r.isend(accp + rng.off * 8, rng.cnt * 8, parent,
                                tagFor(tag, level, c)));
      }
      co_await sim::allOf(sends);
      co_return;
    }
    if (me + mask < n) {
      const int child = (me + mask + root) % n;
      for (int c = 0; c < C; ++c) {
        const Range rng = slotRange(count, slot, c);
        if (rng.cnt == 0) continue;
        // Last level's kernel c has drained scratch chunk c and updated acc.
        co_await kdone[static_cast<std::size_t>(c)];
        co_await r.recv(incoming.bytes() + rng.off * 8, rng.cnt * 8, child,
                        tagFor(tag, level, c));
        sp->reduce(rng.cnt * 8);
        kdone[static_cast<std::size_t>(c)] = combineKernel(
            r, stream, acc_ref.at(rng.off * 8), incoming.ref().at(rng.off * 8), rng.cnt, op);
      }
    }
  }
  for (auto& f : kdone) co_await f;
}

/// Pipelined binomial broadcast: each non-root receives chunk c from its
/// parent and forwards it to its children while chunk c+1 is still in
/// flight — the message streams through the tree.
template <class RankT>
sim::FutureTask bcastTree(RankT& r, void* buf, std::uint64_t bytes, int root, int tag,
                          CollConfig cfg, CollSpan* sp) {
  const int n = r.size();
  const int me = (r.rank() - root + n) % n;
  if (n == 1 || bytes == 0) co_return;

  int parent = -1;
  int mask = 1;
  while (mask < n) {
    if (me & mask) {
      parent = (me - mask + root) % n;
      break;
    }
    mask <<= 1;
  }
  std::vector<int> children;  // absolute ranks, larger subtrees first
  for (int m = mask >> 1; m > 0; m >>= 1) {
    if (me + m < n) children.push_back((me + m + root) % n);
  }

  const int C = chunksFor(bytes, cfg);
  const std::uint64_t slot = (bytes + static_cast<std::uint64_t>(C) - 1) / C;
  auto* p = static_cast<std::byte*>(buf);
  std::vector<sim::Future<void>> sends;
  for (int c = 0; c < C; ++c) {
    const Range rng = slotRange(bytes, slot, c);
    if (rng.cnt == 0) continue;
    if (parent >= 0) co_await r.recv(p + rng.off, rng.cnt, parent, tagFor(tag, 0, c));
    for (int child : children) {
      sp->chunk(rng.cnt);
      sends.push_back(r.isend(p + rng.off, rng.cnt, child, tagFor(tag, 0, c)));
    }
  }
  co_await sim::allOf(sends);
}

/// Pipelined chain broadcast: the message streams root -> root+1 -> ... as
/// chunks, so total time approaches one message time plus (n-2) chunk times.
/// Bandwidth-optimal for large messages (each rank forwards each byte once).
template <class RankT>
sim::FutureTask bcastRing(RankT& r, void* buf, std::uint64_t bytes, int root, int tag,
                          CollConfig cfg, CollSpan* sp) {
  const int n = r.size();
  const int pos = (r.rank() - root + n) % n;
  if (n == 1 || bytes == 0) co_return;
  const int prev = pos == 0 ? -1 : (root + pos - 1) % n;
  const int next = pos == n - 1 ? -1 : (root + pos + 1) % n;

  const int C = chunksFor(bytes, cfg);
  const std::uint64_t slot = (bytes + static_cast<std::uint64_t>(C) - 1) / C;
  auto* p = static_cast<std::byte*>(buf);
  std::vector<sim::Future<void>> sends;
  for (int c = 0; c < C; ++c) {
    const Range rng = slotRange(bytes, slot, c);
    if (rng.cnt == 0) continue;
    if (prev >= 0) co_await r.recv(p + rng.off, rng.cnt, prev, tagFor(tag, 0, c));
    if (next >= 0) {
      sp->chunk(rng.cnt);
      sends.push_back(r.isend(p + rng.off, rng.cnt, next, tagFor(tag, 0, c)));
    }
  }
  co_await sim::allOf(sends);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Public entry points: span-minting dispatchers.
// ---------------------------------------------------------------------------

/// Broadcast `bytes` at `buf` (significant on `root`) to all ranks.
template <class RankT>
sim::FutureTask bcast(RankT& r, void* buf, std::uint64_t bytes, int root,
                      int tag = kCollTagBase, CollConfig cfg = {}) {
  detail::CollSpan sp(r.system(), r.pe(), bytes, "coll.bcast");
  switch (detail::resolve(cfg, bytes)) {
    case CollImpl::Reference:
      co_await reference::bcast(r, buf, bytes, root, tag);
      break;
    case CollImpl::Ring:
      co_await detail::bcastRing(r, buf, bytes, root, tag, cfg, &sp);
      break;
    default:
      co_await detail::bcastTree(r, buf, bytes, root, tag, cfg, &sp);
      break;
  }
  detail::noteAbortIfAny(r, sp);
}

/// Allreduce over doubles.
template <class RankT>
sim::FutureTask allreduce(RankT& r, const void* sendbuf, void* recvbuf, std::uint64_t count,
                          Op op, int tag = kCollTagBase, CollConfig cfg = {}) {
  detail::CollSpan sp(r.system(), r.pe(), count * 8, "coll.allreduce");
  switch (detail::resolve(cfg, count * 8)) {
    case CollImpl::Reference:
      co_await reference::allreduce(r, sendbuf, recvbuf, count, op, tag);
      break;
    case CollImpl::Ring:
      co_await detail::allreduceRing(r, sendbuf, recvbuf, count, op, tag, cfg, &sp);
      break;
    default:
      // Pipelined reduce to rank 0, then pipelined broadcast of the result.
      co_await detail::reduceTree(r, sendbuf, recvbuf, count, op, 0, tag, cfg, &sp);
      co_await detail::bcastTree(r, recvbuf, count * 8, 0, tag + kChunkSlots * kChunkSlots,
                                 cfg, &sp);
      break;
  }
  detail::noteAbortIfAny(r, sp);
}

}  // namespace cux::coll
