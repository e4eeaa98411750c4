#include "ucx/stream.hpp"

#include <cassert>
#include <cstring>

namespace cux::ucx {

namespace {

/// Reserved stream tag type in the top 4 bits (the machine layer uses 0-2).
constexpr Tag kStreamType = 0xFull << 60;
constexpr Tag kTypeMask = 0xFull << 60;

[[nodiscard]] constexpr Tag makeStreamTag(int src_pe, std::uint32_t seq) noexcept {
  return kStreamType | (static_cast<Tag>(static_cast<std::uint32_t>(src_pe)) << 28) |
         (seq & 0xFFFFFFFu);
}
[[nodiscard]] constexpr int srcOf(Tag t) noexcept {
  return static_cast<int>((t >> 28) & 0xFFFFFFFFu);
}
[[nodiscard]] constexpr std::uint32_t seqOf(Tag t) noexcept {
  return static_cast<std::uint32_t>(t & 0xFFFFFFFu);
}

}  // namespace

Streams::Streams(Context& ctx) : ctx_(ctx) {
  for (int pe = 0; pe < ctx.numWorkers(); ++pe) {
    ctx.worker(pe).setHandler(kStreamType, kTypeMask, [this, pe](Delivery d) {
      Segment seg;
      seg.len = d.len;
      seg.valid = d.payload_valid;
      seg.data = std::move(d.payload);
      onSegment(pe, srcOf(d.tag), seqOf(d.tag), std::move(seg));
    });
  }
}

RequestPtr Streams::streamSend(int src_pe, int dst_pe, const void* buf, std::uint64_t len,
                               CompletionFn cb) {
  PairState& st = pair(dst_pe, src_pe);
  const Tag tag = makeStreamTag(src_pe, st.seq_out++);
  // The tagged engine handles protocol selection (eager / rendezvous /
  // device transports); the per-pair sequence number restores stream order
  // on the receive side.
  return ctx_.tagSend(src_pe, dst_pe, buf, len, tag, std::move(cb));
}

RequestPtr Streams::streamRecv(int pe, int from_pe, void* buf, std::uint64_t len,
                               CompletionFn cb) {
  auto req = std::make_shared<Request>();
  req->peer_pe = from_pe;
  req->bytes = len;
  req->completion = std::move(cb);
  PairState& st = pair(pe, from_pe);
  st.waiting.push_back(PendingRecv{req, buf, len, 0});
  drain(st);
  return req;
}

std::uint64_t Streams::available(int pe, int from_pe) const {
  const auto key =
      (static_cast<std::uint64_t>(pe) << 32) | static_cast<std::uint32_t>(from_pe);
  auto it = pairs_.find(key);
  return it == pairs_.end() ? 0 : it->second.bytes_avail;
}

void Streams::onSegment(int dst_pe, int src_pe, std::uint32_t seq, Segment seg) {
  PairState& st = pair(dst_pe, src_pe);
  if (seq != st.seq_expected) {
    st.out_of_order.emplace(seq, std::move(seg));
    return;
  }
  st.bytes_avail += seg.len;
  st.segments.push_back(std::move(seg));
  ++st.seq_expected;
  // Pull any now-in-order segments out of the stash.
  for (auto it = st.out_of_order.find(st.seq_expected); it != st.out_of_order.end();
       it = st.out_of_order.find(st.seq_expected)) {
    st.bytes_avail += it->second.len;
    st.segments.push_back(std::move(it->second));
    st.out_of_order.erase(it);
    ++st.seq_expected;
  }
  drain(st);
}

void Streams::drain(PairState& st) {
  hw::System& sys = ctx_.system();
  while (!st.waiting.empty() && st.bytes_avail >= st.waiting.front().len) {
    PendingRecv p = std::move(st.waiting.front());
    st.waiting.pop_front();
    // Consume p.len bytes from the segment FIFO into the receive buffer.
    std::uint64_t need = p.len;
    auto* out = static_cast<std::byte*>(p.buf);
    const bool out_ok = sys.memory.dereferenceable(p.buf);
    while (need > 0) {
      assert(!st.segments.empty());
      Segment& s = st.segments.front();
      const std::uint64_t take = std::min(need, s.len - s.consumed);
      if (out_ok && s.valid && !s.data.empty()) {
        std::memcpy(out + (p.len - need), s.data.data() + s.consumed, take);
      }
      s.consumed += take;
      need -= take;
      if (s.consumed == s.len) st.segments.pop_front();
    }
    st.bytes_avail -= p.len;
    complete(*p.req, ReqState::Done);
  }
}

}  // namespace cux::ucx
