#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "ucx/context.hpp"

/// \file stream.hpp
/// Stream-oriented send/receive — the second GPU-capable API the paper
/// lists for UCX ("GPU-aware communication is supported on NVIDIA and AMD
/// GPUs through its tagged and stream APIs", Sec. II-B).
///
/// Semantics follow ucp_stream_send_nb / ucp_stream_recv_nb: bytes between
/// one (sender, receiver) endpoint pair form an ordered stream with no
/// message boundaries — a receive completes once the requested number of
/// bytes has accumulated, regardless of how the sender chunked them.
///
/// Transport rides the tagged engine under a reserved tag type (0xF in the
/// top four bits, disjoint from the machine layer's MsgType values), so
/// streams inherit the eager/rendezvous/device protocol selection.

namespace cux::ucx {

class Streams {
 public:
  explicit Streams(Context& ctx);
  Streams(const Streams&) = delete;
  Streams& operator=(const Streams&) = delete;

  /// Appends `len` bytes at `buf` (host or device) to the stream
  /// src_pe -> dst_pe. Completion: buffer reusable.
  RequestPtr streamSend(int src_pe, int dst_pe, const void* buf, std::uint64_t len,
                        CompletionFn cb = {});

  /// Receives exactly `len` bytes of the stream from_pe -> pe into `buf`.
  /// Receives complete in posting order as bytes become available.
  RequestPtr streamRecv(int pe, int from_pe, void* buf, std::uint64_t len,
                        CompletionFn cb = {});

  /// Bytes currently buffered for the stream from_pe -> pe.
  [[nodiscard]] std::uint64_t available(int pe, int from_pe) const;

 private:
  struct PendingRecv {
    RequestPtr req;
    void* buf;
    std::uint64_t len;
    std::uint64_t filled = 0;
  };
  struct Segment {
    std::vector<std::byte> data;
    bool valid = true;
    std::uint64_t len = 0;      ///< logical length (data may be empty if invalid)
    std::uint64_t consumed = 0;
  };
  struct PairState {
    std::uint32_t seq_out = 0;
    std::uint32_t seq_expected = 0;
    std::map<std::uint32_t, Segment> out_of_order;
    std::deque<Segment> segments;  ///< in-order, partially consumed at front
    std::uint64_t bytes_avail = 0;
    std::deque<PendingRecv> waiting;
  };

  void onSegment(int dst_pe, int src_pe, std::uint32_t seq, Segment seg);
  void drain(PairState& st);
  [[nodiscard]] PairState& pair(int dst_pe, int src_pe) {
    return pairs_[(static_cast<std::uint64_t>(dst_pe) << 32) |
                  static_cast<std::uint32_t>(src_pe)];
  }

  Context& ctx_;
  std::map<std::uint64_t, PairState> pairs_;
};

}  // namespace cux::ucx
