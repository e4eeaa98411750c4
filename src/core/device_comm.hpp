#pragma once

#include <cstdint>
#include <vector>

#include "converse/converse.hpp"
#include "core/tag_scheme.hpp"
#include "obs/registry.hpp"
#include "ucx/request.hpp"

/// \file device_comm.hpp
/// The paper's primary contribution: the GPU-aware extension of the UCX
/// machine layer (Section III-A).
///
/// LrtsSendDevice sends a GPU (or large zero-copy host) buffer with the UCP
/// tagged API under a machine-generated tag; the tag is returned to the
/// calling layer so it can travel inside the host-side metadata message.
/// LrtsRecvDevice posts the matching receive once the metadata has arrived
/// and the destination buffer is known. DeviceRecvType records which
/// programming model posted the receive so the right handler runs on
/// completion — here that dispatch is a per-operation completion callback,
/// with the enum preserved for accounting.

namespace cux::core {

/// Converse-layer metadata describing one in-flight GPU buffer transfer
/// (paper Fig. 5). The Charm++ core wraps this with a callback as
/// CkDeviceBuffer. The source carries the classification its model layer
/// made at the user call; the machine layer never looks it up again.
struct CmiDeviceBuffer {
  hw::MemRef src;  ///< source buffer (sender side)
  std::uint64_t size = 0;
  std::uint64_t tag = 0;  ///< set by the UCX machine layer on send
};

/// Receive descriptor passed to LrtsRecvDevice (paper Section III-A), with
/// the destination's carried classification.
struct DeviceRdmaOp {
  hw::MemRef dst;
  std::uint64_t size = 0;
  std::uint64_t tag = 0;
};

enum class DeviceRecvType : std::uint8_t { Charm, Ampi, Charm4py, Raw };

/// Model-layer completion of a device send or receive. Sized for the model
/// layers' continuations (a request or promise plus a status, or a PE
/// pointer and a wake-up cost); it rides inside the UCX request's
/// ucx::CompletionFn, so it is moved, never copied.
using DoneFn = sim::InlineFn<void(), 56>;

class DeviceComm {
 public:
  explicit DeviceComm(cmi::Converse& cmi);
  ~DeviceComm();
  DeviceComm(const DeviceComm&) = delete;
  DeviceComm& operator=(const DeviceComm&) = delete;

  [[nodiscard]] cmi::Converse& converse() noexcept { return cmi_; }

  /// LrtsSendDevice: generates the tag (incrementing the per-PE counter),
  /// sends the buffer through UCX, and reports the tag through `buf.tag` so
  /// the caller can ship it in the metadata message. `on_complete` fires on
  /// the sender PE when the buffer is safe to reuse. `type` records which
  /// programming model issued the send (accounting only).
  ///
  /// Reliability: when the fault injector is enabled and the GPU-aware send
  /// exhausts its retries (or the link is down at issue time), the transfer
  /// degrades to the host-staged route under the same tag; only the timing
  /// suffers (see fallbacks()). A receive consumed by the failed rendezvous
  /// is re-posted so the fallback still matches (see recvReposts()), and a
  /// send whose data arrived but whose ATS was lost completes without a
  /// spurious resend (see acksLost()). Should the fallback itself fail
  /// terminally, `on_complete` is withheld rather than reporting data that
  /// never arrived.
  void lrtsSendDevice(int src_pe, int dst_pe, CmiDeviceBuffer& buf,
                      DoneFn on_complete = {},
                      DeviceRecvType type = DeviceRecvType::Raw);

  /// LrtsRecvDevice: posts the receive for an incoming GPU/zero-copy buffer.
  /// `on_complete` fires on `pe` only when the data has actually arrived: if
  /// a matched rendezvous fails terminally (sender falls back to the
  /// host-staged route), the receive is re-posted under the same tag until
  /// the fallback delivers.
  void lrtsRecvDevice(int pe, const DeviceRdmaOp& op, DeviceRecvType type,
                      DoneFn on_complete);

  /// Drains an orphaned transfer: a model layer's metadata for `tag` can no
  /// longer meet a real receive (its world or channel died), but the payload
  /// may be parked in UCX. Posts a receive on `pe` into a throwaway
  /// cuda::HostBuffer (unbacked in an unbacked run), so a live sender
  /// completes instead of hanging, and a dead sender's parked RTS is taken
  /// out of the unexpected store and ends PeerFailed, never written.
  void drainOrphan(int pe, std::uint64_t bytes, std::uint64_t tag, DeviceRecvType type);

  // --- user-provided tags (paper Sec. VI improvement) ----------------------
  // "supporting user-provided tags in the Charm++ runtime system ... would
  // eliminate the need to delay the posting of the receive for GPU data
  // until the arrival of the metadata message." Both sides derive the
  // machine tag from an application-agreed value, so the receiver can post
  // BEFORE any metadata exchange; the rendezvous starts the moment the RTS
  // lands. The user tag must be unique among in-flight transfers to a PE.

  /// Sends under tag MsgType::DeviceUser | user_tag (low 60 bits).
  void lrtsSendDeviceUserTag(int src_pe, int dst_pe, CmiDeviceBuffer& buf,
                             std::uint64_t user_tag, DoneFn on_complete = {},
                             DeviceRecvType type = DeviceRecvType::Raw);

  /// Pre-posts the receive for a user-tagged transfer; callable before the
  /// sender has even initiated it.
  void lrtsRecvDeviceUserTag(int pe, hw::MemRef dst, std::uint64_t size, std::uint64_t user_tag,
                             DeviceRecvType type, DoneFn on_complete);

  // --- accounting ---------------------------------------------------------
  [[nodiscard]] std::uint64_t sendsByType(DeviceRecvType t) const {
    return sends_by_type_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] std::uint64_t recvsByType(DeviceRecvType t) const {
    return recvs_by_type_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] std::uint64_t deviceSends() const noexcept { return device_sends_; }
  /// Device sends that degraded to the host-staged route (retries exhausted
  /// or link down); 0 unless the fault injector is enabled.
  [[nodiscard]] std::uint64_t fallbacks() const noexcept { return fallbacks_; }
  /// Receives consumed by a terminally-failed rendezvous and re-posted under
  /// the same tag so the sender's host-staged fallback can match.
  [[nodiscard]] std::uint64_t recvReposts() const noexcept { return recv_reposts_; }
  /// Sends that completed with ReqState::Error although the data had arrived
  /// (rendezvous ATS lost): the fallback is suppressed — resending under the
  /// same tag could never match the already-consumed receive.
  [[nodiscard]] std::uint64_t acksLost() const noexcept { return acks_lost_; }
  /// Sends completed (buffer-reusable) because the failure detector declared
  /// an endpoint dead — no data was delivered and no fallback was attempted
  /// (it would blackhole too).
  [[nodiscard]] std::uint64_t peerFailedSends() const noexcept { return peer_failed_sends_; }
  /// Receives drained because UCX ended them PeerFailed: their source or
  /// their own PE was declared dead before they matched, or they matched a
  /// rendezvous whose remaining legs could never finish. The model callback
  /// runs (so the operation terminates) but the data never arrived.
  [[nodiscard]] std::uint64_t peerFailedRecvs() const noexcept { return peer_failed_recvs_; }

  /// Matching-engine occupancy of the UCX workers this machine layer posts
  /// into. Device-metadata receives delegate to Worker::tagRecv under a full
  /// mask, so they ride the bucketed exact-tag path directly; this surfaces
  /// the resulting posted/unexpected high-watermarks and bucket occupancy
  /// for `gpucomm_sweep --metric match`.
  [[nodiscard]] sim::MatchStats matchStats() { return cmi_.ucx().matchStats(); }

 private:
  /// Issues the UCX send, routing through the host-staged fallback when the
  /// link is down at issue time or when the GPU-aware send fails terminally
  /// with the data undelivered.
  void issueSend(int src_pe, int dst_pe, hw::MemRef src, std::uint64_t size, std::uint64_t tag,
                 DoneFn on_complete);
  void startFallback(int src_pe, int dst_pe, hw::MemRef src, std::uint64_t size,
                     std::uint64_t tag, DoneFn on_complete, const char* why);
  /// Posts the machine-layer receive, naming the source PE the tag carries;
  /// on terminal rendezvous failure the receive is re-posted (same tag)
  /// instead of completing, so the sender's host-staged fallback still finds
  /// a match — unless UCX ended it PeerFailed, in which case it drains
  /// through failDeadRecv.
  void postDeviceRecv(int pe, const DeviceRdmaOp& op, DoneFn on_complete);
  /// Terminates a receive whose source PE is dead: ends the span (Errored),
  /// traces, and runs the model callback so the operation drains.
  void failDeadRecv(int pe, const DeviceRdmaOp& op, DoneFn cb);
  /// Body shared by lrtsSendDevice and lrtsSendDeviceUserTag once `buf.tag`
  /// is minted: accounting, span, trace, sender PE charge, then issueSend
  /// through inject(). `type` selects the span kind, trace label and
  /// zero-copy registration charge.
  void sendTagged(int src_pe, int dst_pe, const CmiDeviceBuffer& buf, DoneFn on_complete,
                  DeviceRecvType recv_type, MsgType type);
  /// Ends `tag`'s span as Errored at `pe` and still runs `cb`, so the
  /// model layer behind a failed operation drains.
  void erroredDrain(int pe, std::uint64_t tag, DoneFn cb);
  /// Runs the model callback `cb` (if any) on `pe` after the callback cost.
  void runCallback(int pe, DoneFn cb);

  /// A posted receive as its UCX completion carries it: the op with the
  /// posting PE packed beside the destination's classification, in what
  /// would be padding after a whole hw::MemRef, so the completion's capture
  /// stays inside ucx::CompletionFn's inline buffer.
  struct PostedOp {
    void* dst;
    std::uint64_t size;
    std::uint64_t tag;
    int pe;
    std::int16_t device;
    hw::MemSpace space;
    bool backed;

    PostedOp(int pe_id, const DeviceRdmaOp& op) noexcept
        : dst(op.dst.ptr), size(op.size), tag(op.tag), pe(pe_id), device(op.dst.device),
          space(op.dst.space), backed(op.dst.backed) {}
    [[nodiscard]] DeviceRdmaOp op() const noexcept {
      return DeviceRdmaOp{hw::MemRef{dst, device, space, backed}, size, tag};
    }
  };
  static_assert(sizeof(PostedOp) == 32, "PostedOp grew: re-audit the receive completion");

  cmi::Converse& cmi_;
  std::vector<std::uint64_t> counters_;  // per-PE tag counters
  int stats_provider_ = 0;               ///< obs registry handle (dtor deregisters)
  obs::Registry::Id send_bytes_hist_ = 0;
  std::uint64_t device_sends_ = 0;
  std::uint64_t multipath_eligible_ = 0;
  std::uint64_t fallbacks_ = 0;
  std::uint64_t recv_reposts_ = 0;
  std::uint64_t acks_lost_ = 0;
  std::uint64_t peer_failed_sends_ = 0;
  std::uint64_t peer_failed_recvs_ = 0;
  std::uint64_t sends_by_type_[4] = {0, 0, 0, 0};
  std::uint64_t recvs_by_type_[4] = {0, 0, 0, 0};
};

}  // namespace cux::core
