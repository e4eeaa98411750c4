#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "converse/pe.hpp"
#include "core/tag_scheme.hpp"
#include "hw/system.hpp"
#include "model/model.hpp"
#include "ucx/context.hpp"

/// \file converse.hpp
/// The Converse layer: PE schedulers, the handler table, and host-message
/// transport over the UCX machine layer (Fig. 1 of the paper — Converse sits
/// between the Charm++ core and the machine layer on every PE).
///
/// Host-side messages (entry-method envelopes, AMPI metadata, Charm4py
/// channel headers) are byte vectors routed through mini-UCX with a
/// MsgType::Host tag; each PE's worker carries a persistent wildcard handler
/// that feeds its scheduler queue.

namespace cux::cmi {

/// A received Converse message. `payload_valid` is false when the sending
/// side's payload lived in unbacked (simulation-only) memory. `len` is the
/// wire length: `raw.size()` plus any phantom bytes the sender carried as
/// length only (see Converse::sendPacked).
struct Message {
  int src_pe = -1;
  bool payload_valid = true;
  std::uint64_t len = 0;
  std::vector<std::byte> raw;  ///< header + payload

  [[nodiscard]] std::span<const std::byte> payload() const noexcept {
    return std::span<const std::byte>(raw).subspan(kHeaderBytes);
  }
  static constexpr std::size_t kHeaderBytes = 8;  // handler id + source PE
};
// A message rides by value in the scheduler continuations (handler pointer
// plus message, behind the PE's own pointer; the SMP hop adds the runtime
// pointer and destination PE).
static_assert(sim::SmallFn::fitsInline<std::tuple<void*, void*, void*, int, Message>>(),
              "a Converse delivery continuation must fit an engine slot");

using HandlerFn = std::function<void(Message)>;

class Converse {
 public:
  /// Throws std::invalid_argument when `tags` is malformed (bit widths not
  /// summing to 64) or its PE_BITS cannot name every PE of `sys`.
  Converse(hw::System& sys, ucx::Context& ucx, const model::LayerCosts& costs,
           core::TagScheme tags = {});
  Converse(const Converse&) = delete;
  Converse& operator=(const Converse&) = delete;

  [[nodiscard]] hw::System& system() noexcept { return sys_; }
  [[nodiscard]] ucx::Context& ucx() noexcept { return ucx_; }
  [[nodiscard]] const model::LayerCosts& costs() const noexcept { return costs_; }
  [[nodiscard]] const core::TagScheme& tags() const noexcept { return tags_; }
  [[nodiscard]] int numPes() const noexcept { return static_cast<int>(pes_.size()); }
  [[nodiscard]] Pe& pe(int i) { return *pes_.at(static_cast<std::size_t>(i)); }

  /// PE whose exec() continuation is currently running, or -1 outside any.
  [[nodiscard]] int currentPe() const noexcept { return current_pe_; }

  /// Registers a message handler; returns its id (CmiRegisterHandler).
  int registerHandler(HandlerFn fn);

  /// Sends `payload` from `src_pe` to handler `handler` on `dst_pe`
  /// (CmiSyncSendAndFree). The sender PE is charged the Converse send cost;
  /// delivery charges the scheduler-pickup cost on the destination PE.
  /// Throws std::invalid_argument for an unregistered handler id.
  void send(int src_pe, int dst_pe, int handler, std::vector<std::byte> payload);

  /// send() for a message packed in place: `raw` starts with
  /// Message::kHeaderBytes reserved for the Converse header (written here,
  /// so the payload is never copied again), and `phantom_bytes` more bytes
  /// travel on the wire than `raw` holds — packed fields whose source is
  /// unbacked memory (see ck::Packer::zeros).
  void sendPacked(int src_pe, int dst_pe, int handler, std::vector<std::byte> raw,
                  std::uint64_t phantom_bytes);

  /// Runs `fn` on `pe` as if a local message had been scheduled (used to
  /// bootstrap programs and to serialise completion callbacks onto PEs).
  template <class F>
  void runOn(int pe_id, F&& fn, sim::Duration overhead = 0) {
    pe(pe_id).exec(overhead, std::forward<F>(fn));
  }

  /// Injects a network operation originating on `src_pe`: non-SMP, it fires
  /// once the PE's software work retires; in SMP mode it additionally
  /// serialises through (and is charged to) the node's communication thread.
  template <class F>
  void inject(int src_pe, F&& fn) {
    Pe& src = pe(src_pe);
    if (!costs_.smp_comm_thread) {
      sys_.engine.schedule(src.busyUntil(), std::forward<F>(fn));
      return;
    }
    // SMP build: hand the operation to the node's comm thread once the
    // worker PE's software retires; the comm thread serialises all of the
    // node's network traffic.
    Pe& ct = commThreadOf(src_pe);
    sys_.engine.schedule(src.busyUntil(),
                         [&ct, cost = sim::usec(costs_.comm_thread_us),
                          fn = std::forward<F>(fn)]() mutable { ct.exec(cost, std::move(fn)); });
  }

 private:
  void onHostMessage(int dst_pe, ucx::Delivery d);
  [[nodiscard]] Pe& commThreadOf(int pe_id) {
    return *comm_threads_[static_cast<std::size_t>(sys_.machine.nodeOfPe(pe_id))];
  }

  hw::System& sys_;
  ucx::Context& ucx_;
  model::LayerCosts costs_;
  core::TagScheme tags_;
  std::vector<std::unique_ptr<Pe>> pes_;
  std::vector<std::unique_ptr<Pe>> comm_threads_;  ///< per node, SMP mode only
  std::vector<HandlerFn> handlers_;
  int current_pe_ = -1;
};

}  // namespace cux::cmi
