#include "converse/converse.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

namespace cux::cmi {

Converse::Converse(hw::System& sys, ucx::Context& ucx, const model::LayerCosts& costs,
                   core::TagScheme tags)
    : sys_(sys), ucx_(ucx), costs_(costs), tags_(tags) {
  // Checked once here, so the per-send tag construction needs no check.
  if (!tags_.valid()) {
    throw std::invalid_argument(
        "Converse: tag scheme MSG/PE/CNT bit widths must sum to 64 (MSG >= 2, PE and CNT >= 1)");
  }
  const int pes = sys.config.numPes();
  if (pes > 0 && static_cast<std::uint64_t>(pes - 1) > tags_.maxPe()) {
    throw std::invalid_argument("Converse: " + std::to_string(pes) + " PEs do not fit in " +
                                std::to_string(tags_.pe_bits) + " PE_BITS of the tag scheme");
  }
  if (costs_.smp_comm_thread) {
    for (int n = 0; n < sys.config.num_nodes; ++n) {
      comm_threads_.push_back(std::make_unique<Pe>(sys.engine, -1 - n));
    }
  }
  pes_.reserve(static_cast<std::size_t>(pes));
  for (int i = 0; i < pes; ++i) {
    pes_.push_back(std::make_unique<Pe>(sys.engine, i));
    pes_.back()->current_pe = &current_pe_;
    // Persistent wildcard receive for host-side messages, standing in for
    // the machine layer's pre-posted receives.
    ucx_.worker(i).setHandler(tags_.make(core::MsgType::Host, 0, 0), tags_.typeMask(),
                              [this, i](ucx::Delivery d) { onHostMessage(i, std::move(d)); });
  }
}

int Converse::registerHandler(HandlerFn fn) {
  handlers_.push_back(std::move(fn));
  return static_cast<int>(handlers_.size()) - 1;
}

void Converse::send(int src_pe, int dst_pe, int handler, std::vector<std::byte> payload) {
  std::vector<std::byte> raw(Message::kHeaderBytes + payload.size());
  if (!payload.empty()) {
    std::memcpy(raw.data() + Message::kHeaderBytes, payload.data(), payload.size());
  }
  sendPacked(src_pe, dst_pe, handler, std::move(raw), 0);
}

void Converse::sendPacked(int src_pe, int dst_pe, int handler, std::vector<std::byte> raw,
                          std::uint64_t phantom_bytes) {
  if (handler < 0 || handler >= static_cast<int>(handlers_.size())) {
    throw std::invalid_argument("Converse::send: unregistered handler id " +
                                std::to_string(handler));
  }
  assert(raw.size() >= Message::kHeaderBytes && "packed message lacks its header space");
  // Fill in the reserved Converse header.
  const auto h32 = static_cast<std::uint32_t>(handler);
  const auto s32 = static_cast<std::uint32_t>(src_pe);
  std::memcpy(raw.data(), &h32, 4);
  std::memcpy(raw.data() + 4, &s32, 4);

  // The send call occupies the sending PE; the message is injected into UCX
  // once the PE's preceding software work (including this call's cost) has
  // retired, so back-to-back sends stagger realistically.
  Pe& src = pe(src_pe);
  sys_.trace.record(sys_.engine.now(), sim::TraceCat::CmiSend, src_pe, dst_pe,
                    raw.size() + phantom_bytes, static_cast<std::uint64_t>(handler), "");
  src.charge(sim::usec(costs_.cmi_send_us));
  const ucx::Tag tag =
      tags_.make(core::MsgType::Host, static_cast<std::uint64_t>(src_pe), 0);
  inject(src_pe, [this, src_pe, dst_pe, tag, phantom_bytes, raw = std::move(raw)]() mutable {
    ucx_.amSend(src_pe, dst_pe, tag, std::move(raw), phantom_bytes);
  });
}

void Converse::onHostMessage(int dst_pe, ucx::Delivery d) {
  Message msg;
  msg.payload_valid = d.payload_valid;
  msg.len = d.len;
  msg.raw = std::move(d.payload);
  if (msg.raw.size() < Message::kHeaderBytes) return;  // malformed; drop
  std::uint32_t handler = 0;
  std::uint32_t src = 0;
  std::memcpy(&handler, msg.raw.data(), 4);
  std::memcpy(&src, msg.raw.data() + 4, 4);
  msg.src_pe = static_cast<int>(src);
  if (handler >= handlers_.size()) {
    throw std::logic_error("Converse: message for unknown handler id " +
                           std::to_string(handler));
  }
  sys_.trace.record(sys_.engine.now(), sim::TraceCat::CmiSched, dst_pe, msg.src_pe, msg.len,
                    handler, "");
  HandlerFn& fn = handlers_[handler];
  if (costs_.smp_comm_thread) {
    // SMP build: the node's comm thread picks messages off the network and
    // forwards them to the worker PE's queue.
    commThreadOf(dst_pe).exec(sim::usec(costs_.comm_thread_us),
                              [this, dst_pe, &fn, msg = std::move(msg)]() mutable {
                                pe(dst_pe).exec(sim::usec(costs_.cmi_sched_us),
                                                [&fn, msg = std::move(msg)]() mutable {
                                                  fn(std::move(msg));
                                                });
                              });
    return;
  }
  pe(dst_pe).exec(sim::usec(costs_.cmi_sched_us),
                  [&fn, msg = std::move(msg)]() mutable { fn(std::move(msg)); });
}

}  // namespace cux::cmi
