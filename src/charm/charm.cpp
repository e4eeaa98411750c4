#include "charm/charm.hpp"

#include <stdexcept>
#include <string>

namespace cux::ck {

namespace detail {

std::vector<EntryDesc>& entryTable() {
  static std::vector<EntryDesc> table;
  return table;
}

}  // namespace detail

Runtime::Runtime(hw::System& sys, ucx::Context& ucx, const model::Model& model,
                 core::TagScheme tags)
    : sys_(sys),
      cmi_(std::make_unique<cmi::Converse>(sys, ucx, model.costs, tags)),
      dev_(std::make_unique<core::DeviceComm>(*cmi_)),
      chares_(static_cast<std::size_t>(cmi_->numPes())),
      ptr_caches_(static_cast<std::size_t>(cmi_->numPes())) {
  handler_ = cmi_->registerHandler([this](cmi::Message msg) { dispatch(std::move(msg)); });
}

void Runtime::dispatch(cmi::Message msg) {
  const int pe = cmi_->currentPe();
  if (pe < 0) throw std::logic_error("ck::Runtime: entry-method dispatch outside PE context");
  Unpacker u(msg.payload());
  const auto chare_idx = u.unpack<std::uint32_t>();
  const auto entry_id = u.unpack<std::uint32_t>();
  const auto& local = chares_[static_cast<std::size_t>(pe)];
  Chare* obj = chare_idx < local.size() ? local[chare_idx].get() : nullptr;
  if (obj == nullptr) {
    throw std::logic_error("ck::Runtime: entry-method message for unknown chare " +
                           std::to_string(chare_idx) + " on PE " + std::to_string(pe));
  }
  if (entry_id >= detail::entryTable().size()) {
    throw std::logic_error("ck::Runtime: entry-method message for unknown entry id " +
                           std::to_string(entry_id));
  }
  cmi_->pe(pe).charge(sim::usec(costs().charm_entry_us));
  const auto off = u.offset();
  detail::entryTable()[entry_id].invoke(*this, pe, obj, std::move(msg), off);
}

Runtime::Outgoing Runtime::classify(int src_pe, const Buffer& b) {
  const hw::MemRef src = classify(src_pe, b.source());
  if (src.isDevice() || b.size() >= costs().host_pack_threshold) {
    return {src, Buffer::Mode::Rndv};
  }
  return {src, src.backed && b.size() > 0 ? Buffer::Mode::Packed : Buffer::Mode::Phantom};
}

void Runtime::packBuffer(Packer& p, const Buffer& b, const Outgoing& out, int src_pe, int dst_pe,
                         std::uint64_t& inline_bulk) {
  const Buffer::Mode m = out.mode;
  p.pack(static_cast<std::uint8_t>(m));
  p.pack(b.size());
  if (m == Buffer::Mode::Rndv) {
    core::CmiDeviceBuffer cdb{out.src, b.size(), 0};
    dev_->lrtsSendDevice(src_pe, dst_pe, cdb, b.sentCallback(), core::DeviceRecvType::Charm);
    p.pack(cdb.tag);
    return;
  }
  if (m == Buffer::Mode::Packed) {
    p.raw(b.source(), b.size());
  } else {
    p.zeros(b.size());
  }
  inline_bulk += b.size();
  // Packed sends complete locally once the copy is made.
  if (b.sentCallback()) {
    cmi_->pe(src_pe).exec(sim::usec(costs().callback_us), b.sentCallback());
  }
}

}  // namespace cux::ck
