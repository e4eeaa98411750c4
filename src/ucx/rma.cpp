#include "ucx/rma.hpp"

#include <stdexcept>
#include <string>

#include "hw/cuda.hpp"

namespace cux::ucx {

namespace {

[[nodiscard]] RequestPtr makeReq(int peer, std::uint64_t bytes, CompletionFn cb) {
  auto req = std::make_shared<Request>();
  req->peer_pe = peer;
  req->bytes = bytes;
  req->completion = std::move(cb);
  return req;
}

/// Rejects an invalid rkey and any access outside the registered region.
/// Written as `offset > length - len` so that offset + len cannot wrap.
void checkAccess(const char* op, const RemoteKey& rkey, std::uint64_t offset,
                 std::uint64_t len) {
  if (!rkey.valid()) throw std::invalid_argument(std::string("Rma::") + op + ": invalid rkey");
  if (len > rkey.length || offset > rkey.length - len) {
    throw std::invalid_argument(std::string("Rma::") + op +
                                ": access outside the registered region");
  }
}

}  // namespace

sim::TimePoint Rma::dataTransfer(int from_pe, const void* from, int to_pe, void* to,
                                 std::uint64_t len, sim::TimePoint start) {
  hw::System& sys = ctx_.system();
  hw::Machine& machine = sys.machine;
  const bool src_dev = sys.memory.isDevice(from);
  const bool dst_dev = sys.memory.isDevice(to);
  hw::Path path;
  if (src_dev && dst_dev) {
    path = machine.deviceToDevicePath(from_pe, to_pe);
  } else {
    if (src_dev) path.append(machine.deviceEgressPath(from_pe));
    path.append(machine.hostToHostPath(from_pe, to_pe));
    if (dst_dev) path.append(machine.deviceIngressPath(to_pe));
  }
  return path.empty() ? start : machine.transfer(path, start, len);
}

RequestPtr Rma::put(int src_pe, const void* lbuf, std::uint64_t len, const RemoteKey& rkey,
                    std::uint64_t offset, CompletionFn cb) {
  checkAccess("put", rkey, offset, len);
  ++puts_;
  auto req = makeReq(rkey.pe, len, std::move(cb));
  hw::System& sys = ctx_.system();
  const sim::TimePoint t0 =
      sys.engine.now() + sim::usec(ctx_.config().send_overhead_us);
  void* dst = static_cast<std::byte*>(rkey.base) + offset;
  const sim::TimePoint arrival = dataTransfer(src_pe, lbuf, rkey.pe, dst, len, t0);
  sys.engine.schedule(arrival, [&sys, req, dst, lbuf, len] {
    cuda::moveBytes(sys, dst, lbuf, len);
    complete(*req, ReqState::Done);
  });
  return req;
}

RequestPtr Rma::get(int src_pe, void* lbuf, std::uint64_t len, const RemoteKey& rkey,
                    std::uint64_t offset, CompletionFn cb) {
  checkAccess("get", rkey, offset, len);
  ++gets_;
  auto req = makeReq(rkey.pe, len, std::move(cb));
  hw::System& sys = ctx_.system();
  // Get: the request travels to the target (header), the data streams back.
  const sim::TimePoint t0 =
      sys.engine.now() + sim::usec(ctx_.config().send_overhead_us);
  const sim::TimePoint at_target = hw::Machine::ctrlTransfer(
      sys.machine.hostToHostPath(src_pe, rkey.pe), t0, ctx_.config().header_bytes);
  const void* src = static_cast<const std::byte*>(rkey.base) + offset;
  const sim::TimePoint arrival = dataTransfer(rkey.pe, src, src_pe, lbuf, len, at_target);
  sys.engine.schedule(arrival, [&sys, req, lbuf, src, len] {
    cuda::moveBytes(sys, lbuf, src, len);
    complete(*req, ReqState::Done);
  });
  return req;
}

RequestPtr Rma::atomicFetchAdd(int src_pe, const RemoteKey& rkey, std::uint64_t offset,
                               std::uint64_t operand, std::uint64_t* result, CompletionFn cb) {
  checkAccess("atomicFetchAdd", rkey, offset, 8);
  ++atomics_;
  auto req = makeReq(rkey.pe, 8, std::move(cb));
  hw::System& sys = ctx_.system();
  const sim::TimePoint t0 = sys.engine.now() + sim::usec(ctx_.config().send_overhead_us);
  // Round trip: operation to the target NIC, result back.
  const hw::Path fwd = sys.machine.hostToHostPath(src_pe, rkey.pe);
  const hw::Path back = sys.machine.hostToHostPath(rkey.pe, src_pe);
  const sim::TimePoint at_target = hw::Machine::ctrlTransfer(fwd, t0, ctx_.config().header_bytes);
  const sim::TimePoint done =
      hw::Machine::ctrlTransfer(back, at_target, ctx_.config().header_bytes);
  void* word = static_cast<std::byte*>(rkey.base) + offset;
  // The read-modify-write executes at the target's arrival time, preserving
  // atomic ordering among concurrent operations (event order == time order).
  sys.engine.schedule(at_target, [&sys, word, operand, result] {
    if (!sys.memory.dereferenceable(word)) return;
    auto* w = static_cast<std::uint64_t*>(word);
    if (result != nullptr) *result = *w;
    *w += operand;
  });
  sys.engine.schedule(done, [req] {
    complete(*req, ReqState::Done);
  });
  return req;
}

RequestPtr Rma::atomicCompareSwap(int src_pe, const RemoteKey& rkey, std::uint64_t offset,
                                  std::uint64_t expected, std::uint64_t desired,
                                  std::uint64_t* result, CompletionFn cb) {
  checkAccess("atomicCompareSwap", rkey, offset, 8);
  ++atomics_;
  auto req = makeReq(rkey.pe, 8, std::move(cb));
  hw::System& sys = ctx_.system();
  const sim::TimePoint t0 = sys.engine.now() + sim::usec(ctx_.config().send_overhead_us);
  const sim::TimePoint at_target = hw::Machine::ctrlTransfer(
      sys.machine.hostToHostPath(src_pe, rkey.pe), t0, ctx_.config().header_bytes);
  const sim::TimePoint done = hw::Machine::ctrlTransfer(
      sys.machine.hostToHostPath(rkey.pe, src_pe), at_target, ctx_.config().header_bytes);
  void* word = static_cast<std::byte*>(rkey.base) + offset;
  sys.engine.schedule(at_target, [&sys, word, expected, desired, result] {
    if (!sys.memory.dereferenceable(word)) return;
    auto* w = static_cast<std::uint64_t*>(word);
    if (result != nullptr) *result = *w;
    if (*w == expected) *w = desired;
  });
  sys.engine.schedule(done, [req] {
    complete(*req, ReqState::Done);
  });
  return req;
}

}  // namespace cux::ucx
