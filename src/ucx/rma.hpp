#pragma once

#include <cstdint>

#include "ucx/context.hpp"

/// \file rma.hpp
/// Remote Memory Access and remote atomics — the rest of the UCX surface
/// the paper lists ("with support for tag-matched send/receive,
/// stream-oriented send/receive, Remote Memory Access (RMA), and remote
/// atomic operations", Sec. II-B). The Charm++ Zero Copy API is built on
/// exactly these primitives in the real runtime.
///
/// Registration follows the ucp_mem_map / rkey model: the owner registers a
/// region once and shares the RemoteKey; peers then put/get at offsets
/// without any receiver-side software involvement (one-sided). Atomics
/// execute at the target with a single fabric round trip.

namespace cux::ucx {

/// A packed rkey: remote PE + registered region.
struct RemoteKey {
  int pe = -1;
  void* base = nullptr;
  std::uint64_t length = 0;

  [[nodiscard]] bool valid() const noexcept { return base != nullptr; }
};

class Rma {
 public:
  explicit Rma(Context& ctx) : ctx_(ctx) {}

  /// Registers `len` bytes at `addr` on `pe` for remote access
  /// (ucp_mem_map + ucp_rkey_pack). Registration pins pages: costs
  /// reg_overhead_us of PE-side latency on first use, modelled into the
  /// first access.
  [[nodiscard]] RemoteKey memMap(int pe, void* addr, std::uint64_t len) {
    return RemoteKey{pe, addr, len};
  }

  /// One-sided put: writes `len` local bytes to rkey.base + offset.
  /// Completion = remote completion (data visible at the target).
  ///
  /// Every operation below throws std::invalid_argument for an invalid
  /// rkey or an access that does not lie inside the registered region.
  RequestPtr put(int src_pe, const void* lbuf, std::uint64_t len, const RemoteKey& rkey,
                 std::uint64_t offset, CompletionFn cb = {});

  /// One-sided get: reads `len` bytes from rkey.base + offset into lbuf.
  RequestPtr get(int src_pe, void* lbuf, std::uint64_t len, const RemoteKey& rkey,
                 std::uint64_t offset, CompletionFn cb = {});

  /// Remote fetch-and-add on a 64-bit word at rkey.base + offset; the
  /// pre-add value is written to *result before `cb` fires.
  RequestPtr atomicFetchAdd(int src_pe, const RemoteKey& rkey, std::uint64_t offset,
                            std::uint64_t operand, std::uint64_t* result, CompletionFn cb = {});

  /// Remote compare-and-swap on a 64-bit word; *result receives the previous
  /// value (swap happened iff *result == expected).
  RequestPtr atomicCompareSwap(int src_pe, const RemoteKey& rkey, std::uint64_t offset,
                               std::uint64_t expected, std::uint64_t desired,
                               std::uint64_t* result, CompletionFn cb = {});

  // --- statistics ---------------------------------------------------------
  [[nodiscard]] std::uint64_t puts() const noexcept { return puts_; }
  [[nodiscard]] std::uint64_t gets() const noexcept { return gets_; }
  [[nodiscard]] std::uint64_t atomics() const noexcept { return atomics_; }

 private:
  [[nodiscard]] sim::TimePoint dataTransfer(int from_pe, const void* from, int to_pe, void* to,
                                            std::uint64_t len, sim::TimePoint start);

  Context& ctx_;
  std::uint64_t puts_ = 0;
  std::uint64_t gets_ = 0;
  std::uint64_t atomics_ = 0;
};

}  // namespace cux::ucx
