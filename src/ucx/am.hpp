#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "ucx/context.hpp"

/// \file am.hpp
/// GPU-capable active messages — the first improvement the paper's
/// conclusion proposes ("GPU support in the active messages API of UCX,
/// which could better fit the message-driven execution model of Charm++",
/// Sec. VI).
///
/// The receiver registers, per AM id, an *allocator* (supplies a destination
/// buffer — host or device — when a message arrives) and a *handler* (runs
/// once the payload has landed). Because the allocator provides the buffer
/// at match time, rendezvous GPU payloads start moving as soon as the RTS
/// arrives: the metadata round trip and the delayed receive post of the
/// tagged design (paper Sec. III) disappear. bench/ext_futurework quantifies
/// the difference.
///
/// Tag layout (type 0xE, disjoint from the machine layer's 0-2):
/// [0xE | am_id(8) | src_pe(24) | seq(28)].

namespace cux::ucx {

class ActiveMessages {
 public:
  /// Destination buffer for an incoming AM of `len` bytes from `src_pe`.
  using Allocator = std::function<void*(std::uint64_t len, int src_pe)>;
  /// Invoked when the payload has fully landed in the allocated buffer.
  using Handler = std::function<void(void* data, std::uint64_t len, int src_pe)>;

  explicit ActiveMessages(Context& ctx);
  ActiveMessages(const ActiveMessages&) = delete;
  ActiveMessages& operator=(const ActiveMessages&) = delete;

  /// Registers AM id `id` on `pe`. One registration per (pe, id); throws
  /// std::invalid_argument for id >= 256 (ids occupy 8 tag bits) or an id
  /// already registered on `pe`.
  void registerAm(int pe, std::uint32_t id, Allocator alloc, Handler handler);

  /// Sends `len` bytes at `buf` (host or device) to AM `id` on `dst_pe`;
  /// throws std::invalid_argument for id >= 256.
  RequestPtr amSend(int src_pe, int dst_pe, std::uint32_t id, const void* buf,
                    std::uint64_t len, CompletionFn cb = {});

  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }

 private:
  static constexpr Tag kAmType = 0xEull << 60;
  static constexpr Tag kTypeMask = 0xFull << 60;
  [[nodiscard]] static constexpr Tag makeTag(std::uint32_t id, int src_pe,
                                             std::uint32_t seq) noexcept {
    return kAmType | (static_cast<Tag>(id & 0xFFu) << 52) |
           (static_cast<Tag>(static_cast<std::uint32_t>(src_pe) & 0xFFFFFFu) << 28) |
           (seq & 0xFFFFFFFu);
  }
  [[nodiscard]] static constexpr std::uint32_t idOf(Tag t) noexcept {
    return static_cast<std::uint32_t>((t >> 52) & 0xFFu);
  }

  struct Registration {
    Allocator alloc;
    Handler handler;
  };

  Context& ctx_;
  /// (pe << 8 | id) -> registration.
  std::unordered_map<std::uint64_t, Registration> regs_;
  std::unordered_map<std::uint64_t, std::uint32_t> seq_;  ///< (src<<8|id) counters
  std::uint64_t delivered_ = 0;
};

}  // namespace cux::ucx
