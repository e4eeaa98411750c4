#include "ucx/am.hpp"

#include <stdexcept>
#include <string>

namespace cux::ucx {

namespace {

/// An id >= 256 would spill into the PE bits of the (pe << 8) | id keys and
/// alias another PE's registrations.
void checkId(const char* op, std::uint32_t id) {
  if (id >= 256) {
    throw std::invalid_argument(std::string("ActiveMessages::") + op + ": id " +
                                std::to_string(id) + " does not fit in 8 tag bits");
  }
}

}  // namespace

ActiveMessages::ActiveMessages(Context& ctx) : ctx_(ctx) {
  for (int pe = 0; pe < ctx.numWorkers(); ++pe) {
    ctx.worker(pe).setBufferedHandler(
        kAmType, kTypeMask,
        [this, pe](std::uint64_t len, Tag tag, int src_pe)
            -> std::pair<hw::MemRef, CompletionFn> {
          const std::uint64_t key =
              (static_cast<std::uint64_t>(pe) << 8) | idOf(tag);
          auto it = regs_.find(key);
          if (it == regs_.end()) return {hw::MemRef{}, CompletionFn{}};  // unregistered id: decline
          void* buf = it->second.alloc(len, src_pe);
          Handler& handler = it->second.handler;
          CompletionFn done = [this, &handler, buf, len, src_pe](Request&) {
            ++delivered_;
            handler(buf, len, src_pe);
          };
          // The allocator's buffer enters the stack here: classify it once.
          return {ctx_.system().memory.classify(buf), std::move(done)};
        });
  }
}

void ActiveMessages::registerAm(int pe, std::uint32_t id, Allocator alloc, Handler handler) {
  checkId("registerAm", id);
  const std::uint64_t key = (static_cast<std::uint64_t>(pe) << 8) | id;
  if (!regs_.try_emplace(key, Registration{std::move(alloc), std::move(handler)}).second) {
    throw std::invalid_argument("ActiveMessages::registerAm: id " + std::to_string(id) +
                                " already registered on PE " + std::to_string(pe));
  }
}

RequestPtr ActiveMessages::amSend(int src_pe, int dst_pe, std::uint32_t id, const void* buf,
                                  std::uint64_t len, CompletionFn cb) {
  checkId("amSend", id);
  auto& seq = seq_[(static_cast<std::uint64_t>(src_pe) << 8) | id];
  const Tag tag = makeTag(id, src_pe, seq++);
  return ctx_.tagSend(src_pe, dst_pe, ctx_.system().memory.classify(buf), len, tag, std::move(cb));
}

}  // namespace cux::ucx
