#include "sim/trace.hpp"

namespace cux::sim {

const char* name(TraceCat c) {
  switch (c) {
    case TraceCat::UcxSend:
      return "ucx.send";
    case TraceCat::UcxRecv:
      return "ucx.recv";
    case TraceCat::UcxRndv:
      return "ucx.rndv";
    case TraceCat::CmiSend:
      return "cmi.send";
    case TraceCat::CmiSched:
      return "cmi.sched";
    case TraceCat::LrtsSend:
      return "lrts.send";
    case TraceCat::LrtsRecv:
      return "lrts.recv";
    case TraceCat::Kernel:
      return "kernel";
    case TraceCat::User:
      return "user";
    case TraceCat::Drop:
      return "fault.drop";
    case TraceCat::Retry:
      return "fault.retry";
    case TraceCat::Fallback:
      return "fault.fallback";
    case TraceCat::PeFail:
      return "fault.pe-fail";
  }
  return "?";
}

void Tracer::fold(const TraceRecord& r) {
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = hash_;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffu;
      h *= kPrime;
    }
  };
  mix(r.time);
  mix(static_cast<std::uint64_t>(r.cat));
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.pe)));
  mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.peer)));
  mix(r.bytes);
  mix(r.tag);
  for (const char* p = r.detail; *p != '\0'; ++p) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(*p));
    h *= kPrime;
  }
  hash_ = h;
  ++recorded_;
  if (sink_ != nullptr) sink_->onRecord(r);
}

}  // namespace cux::sim
