#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace cux::test {

/// Keeps every trace record the Tracer folds, so a test can inspect a run's
/// timeline after it: attach with `sys.trace.enable(&sink)`. Each detail is
/// copied into a std::string, so a caller's stack buffer may die right after
/// the record call.
struct TraceSink final : sim::TraceSink {
  struct Record {
    sim::TimePoint time = 0;
    sim::TraceCat cat = sim::TraceCat::User;
    int pe = -1;
    int peer = -1;
    std::uint64_t bytes = 0;
    std::uint64_t tag = 0;
    std::string detail;
  };
  std::vector<Record> records;

  void onRecord(const sim::TraceRecord& r) override {
    records.push_back(Record{r.time, r.cat, r.pe, r.peer, r.bytes, r.tag, r.detail});
  }

  /// Records in category `c`.
  [[nodiscard]] std::size_t count(sim::TraceCat c) const {
    std::size_t n = 0;
    for (const Record& r : records) n += r.cat == c ? 1 : 0;
    return n;
  }

  /// One line per record, oldest first, under a header:
  /// time_us,category,pe,peer,bytes,tag,detail
  void dumpCsv(std::ostream& os) const {
    os << "time_us,category,pe,peer,bytes,tag,detail\n";
    for (const Record& r : records) {
      os << sim::toUs(r.time) << ',' << sim::name(r.cat) << ',' << r.pe << ',' << r.peer << ','
         << r.bytes << ',' << r.tag << ',' << r.detail << '\n';
    }
  }
};

}  // namespace cux::test
