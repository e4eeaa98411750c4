#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/osu/osu.hpp"
#include "charm/pup.hpp"
#include "converse/pe.hpp"
#include "sim/engine.hpp"

namespace {

using namespace cux;

// --------------------------------------------------------------------------
// PUP-lite serialisation
// --------------------------------------------------------------------------

TEST(Pup, TrivialTypesRoundTrip) {
  ck::Packer p;
  p.pack(42);
  p.pack(3.25);
  p.pack(static_cast<std::uint8_t>(7));
  struct POD {
    int a;
    double b;
  };
  p.pack(POD{1, 2.0});
  const auto bytes = p.take();
  ck::Unpacker u(bytes);
  EXPECT_EQ(u.unpack<int>(), 42);
  EXPECT_DOUBLE_EQ(u.unpack<double>(), 3.25);
  EXPECT_EQ(u.unpack<std::uint8_t>(), 7);
  const auto pod = u.unpack<POD>();
  EXPECT_EQ(pod.a, 1);
  EXPECT_DOUBLE_EQ(pod.b, 2.0);
  EXPECT_EQ(u.remaining(), 0u);
}

TEST(Pup, VectorsAndStringsRoundTrip) {
  ck::Packer p;
  std::vector<std::uint32_t> v{1, 2, 3, 4};
  p.pack(v);
  p.pack(std::string("hello pup"));
  p.pack(std::vector<double>{});
  const auto bytes = p.take();
  ck::Unpacker u(bytes);
  EXPECT_EQ(u.unpack<std::vector<std::uint32_t>>(), v);
  EXPECT_EQ(u.unpack<std::string>(), "hello pup");
  EXPECT_TRUE(u.unpack<std::vector<double>>().empty());
}

TEST(Pup, BulkBytesTracksPayloadCopies) {
  ck::Packer p;
  p.pack(7);  // scalar: not bulk
  EXPECT_EQ(p.bulkBytes(), 0u);
  p.pack(std::vector<std::uint8_t>(1000, 1));
  EXPECT_EQ(p.bulkBytes(), 1000u);
  p.pack(std::string(50, 'x'));
  EXPECT_EQ(p.bulkBytes(), 1050u);
}

TEST(Pup, ZerosAppendsPlaceholder) {
  // A placeholder for unbacked source data lengthens the wire, not the
  // buffer.
  ck::Packer p;
  p.pack(std::uint32_t{7});
  p.zeros(16);
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.phantomBytes(), 16u);
  EXPECT_EQ(p.wireSize(), 20u);
  const auto bytes = p.take();
  ASSERT_EQ(bytes.size(), 4u);
}

TEST(Pup, UnpackerOffsetAndSkip) {
  ck::Packer p;
  p.pack(1);
  p.pack(2);
  p.pack(3);
  const auto bytes = p.take();
  ck::Unpacker u(bytes, sizeof(int));  // start past the first int
  EXPECT_EQ(u.unpack<int>(), 2);
  u.skip(sizeof(int));
  EXPECT_EQ(u.remaining(), 0u);
}

TEST(Pup, InterleavedTypesPreserveOrder) {
  ck::Packer p;
  for (int i = 0; i < 50; ++i) {
    p.pack(i);
    p.pack(std::vector<std::uint16_t>(static_cast<std::size_t>(i % 5), static_cast<std::uint16_t>(i)));
  }
  const auto bytes = p.take();
  ck::Unpacker u(bytes);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(u.unpack<int>(), i);
    const auto v = u.unpack<std::vector<std::uint16_t>>();
    EXPECT_EQ(v.size(), static_cast<std::size_t>(i % 5));
  }
}

TEST(Pup, PhantomFieldsRoundTrip) {
  // Unbacked payloads travel as length only, flagged in their own header, so
  // the fields around them unpack at the right offsets and the wire length
  // is what carrying the bytes would have cost.
  const std::vector<std::byte> real = {std::byte{1}, std::byte{2}, std::byte{3}};
  ck::Packer p;
  p.pack(std::uint32_t{11});
  p.pack(ck::BytesRef{nullptr, 1000, false});
  p.pack(std::uint32_t{22});
  p.pack(ck::BytesRef{real.data(), real.size(), true});
  p.pack(std::string("tail"));
  EXPECT_EQ(p.phantomBytes(), 1000u);
  EXPECT_EQ(p.wireSize(), 4 + (9 + 1000) + 4 + (9 + 3) + (8 + 4));
  EXPECT_EQ(p.size(), p.wireSize() - 1000);
  EXPECT_EQ(p.bulkBytes(), 1000u + 3u + 4u);  // copy cost is charged on phantom bytes too
  const auto bytes = p.take();
  ck::Unpacker u(bytes);
  EXPECT_EQ(u.unpack<std::uint32_t>(), 11u);
  const auto phantom = u.unpack<ck::Bytes>();
  EXPECT_FALSE(phantom.valid);
  EXPECT_EQ(phantom.len, 1000u);
  EXPECT_TRUE(phantom.data.empty());
  EXPECT_EQ(u.unpack<std::uint32_t>(), 22u);
  const auto carried = u.unpack<ck::Bytes>();
  EXPECT_TRUE(carried.valid);
  EXPECT_EQ(carried.len, 3u);
  EXPECT_EQ(carried.data, real);
  EXPECT_EQ(u.unpack<std::string>(), "tail");
  EXPECT_EQ(u.remaining(), 0u);
}

TEST(Pup, HeaderReservedPackerSizesOnce) {
  ck::Packer p(8, 8 + 4 + 8 + 16);
  p.pack(std::uint32_t{5});
  p.pack(std::vector<std::uint32_t>{1, 2, 3, 4});
  EXPECT_EQ(p.size(), 8u + 4 + 8 + 16);
  const auto bytes = p.take();
  EXPECT_EQ(bytes.capacity(), bytes.size());  // never grew past the reservation
  ck::Unpacker u(std::span<const std::byte>(bytes).subspan(8));
  EXPECT_EQ(u.unpack<std::uint32_t>(), 5u);
  EXPECT_EQ(u.unpack<std::vector<std::uint32_t>>().size(), 4u);
}

TEST(Pup, ReadPastEndThrowsInEveryBuild) {
  ck::Packer p;
  p.pack(std::uint16_t{1});
  const auto bytes = p.take();
  {
    ck::Unpacker u(bytes);
    EXPECT_THROW((void)u.unpack<std::uint32_t>(), std::out_of_range);
  }
  {
    ck::Unpacker u(bytes);
    EXPECT_THROW(u.skip(3), std::out_of_range);
    u.skip(2);
    EXPECT_EQ(u.remaining(), 0u);
  }
  EXPECT_THROW(ck::Unpacker(bytes, 3), std::out_of_range);
}

TEST(Pup, MalformedLengthsThrowBeforeAllocating) {
  // A corrupt element count must not turn into a huge allocation or an
  // out-of-bounds copy.
  ck::Packer p;
  p.pack(~std::uint64_t{0});
  p.pack(std::uint32_t{0});
  const auto bytes = p.take();
  EXPECT_THROW((void)ck::Unpacker(bytes).unpack<std::vector<std::uint64_t>>(), std::out_of_range);
  EXPECT_THROW((void)ck::Unpacker(bytes).unpack<std::string>(), std::out_of_range);
  ck::Packer q;
  q.pack(std::uint64_t{64});
  q.pack(std::uint8_t{1});  // claims 64 carried bytes, holds none
  const auto short_bytes = q.take();
  EXPECT_THROW((void)ck::Unpacker(short_bytes).unpack<ck::Bytes>(), std::out_of_range);
}

// --------------------------------------------------------------------------
// PE serialisation semantics
// --------------------------------------------------------------------------

TEST(Pe, ExecQueuesBehindPreviousWork) {
  sim::Engine e;
  cmi::Pe pe(e, 0);
  std::vector<sim::TimePoint> at;
  pe.exec(sim::usec(10), [&] { at.push_back(e.now()); });
  pe.exec(sim::usec(5), [&] { at.push_back(e.now()); });
  e.run();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], sim::usec(10));
  EXPECT_EQ(at[1], sim::usec(15));  // queued behind the first
}

TEST(Pe, ChargeExtendsBusyHorizonWithoutScheduling) {
  sim::Engine e;
  cmi::Pe pe(e, 3);
  pe.charge(sim::usec(7));
  EXPECT_EQ(pe.busyUntil(), sim::usec(7));
  pe.charge(sim::usec(3));
  EXPECT_EQ(pe.busyUntil(), sim::usec(10));
  EXPECT_TRUE(e.empty());
}

TEST(Pe, IdleGapResetsHorizonToNow) {
  sim::Engine e;
  cmi::Pe pe(e, 0);
  pe.exec(sim::usec(5), [] {});
  e.run();  // now = 5us
  e.schedule(sim::usec(100), [] {});
  e.run();  // now = 100us, PE long idle
  pe.charge(sim::usec(2));
  EXPECT_EQ(pe.busyUntil(), sim::usec(102));
}

TEST(Pe, RunHookWrapsContinuations) {
  // The "current PE" slot wraps every continuation: set to this PE's id
  // while it runs, restored afterwards.
  sim::Engine e;
  cmi::Pe pe(e, 5);
  int current = -1;
  int seen = -2;
  bool ran = false;
  pe.current_pe = &current;
  pe.exec(0, [&] {
    seen = current;
    ran = true;
  });
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(seen, 5);
  EXPECT_EQ(current, -1);
}

// --------------------------------------------------------------------------
// OSU suite extensions sanity
// --------------------------------------------------------------------------

TEST(OsuExt, BiBandwidthExceedsUnidirectional) {
  osu::BenchConfig cfg;
  cfg.stack = osu::Stack::Ompi;
  cfg.mode = osu::Mode::Device;
  cfg.place = osu::Placement::InterNode;
  cfg.iters = 8;
  cfg.warmup = 2;
  cfg.window = 16;
  cfg.sizes = {4u << 20};
  const double uni = osu::runBandwidth(cfg)[0].value;
  const double bi = osu::runBiBandwidth(cfg)[0].value;
  EXPECT_GT(bi, 1.5 * uni);  // both directions carry traffic
  EXPECT_LT(bi, 2.2 * uni);
}

TEST(OsuExt, MultiPairLatencyAboveSinglePair) {
  osu::BenchConfig cfg;
  cfg.stack = osu::Stack::Ompi;
  cfg.mode = osu::Mode::Device;
  cfg.place = osu::Placement::InterNode;
  cfg.iters = 8;
  cfg.warmup = 2;
  cfg.sizes = {1u << 20};
  const double single = osu::runLatency(cfg)[0].value;
  const double multi = osu::runMultiLatency(cfg)[0].value;
  EXPECT_GT(multi, single);  // six pairs share one NIC
}

}  // namespace
