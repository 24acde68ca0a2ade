// Unit tests for the common substrate: RNG, bit helpers, serialization,
// env knobs, thread pool, error machinery.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <set>

#include "common/bits.h"
#include "common/env.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/thread_pool.h"

namespace radar {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.bits(), b.bits());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.bits() == b.bits()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(3);
  const auto s = rng.sample_without_replacement(1000, 100);
  EXPECT_EQ(s.size(), 100u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 100u);
  for (auto v : s) EXPECT_LT(v, 1000u);
}

TEST(Rng, SampleAllElements) {
  Rng rng(3);
  const auto s = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(Rng, SampleRejectsOversizedRequest) {
  Rng rng(3);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), InvalidArgument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(11);
  Rng child = a.fork();
  EXPECT_NE(a.bits(), child.bits());
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Bits, GetBitMatchesTwosComplement) {
  const std::int8_t v = -128;  // 0b1000'0000
  EXPECT_TRUE(get_bit(v, 7));
  for (int b = 0; b < 7; ++b) EXPECT_FALSE(get_bit(v, b));
  const std::int8_t w = 127;  // 0b0111'1111
  EXPECT_FALSE(get_bit(w, 7));
  for (int b = 0; b < 7; ++b) EXPECT_TRUE(get_bit(w, b));
}

TEST(Bits, FlipBitIsInvolution) {
  for (int v = -128; v <= 127; ++v) {
    for (int b = 0; b < 8; ++b) {
      const auto x = static_cast<std::int8_t>(v);
      EXPECT_EQ(flip_bit(flip_bit(x, b), b), x);
    }
  }
}

TEST(Bits, MsbFlipDeltaIs128) {
  for (int v = -128; v <= 127; ++v) {
    const auto x = static_cast<std::int8_t>(v);
    const int d = flip_delta(x, kMsb);
    EXPECT_EQ(std::abs(d), 128);
    // 0 -> 1 on the sign bit means the value *decreases* by 128.
    if (!get_bit(x, kMsb)) {
      EXPECT_EQ(d, -128);
    }
  }
}

TEST(Bits, LowerBitFlipDelta) {
  for (int b = 0; b < 7; ++b) {
    const std::int8_t zero = 0;
    EXPECT_EQ(flip_delta(zero, b), 1 << b);
  }
}

TEST(Bits, SetBit) {
  std::int8_t v = 0;
  v = set_bit(v, 3, true);
  EXPECT_EQ(v, 8);
  v = set_bit(v, 3, false);
  EXPECT_EQ(v, 0);
  v = set_bit(v, 3, false);  // idempotent
  EXPECT_EQ(v, 0);
}

TEST(Bits, FloorDivPow2Negative) {
  // Must match mathematical floor, not truncation toward zero.
  EXPECT_EQ(floor_div_pow2(-1, 7), -1);
  EXPECT_EQ(floor_div_pow2(-128, 7), -1);
  EXPECT_EQ(floor_div_pow2(-129, 7), -2);
  EXPECT_EQ(floor_div_pow2(127, 7), 0);
  EXPECT_EQ(floor_div_pow2(128, 7), 1);
  EXPECT_EQ(floor_div_pow2(255, 8), 0);
  EXPECT_EQ(floor_div_pow2(256, 8), 1);
  EXPECT_EQ(floor_div_pow2(-256, 8), -1);
}

TEST(Bits, OutOfRangeBitThrows) {
  EXPECT_THROW(get_bit(0, 8), InvalidArgument);
  EXPECT_THROW(flip_bit(0, -1), InvalidArgument);
}

TEST(Serialize, RoundTripScalarsAndVectors) {
  const std::string path = "/tmp/radar_test_serialize.bin";
  {
    BinaryWriter w(path, 3);
    w.write_u8(200);
    w.write_u32(0xDEADBEEF);
    w.write_u64(1ull << 60);
    w.write_i64(-77);
    w.write_f32(3.5f);
    w.write_string("hello radar");
    w.write_f32_vector({1.0f, -2.0f, 0.25f});
    w.write_i8_vector({-128, 0, 127});
    w.write_u64_vector({9, 8, 7});
    w.close();
  }
  BinaryReader r(path, 3);
  EXPECT_EQ(r.read_u8(), 200);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 1ull << 60);
  EXPECT_EQ(r.read_i64(), -77);
  EXPECT_FLOAT_EQ(r.read_f32(), 3.5f);
  EXPECT_EQ(r.read_string(), "hello radar");
  EXPECT_EQ(r.read_f32_vector(), (std::vector<float>{1.0f, -2.0f, 0.25f}));
  EXPECT_EQ(r.read_i8_vector(), (std::vector<std::int8_t>{-128, 0, 127}));
  EXPECT_EQ(r.read_u64_vector(), (std::vector<std::uint64_t>{9, 8, 7}));
  std::filesystem::remove(path);
}

TEST(Serialize, VersionMismatchThrows) {
  const std::string path = "/tmp/radar_test_version.bin";
  {
    BinaryWriter w(path, 1);
    w.write_u32(0);
    w.close();
  }
  EXPECT_THROW(BinaryReader(path, 2), SerializationError);
  std::filesystem::remove(path);
}

TEST(Serialize, TruncatedFileThrows) {
  const std::string path = "/tmp/radar_test_trunc.bin";
  {
    BinaryWriter w(path, 1);
    w.write_u64(1000);  // promises a long vector that never arrives
    w.close();
  }
  BinaryReader r(path, 1);
  EXPECT_THROW(r.read_f32_vector(), SerializationError);
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(BinaryReader("/tmp/no_such_radar_file.bin", 1),
               SerializationError);
}

TEST(ThreadPool, ParallelForVisitsEachIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksCoversRange) {
  ThreadPool pool(8);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for_chunks(100, [&](std::size_t b, std::size_t e) {
    std::int64_t local = 0;
    for (std::size_t i = b; i < e; ++i) local += static_cast<std::int64_t>(i);
    sum += local;
  });
  EXPECT_EQ(sum.load(), 99 * 100 / 2);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Env, FallbacksWhenUnset) {
  ::unsetenv("RADAR_TEST_UNSET_VAR");
  EXPECT_EQ(env_int("RADAR_TEST_UNSET_VAR", 42), 42);
  EXPECT_EQ(env_string("RADAR_TEST_UNSET_VAR", "x"), "x");
}

TEST(Env, ParsesValues) {
  ::setenv("RADAR_TEST_VAR", "123", 1);
  EXPECT_EQ(env_int("RADAR_TEST_VAR", 0), 123);
  ::setenv("RADAR_TEST_VAR", "abc", 1);
  EXPECT_EQ(env_int("RADAR_TEST_VAR", 9), 9);
  ::unsetenv("RADAR_TEST_VAR");
}

TEST(Env, ExperimentRoundsPrecedence) {
  ::setenv("RADAR_ROUNDS", "17", 1);
  EXPECT_EQ(experiment_rounds(100, 5), 17);
  ::unsetenv("RADAR_ROUNDS");
  ::unsetenv("RADAR_FAST");
  EXPECT_EQ(experiment_rounds(100, 5), 100);
  ::setenv("RADAR_FAST", "1", 1);
  EXPECT_EQ(experiment_rounds(100, 5), 5);
  ::unsetenv("RADAR_FAST");
}

TEST(Error, ChecksThrowWithContext) {
  try {
    RADAR_REQUIRE(false, "contextual message");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("contextual message"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

}  // namespace
}  // namespace radar
