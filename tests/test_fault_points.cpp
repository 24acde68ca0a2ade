// Chaos fault-injection registry: spec parsing, deterministic firing
// under a seed, max_fires caps, disarm semantics and the stats/JSON
// surface the daemon's CHAOS command exposes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/fault_points.h"

namespace radar::chaos {
namespace {

/// Every test leaves the process-global registry clean — chaos must not
/// leak into unrelated suites running in the same binary.
class FaultPointsTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::instance().disarm_all(); }
  void TearDown() override { FaultRegistry::instance().disarm_all(); }
};

TEST_F(FaultPointsTest, UnarmedNeverFires) {
  auto& reg = FaultRegistry::instance();
  EXPECT_EQ(reg.armed(), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(reg.fire("nope.never"));
  EXPECT_TRUE(reg.stats().empty());
}

TEST_F(FaultPointsTest, ProbabilityEndpoints) {
  auto& reg = FaultRegistry::instance();
  reg.arm("always", FaultSpec{.prob = 1.0, .seed = 1});
  reg.arm("never", FaultSpec{.prob = 0.0, .seed = 1});
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(reg.fire("always"));
    EXPECT_FALSE(reg.fire("never"));
  }
  EXPECT_EQ(reg.armed(), 2u);
}

TEST_F(FaultPointsTest, SameSeedSameVerdictSequence) {
  auto& reg = FaultRegistry::instance();
  auto run = [&reg](std::uint64_t seed) {
    reg.arm("coin", FaultSpec{.prob = 0.5, .seed = seed});
    std::vector<bool> verdicts;
    for (int i = 0; i < 256; ++i) verdicts.push_back(reg.fire("coin"));
    reg.disarm("coin");
    return verdicts;
  };
  const auto a = run(42), b = run(42), c = run(43);
  EXPECT_EQ(a, b) << "same seed must replay the same fire sequence";
  EXPECT_NE(a, c) << "different seeds must diverge";
  // A fair-ish coin: not all-true, not all-false.
  const std::size_t fires =
      static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 64u);
  EXPECT_LT(fires, 192u);
}

TEST_F(FaultPointsTest, MaxFiresCapsThenGoesQuiet) {
  auto& reg = FaultRegistry::instance();
  reg.arm("capped", FaultSpec{.prob = 1.0, .seed = 9, .max_fires = 3});
  int fired = 0;
  for (int i = 0; i < 20; ++i) fired += reg.fire("capped") ? 1 : 0;
  EXPECT_EQ(fired, 3);
  const auto st = reg.stats();
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0].fires, 3u);
  EXPECT_EQ(st[0].evals, 20u);
}

TEST_F(FaultPointsTest, ParamFallsBackWhenUnarmedOrZero) {
  auto& reg = FaultRegistry::instance();
  EXPECT_EQ(reg.param("stall", 123), 123) << "unarmed: fallback";
  reg.arm("stall", FaultSpec{.prob = 1.0, .seed = 0, .param = 0});
  EXPECT_EQ(reg.param("stall", 123), 123) << "param 0 means 'default'";
  reg.arm("stall", FaultSpec{.prob = 1.0, .seed = 0, .param = 777});
  EXPECT_EQ(reg.param("stall", 123), 777);
}

TEST_F(FaultPointsTest, ArmFromSpecParsesAllFields) {
  auto& reg = FaultRegistry::instance();
  reg.arm_from_spec("scanner.stall:0.25:42:1500:2,worker.exception:1:7");
  const auto st = reg.stats();  // sorted by name
  ASSERT_EQ(st.size(), 2u);
  EXPECT_EQ(st[0].name, "scanner.stall");
  EXPECT_DOUBLE_EQ(st[0].spec.prob, 0.25);
  EXPECT_EQ(st[0].spec.seed, 42u);
  EXPECT_EQ(st[0].spec.param, 1500);
  EXPECT_EQ(st[0].spec.max_fires, 2);
  EXPECT_EQ(st[1].name, "worker.exception");
  EXPECT_DOUBLE_EQ(st[1].spec.prob, 1.0);
  EXPECT_EQ(st[1].spec.seed, 7u);
  EXPECT_EQ(st[1].spec.param, 0);
  EXPECT_EQ(st[1].spec.max_fires, -1);
}

TEST_F(FaultPointsTest, MalformedSpecsThrow) {
  auto& reg = FaultRegistry::instance();
  for (const char* bad :
       {"nocolons", "point:", "point:notanumber:1", "point:0.5",
        "point:0.5:notanumber", "point:0.5:1:alsobad", ":0.5:1",
        "point:1.5:1" /* prob out of range */}) {
    EXPECT_THROW(reg.arm_from_spec(bad), radar::Error) << bad;
  }
  // A throwing clause must not leave later tests poisoned.
  reg.disarm_all();
  EXPECT_EQ(reg.armed(), 0u);
}

TEST_F(FaultPointsTest, DisarmRestoresFastPath) {
  auto& reg = FaultRegistry::instance();
  reg.arm("p", FaultSpec{.prob = 1.0, .seed = 0});
  EXPECT_TRUE(reg.fire("p"));
  EXPECT_TRUE(reg.disarm("p"));
  EXPECT_FALSE(reg.disarm("p")) << "second disarm reports not-armed";
  EXPECT_EQ(reg.armed(), 0u);
  EXPECT_FALSE(reg.fire("p"));
}

TEST_F(FaultPointsTest, ReArmResetsCounters) {
  auto& reg = FaultRegistry::instance();
  reg.arm("p", FaultSpec{.prob = 1.0, .seed = 0});
  for (int i = 0; i < 5; ++i) reg.fire("p");
  reg.arm("p", FaultSpec{.prob = 1.0, .seed = 0});
  const auto st = reg.stats();
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0].evals, 0u);
  EXPECT_EQ(st[0].fires, 0u);
}

TEST_F(FaultPointsTest, JsonListsArmedPoints) {
  auto& reg = FaultRegistry::instance();
  EXPECT_EQ(reg.to_json(), "{\"points\":[]}");
  reg.arm("b.point", FaultSpec{.prob = 0.5, .seed = 3, .param = 10});
  reg.arm("a.point", FaultSpec{.prob = 1.0, .seed = 4});
  reg.fire("a.point");
  const std::string j = reg.to_json();
  // Sorted by name, with live counters.
  const auto pa = j.find("\"name\":\"a.point\"");
  const auto pb = j.find("\"name\":\"b.point\"");
  ASSERT_NE(pa, std::string::npos) << j;
  ASSERT_NE(pb, std::string::npos) << j;
  EXPECT_LT(pa, pb);
  EXPECT_NE(j.find("\"evals\":1"), std::string::npos) << j;
  EXPECT_NE(j.find("\"fires\":1"), std::string::npos) << j;
}

TEST_F(FaultPointsTest, ArmRejectsBadProbAndEmptyName) {
  auto& reg = FaultRegistry::instance();
  EXPECT_THROW(reg.arm("p", FaultSpec{.prob = -0.1}), radar::Error);
  EXPECT_THROW(reg.arm("p", FaultSpec{.prob = 1.1}), radar::Error);
  EXPECT_THROW(reg.arm("", FaultSpec{}), radar::Error);
  // CHAOS STATS writes point names into JSON unescaped.
  for (const char* bad : {"a\"b", "a b", "a\\b", "a:b", "a,b"})
    EXPECT_THROW(reg.arm(bad, FaultSpec{}), radar::InvalidArgument) << bad;
  EXPECT_EQ(reg.armed(), 0u);
  reg.arm("golden.torn_read-2_X", FaultSpec{});
  EXPECT_EQ(reg.armed(), 1u);
}

}  // namespace
}  // namespace radar::chaos
