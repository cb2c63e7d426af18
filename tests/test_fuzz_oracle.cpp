// Tests of the differential-fuzzing harness itself: case generation is a
// pure function of the seed, the trainer-path equivalence oracle passes on
// known-good seeds, injected faults are caught by the invariant checker
// (and only while checking is armed), and the minimizer shrinks failing
// cases to small reproducers with exact replay commands.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "testing/case_gen.h"
#include "testing/invariants.h"
#include "testing/oracle.h"

namespace gbdt::testing {
namespace {

/// Resets fault-injection and the invariant flag around every test, so an
/// assertion failure cannot leak an armed fault into the rest of the suite.
class FuzzOracleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault_injection() = {};
    set_invariants_enabled(false);
  }
  void TearDown() override {
    fault_injection() = {};
    set_invariants_enabled(false);
  }
};

/// Small case exercising every leg (sparse partition, both RLE strategies,
/// 3-way sharding, several OOC chunks) in a few milliseconds.
FuzzCase small_case() {
  FuzzCase c = FuzzCase::from_seed(0x5e1f7e57ull);
  c.n_instances = 120;
  c.n_attributes = 6;
  c.depth = 3;
  c.n_trees = 2;
  return c;
}

TEST_F(FuzzOracleTest, CaseGenerationIsAFunctionOfTheSeed) {
  const FuzzCase a = FuzzCase::from_seed(0xabcdef0123ull);
  const FuzzCase b = FuzzCase::from_seed(0xabcdef0123ull);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_EQ(a.dataset_spec().seed, b.dataset_spec().seed);

  const FuzzCase c = FuzzCase::from_seed(0xabcdef0124ull);
  EXPECT_NE(a.describe(), c.describe());
}

TEST_F(FuzzOracleTest, DatasetSeedSurvivesMinimizerShrinks) {
  // The generation seed depends only on the case seed, so a shrunk case
  // replayed via --seed plus field overrides sees the same value stream.
  const FuzzCase fresh = FuzzCase::from_seed(0x77ull);
  FuzzCase shrunk = fresh;
  shrunk.n_instances = 10;
  shrunk.n_attributes = 2;
  EXPECT_EQ(fresh.dataset_spec().seed, shrunk.dataset_spec().seed);
}

TEST_F(FuzzOracleTest, SplitMixStreamIsStable) {
  std::uint64_t s1 = 42, s2 = 42;
  for (int i = 0; i < 4; ++i) EXPECT_EQ(splitmix64(s1), splitmix64(s2));
}

TEST_F(FuzzOracleTest, OraclePassesOnKnownGoodSeeds) {
  // First seeds of gbdt_fuzz's default stream — the smoke run's prefix.
  std::uint64_t stream = 0x9d1cebab5eedull;
  for (int i = 0; i < 3; ++i) {
    const FuzzCase c = FuzzCase::from_seed(splitmix64(stream));
    const OracleResult r = run_oracle(c, /*check_invariants=*/true);
    EXPECT_TRUE(r.pass()) << c.describe() << "\n" << r.failure_report();
  }
}

TEST_F(FuzzOracleTest, OracleRunsEveryLeg) {
  const OracleResult r = run_oracle(small_case(), /*check_invariants=*/true);
  ASSERT_EQ(r.legs.size(), 6u);
  EXPECT_EQ(r.legs[0].name, "gpu_sparse");
  EXPECT_EQ(r.legs[1].name, "gpu_rle_direct");
  EXPECT_EQ(r.legs[2].name, "gpu_rle_fallback");
  const auto shards = std::min<std::int64_t>(small_case().n_gpus,
                                             small_case().n_attributes);
  EXPECT_EQ(r.legs[3].name, "multigpu_x" + std::to_string(shards));
  EXPECT_EQ(r.legs[4].name, "out_of_core");
  EXPECT_EQ(r.legs[5].name, "hist_vs_exact");
  for (const auto& leg : r.legs) EXPECT_TRUE(leg.ran) << leg.name;
  // The sparse leg is held to bitwise equality with the CPU reference.
  EXPECT_TRUE(r.legs[0].exact) << r.legs[0].detail;
  // Both RLE strategies must account compression identically.
  EXPECT_EQ(r.legs[1].rle_ratio, r.legs[2].rle_ratio);
  // The histogram leg is approximate: quality equivalence, never exact.
  EXPECT_TRUE(r.legs[5].quality_equivalent) << r.legs[5].detail;
  EXPECT_FALSE(r.legs[5].exact);
}

TEST_F(FuzzOracleTest, HistOracleRunsReferenceAndHistLegOnly) {
  const OracleResult r =
      run_hist_oracle(small_case(), /*check_invariants=*/true);
  ASSERT_EQ(r.legs.size(), 1u);
  EXPECT_EQ(r.legs[0].name, "hist_vs_exact");
  EXPECT_TRUE(r.legs[0].ran);
  EXPECT_TRUE(r.pass()) << r.failure_report();
}

TEST_F(FuzzOracleTest, HistSubtractionFaultIsCaughtOnlyWhileArmed) {
  fault_injection().break_hist_subtraction = true;
  const OracleResult bad =
      run_hist_oracle(small_case(), /*check_invariants=*/true);
  EXPECT_FALSE(bad.pass());
  EXPECT_TRUE(bad.legs[0].invariant_violation) << bad.legs[0].detail;

  const OracleResult off =
      run_hist_oracle(small_case(), /*check_invariants=*/false);
  EXPECT_TRUE(off.pass()) << off.failure_report();
}

TEST_F(FuzzOracleTest, PartitionFaultIsCaughtOnlyWhileArmed) {
  fault_injection().break_partition_order = true;

  const OracleResult bad = run_oracle(small_case(), /*check_invariants=*/true);
  EXPECT_FALSE(bad.pass());
  bool caught = false;
  for (const auto& leg : bad.legs) caught |= leg.invariant_violation;
  EXPECT_TRUE(caught) << "no leg reported an invariant violation";

  // With checking off the armed fault must be inert (hooks are free).
  const OracleResult off = run_oracle(small_case(), /*check_invariants=*/false);
  EXPECT_TRUE(off.pass()) << off.failure_report();

  fault_injection() = {};
  const OracleResult good = run_oracle(small_case(), /*check_invariants=*/true);
  EXPECT_TRUE(good.pass()) << good.failure_report();
}

TEST_F(FuzzOracleTest, PartitionFaultIsCaughtAtDepthTwo) {
  // A depth-2 tree partitions its attribute lists once, after the root
  // split (the last level only re-maps instances to leaves), so the one
  // partition must still be checked.
  FuzzCase c = small_case();
  c.depth = 2;
  fault_injection().break_partition_order = true;
  const OracleResult bad = run_oracle(c, /*check_invariants=*/true);
  EXPECT_FALSE(bad.pass());
  bool caught = false;
  for (const auto& leg : bad.legs) {
    if (leg.invariant_violation) {
      caught = true;
      EXPECT_NE(leg.detail.find("apply_partition_sparse"), std::string::npos)
          << leg.detail;
    }
  }
  EXPECT_TRUE(caught) << "no leg reported an invariant violation";
}

TEST_F(FuzzOracleTest, ChildCountFaultIsCaughtByConservationCheck) {
  fault_injection().break_child_counts = true;
  const OracleResult bad = run_oracle(small_case(), /*check_invariants=*/true);
  EXPECT_FALSE(bad.pass());
  bool caught = false;
  for (const auto& leg : bad.legs) {
    if (leg.invariant_violation) {
      caught = true;
      EXPECT_NE(leg.detail.find("invariant violation"), std::string::npos);
    }
  }
  EXPECT_TRUE(caught);
}

TEST_F(FuzzOracleTest, MinimizerShrinksAFailingCase) {
  // An always-firing fault makes every case fail, so the minimizer should
  // drive each dimension to its floor.  The conservation check runs on every
  // splitting level, depth 1 included (a depth-1 tree never partitions).
  fault_injection().break_child_counts = true;
  const FuzzCase big = FuzzCase::from_seed(0xb16ull);
  const FuzzCase small = minimize_case(big, /*check_invariants=*/true);
  EXPECT_EQ(small.n_instances, 10);
  EXPECT_EQ(small.n_attributes, 2);
  EXPECT_EQ(small.n_trees, 1);
  EXPECT_EQ(small.depth, 1);
  EXPECT_FALSE(run_oracle(small, /*check_invariants=*/true).pass());

  // The replay command carries the shrunken fields explicitly.
  const std::string repro = small.repro_command();
  EXPECT_NE(repro.find("--seed 0xb16"), std::string::npos) << repro;
  EXPECT_NE(repro.find("--rows 10"), std::string::npos) << repro;
}

TEST_F(FuzzOracleTest, ReproCommandOmitsUnchangedFields) {
  const FuzzCase fresh = FuzzCase::from_seed(0x1234ull);
  const std::string repro = fresh.repro_command();
  EXPECT_NE(repro.find("--seed 0x1234"), std::string::npos);
  EXPECT_EQ(repro.find("--rows"), std::string::npos) << repro;
  EXPECT_EQ(repro.find("--cols"), std::string::npos) << repro;
}

}  // namespace
}  // namespace gbdt::testing
