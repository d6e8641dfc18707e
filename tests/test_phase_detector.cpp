// Tests for phase-change detection (matrix drift + miss-rate deltas).
#include <gtest/gtest.h>

#include "detect/phase_detector.hpp"

namespace tlbmap {
namespace {

CommMatrix pairs_matrix(int n, std::uint64_t weight, int shift = 0) {
  CommMatrix m(n);
  for (int t = 0; t < n; t += 2) {
    const int a = (t + shift) % n;
    const int b = (t + 1 + shift) % n;
    m.add(a, b, weight);
  }
  return m;
}

/// Feeds every thread `accesses` window accesses with `misses` TLB misses.
void feed_window(PhaseDetector& d, std::uint64_t accesses,
                 std::uint64_t misses) {
  for (ThreadId t = 0; t < d.num_threads(); ++t) {
    for (std::uint64_t i = 0; i < accesses; ++i) {
      d.on_access(t, i < misses);
    }
  }
}

TEST(PhaseDetector, ValidateRejectsBadThresholds) {
  PhaseDetectorConfig bad;
  bad.drift_threshold = 1.5;
  EXPECT_THROW(PhaseDetector(4, bad), std::invalid_argument);
  bad.drift_threshold = -0.1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  PhaseDetectorConfig negative_delta;
  negative_delta.miss_rate_delta = -1.0;
  EXPECT_THROW(negative_delta.validate(), std::invalid_argument);
  EXPECT_THROW(PhaseDetector(0), std::invalid_argument);
}

TEST(PhaseDetector, FirstShapedMatrixArmsWithoutAnEpoch) {
  PhaseDetector d(4);
  // Degenerate matrices carry no shape: the detector stays unarmed.
  EXPECT_FALSE(d.observe(CommMatrix(4)));
  EXPECT_EQ(d.epoch(), 0u);
  // The first shaped matrix anchors the reference, still no epoch (an
  // armed empty reference would have drifted here).
  EXPECT_FALSE(d.observe(pairs_matrix(4, 100)));
  EXPECT_EQ(d.epoch(), 0u);
  // Armed: an orthogonal shape now drifts.
  EXPECT_TRUE(d.observe(pairs_matrix(4, 100, /*shift=*/1)));
  EXPECT_EQ(d.epoch(), 1u);
}

TEST(PhaseDetector, StableShapeKeepsThePhase) {
  PhaseDetector d(4);
  d.observe(pairs_matrix(4, 100));
  // Same shape at any scale: cosine similarity 1, no drift.
  EXPECT_FALSE(d.observe(pairs_matrix(4, 100)));
  EXPECT_FALSE(d.observe(pairs_matrix(4, 7000)));
  EXPECT_EQ(d.epoch(), 0u);
}

TEST(PhaseDetector, MatrixDriftStartsANewPhaseAndReanchors) {
  PhaseDetector d(4);
  d.observe(pairs_matrix(4, 100, /*shift=*/0));
  // Shifted pairing is orthogonal to the reference: drift fires.
  EXPECT_TRUE(d.observe(pairs_matrix(4, 100, /*shift=*/1)));
  EXPECT_EQ(d.epoch(), 1u);
  // The reference re-anchored to the new shape: repeating it is stable.
  EXPECT_FALSE(d.observe(pairs_matrix(4, 100, /*shift=*/1)));
  EXPECT_EQ(d.epoch(), 1u);
}

TEST(PhaseDetector, MissRateDeltaStartsANewPhase) {
  PhaseDetectorConfig cfg;
  cfg.drift_threshold = 0.0;  // isolate the miss-rate signal
  cfg.miss_rate_delta = 0.75;
  PhaseDetector d(4, cfg);
  const CommMatrix m = pairs_matrix(4, 100);

  feed_window(d, 1000, 100);  // 10 % miss rate anchors the reference
  EXPECT_FALSE(d.observe(m));
  feed_window(d, 1000, 120);  // 12 %: within 75 % relative delta
  EXPECT_FALSE(d.observe(m));
  feed_window(d, 1000, 400);  // 40 %: way past the threshold
  EXPECT_TRUE(d.observe(m));
  EXPECT_EQ(d.epoch(), 1u);
}

TEST(PhaseDetector, ThinWindowsAreNotTrusted) {
  PhaseDetectorConfig cfg;
  cfg.drift_threshold = 0.0;
  PhaseDetector d(4, cfg);
  const CommMatrix m = pairs_matrix(4, 100);

  feed_window(d, 1000, 100);
  EXPECT_FALSE(d.observe(m));
  // A huge relative swing on 10 accesses is sampling noise, not a phase.
  feed_window(d, 10, 9);
  EXPECT_FALSE(d.observe(m));
  EXPECT_EQ(d.epoch(), 0u);
}

TEST(PhaseDetector, ObserveRejectsWrongMatrixSize) {
  PhaseDetector d(4);
  EXPECT_THROW(d.observe(CommMatrix(5)), std::invalid_argument);
}

TEST(PhaseDetector, EpochsAreDeterministic) {
  // Same observation sequence, same epochs, and the same verdict on the
  // next observation.
  const auto drive = [](PhaseDetector& d) {
    feed_window(d, 500, 50);
    d.observe(pairs_matrix(4, 100, 0));
    feed_window(d, 500, 400);
    d.observe(pairs_matrix(4, 100, 1));
    feed_window(d, 500, 60);
    d.observe(pairs_matrix(4, 90, 1));
  };
  PhaseDetector a(4), b(4);
  drive(a);
  drive(b);
  EXPECT_EQ(a.epoch(), b.epoch());
  feed_window(a, 500, 450);
  feed_window(b, 500, 450);
  EXPECT_EQ(a.observe(pairs_matrix(4, 100, 0)),
            b.observe(pairs_matrix(4, 100, 0)));
  EXPECT_EQ(a.epoch(), b.epoch());
}

}  // namespace
}  // namespace tlbmap
