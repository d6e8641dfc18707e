#include "detect/phase_detector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace tlbmap {
namespace {

/// Absolute floor under the relative miss-rate comparison: rates this close
/// to zero are all "no misses worth speaking of", whatever the ratio.
constexpr double kRateFloor = 0.02;

/// Per-thread access floor before that thread's miss-rate delta is
/// trusted; windows thinner than this carry too much sampling noise.
constexpr std::uint64_t kMinWindowAccesses = 256;

}  // namespace

void PhaseDetectorConfig::validate() const {
  if (!std::isfinite(drift_threshold) || drift_threshold < 0.0 ||
      drift_threshold > 1.0) {
    throw std::invalid_argument(
        "PhaseDetectorConfig: drift_threshold must be in [0, 1]");
  }
  if (!std::isfinite(miss_rate_delta) || miss_rate_delta < 0.0) {
    throw std::invalid_argument(
        "PhaseDetectorConfig: miss_rate_delta must be non-negative");
  }
}

PhaseDetector::PhaseDetector(int num_threads, PhaseDetectorConfig config)
    : config_(config),
      num_threads_(num_threads),
      reference_(std::max(1, num_threads)),
      ref_accesses_(static_cast<std::size_t>(std::max(1, num_threads)), 0),
      ref_misses_(static_cast<std::size_t>(std::max(1, num_threads)), 0),
      window_accesses_(static_cast<std::size_t>(std::max(1, num_threads)), 0),
      window_misses_(static_cast<std::size_t>(std::max(1, num_threads)), 0) {
  if (num_threads < 1) {
    throw std::invalid_argument("PhaseDetector: need at least 1 thread");
  }
  config_.validate();
}

void PhaseDetector::on_access(ThreadId thread, bool tlb_miss) {
  if (thread < 0 || thread >= num_threads_) return;
  const auto t = static_cast<std::size_t>(thread);
  ++window_accesses_[t];
  if (tlb_miss) ++window_misses_[t];
}

void PhaseDetector::anchor(const CommMatrix& matrix) {
  reference_ = matrix;
  ref_accesses_ = window_accesses_;
  ref_misses_ = window_misses_;
  has_reference_ = true;
}

bool PhaseDetector::observe(const CommMatrix& matrix) {
  if (matrix.size() != num_threads_) {
    throw std::invalid_argument("PhaseDetector::observe: matrix size " +
                                std::to_string(matrix.size()) +
                                " does not match thread count " +
                                std::to_string(num_threads_));
  }
  const bool degenerate = matrix.health().degenerate();
  if (!has_reference_) {
    // Arm on the first matrix with actual shape; until then there is no
    // phase to drift from.
    if (!degenerate) anchor(matrix);
    std::fill(window_accesses_.begin(), window_accesses_.end(), 0);
    std::fill(window_misses_.begin(), window_misses_.end(), 0);
    return false;
  }

  bool changed = false;
  if (!degenerate && config_.drift_threshold > 0.0) {
    const double cos = CommMatrix::cosine_similarity(matrix, reference_);
    if (cos < config_.drift_threshold) changed = true;
  }
  if (!changed && config_.miss_rate_delta > 0.0) {
    for (std::size_t t = 0; t < window_accesses_.size() && !changed; ++t) {
      if (window_accesses_[t] < kMinWindowAccesses ||
          ref_accesses_[t] < kMinWindowAccesses) {
        continue;
      }
      const double rate = static_cast<double>(window_misses_[t]) /
                          static_cast<double>(window_accesses_[t]);
      const double ref_rate = static_cast<double>(ref_misses_[t]) /
                              static_cast<double>(ref_accesses_[t]);
      const double delta = std::abs(rate - ref_rate);
      if (delta > config_.miss_rate_delta * std::max(ref_rate, kRateFloor)) {
        changed = true;
      }
    }
  }

  if (changed) {
    ++epoch_;
    if (degenerate) {
      // The new phase has no shape yet; disarm and re-anchor on the next
      // non-degenerate observation.
      has_reference_ = false;
    } else {
      anchor(matrix);
    }
  }
  std::fill(window_accesses_.begin(), window_accesses_.end(), 0);
  std::fill(window_misses_.begin(), window_misses_.end(), 0);
  return changed;
}

}  // namespace tlbmap
