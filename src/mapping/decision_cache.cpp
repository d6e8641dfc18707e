#include "mapping/decision_cache.hpp"

#include <cmath>
#include <exception>
#include <stdexcept>
#include <string>

namespace tlbmap {

void DecisionCacheConfig::validate() const {
  if (!std::isfinite(drift_threshold) || drift_threshold < 0.0 ||
      drift_threshold > 1.0) {
    throw std::invalid_argument(
        "DecisionCache: drift_threshold must be in [0, 1]");
  }
}

DecisionCache::DecisionCache(DecisionCacheConfig config) : config_(config) {
  config_.validate();
}

bool DecisionCache::stale(const CommMatrix& matrix) const {
  if (!valid_) return true;
  const CommMatrix::Health health = matrix.health();
  if (health.degenerate()) return false;  // nothing better to match on
  if (matrix.size() != matched_.size()) return true;
  return CommMatrix::cosine_similarity(matrix, matched_) <
         config_.drift_threshold;
}

Expected<MappingDecision> DecisionCache::decide(
    const CommMatrix& matrix, const Topology& topology,
    const MappingConfig& mapping_config) {
  const CommMatrix::Health health = matrix.health();
  if (health.saturated) {
    return Error{ErrorCode::kSaturatedMatrix,
                 "decision cache: matrix counter pinned at ceiling ("
                 "signal can no longer improve)"};
  }
  if (health.degenerate()) {
    if (!valid_) {
      return Error{ErrorCode::kDegenerateMatrix,
                   std::string("decision cache: matrix is ") +
                       health.describe() + " and no decision is cached"};
    }
    ++degraded_serves_;
    return MappingDecision{mapping_, epoch_, /*degraded=*/true};
  }
  if (stale(matrix)) {
    try {
      mapping_ = map_threads(matrix, topology, mapping_config);
    } catch (const std::exception& e) {
      return Error{ErrorCode::kMappingFailure,
                   std::string("decision cache: matcher failed: ") +
                       e.what()};
    }
    matched_ = matrix;
    valid_ = true;
    ++epoch_;
    ++rematches_;
  }
  return MappingDecision{mapping_, epoch_, /*degraded=*/false};
}

std::size_t DecisionCache::memory_bytes() const {
  return CommMatrix::worst_case_bytes(matched_.size()) +
         mapping_.capacity() * sizeof(CoreId);
}

DecisionCacheState DecisionCache::state() const {
  DecisionCacheState s;
  s.valid = valid_;
  s.mapping = mapping_;
  s.epoch = epoch_;
  s.matched = matched_;
  return s;
}

void DecisionCache::restore(const DecisionCacheState& state) {
  valid_ = state.valid;
  mapping_ = state.mapping;
  epoch_ = state.epoch;
  matched_ = state.matched;
}

}  // namespace tlbmap
