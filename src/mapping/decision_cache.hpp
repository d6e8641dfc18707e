// Epoch-based mapping-decision cache with drift-triggered re-matching
// (DESIGN.md Sec. 16).
//
// A mapping service answering thousands of decision reads cannot run the
// matcher per read: a decision is cached with a monotonically increasing
// epoch and re-derived only when the communication matrix has *drifted* —
// its shape (cosine similarity against the matrix that produced the cached
// decision) moved past the configured threshold, or its health changed.
// Between drifts, reads are O(1) copies of the cached placement.
//
// Degradation follows the PR 4 rules: a degenerate matrix (empty/uniform)
// never overwrites a good cached decision — the stale placement is served
// flagged `degraded` until the signal returns, mirroring OnlineMapper's
// quality gate. A saturated matrix is surfaced as kSaturatedMatrix so the
// service can quarantine the tenant (pinned counters mean the tenant's
// signal can only rot from here).
#pragma once

#include <cstdint>

#include "detect/comm_matrix.hpp"
#include "core/expected.hpp"
#include "mapping/mapping.hpp"
#include "mapping/strategy.hpp"
#include "sim/topology.hpp"

namespace tlbmap {

struct DecisionCacheConfig {
  /// Re-match when cosine similarity between the current matrix and the
  /// matrix at the cached decision falls below this. 1.0 re-matches on any
  /// change; 0.0 never re-matches after the first decision.
  double drift_threshold = 0.90;

  /// Throws std::invalid_argument when the threshold is outside [0, 1] or
  /// not finite.
  void validate() const;
};

/// What a decision read returns: the placement plus enough provenance for
/// the caller to tell cached from fresh and healthy from degraded.
struct MappingDecision {
  Mapping mapping;
  std::uint64_t epoch = 0;  ///< bumps on every successful re-match
  bool degraded = false;    ///< served from a stale cache past degenerate input

  bool operator==(const MappingDecision&) const = default;
};

/// Serializable snapshot (service session checkpoints).
struct DecisionCacheState {
  bool valid = false;
  Mapping mapping;
  std::uint64_t epoch = 0;
  CommMatrix matched{1};  ///< the matrix that produced `mapping`

  bool operator==(const DecisionCacheState&) const = default;
};

class DecisionCache {
 public:
  explicit DecisionCache(DecisionCacheConfig config = {});

  const DecisionCacheConfig& config() const { return config_; }

  /// True when `matrix` warrants a re-match: no cached decision yet, or
  /// the shape drifted past the threshold. Degenerate matrices are never
  /// stale against a valid cache (they carry nothing to re-match on).
  bool stale(const CommMatrix& matrix) const;

  /// Serves the cached decision, re-matching first when stale. Outcomes:
  ///  - fresh or cached decision (epoch tells which);
  ///  - degraded decision: `matrix` is degenerate but a cached placement
  ///    exists — served as-is with degraded = true, epoch unchanged;
  ///  - kDegenerateMatrix: degenerate and nothing cached yet;
  ///  - kSaturatedMatrix: a counter pinned at the ceiling;
  ///  - kMappingFailure: the matcher threw (topology/matrix mismatch).
  Expected<MappingDecision> decide(const CommMatrix& matrix,
                                   const Topology& topology,
                                   const MappingConfig& mapping_config);

  bool has_decision() const { return valid_; }
  std::uint64_t epoch() const { return epoch_; }
  /// Successful re-matches, degraded serves, and drift re-match triggers
  /// (service metrics).
  std::uint64_t rematches() const { return rematches_; }
  std::uint64_t degraded_serves() const { return degraded_serves_; }

  /// Deterministic estimate of resident bytes (the retained matrix copy,
  /// charged at CommMatrix::worst_case_bytes, dominates) for the service's
  /// budget accounting.
  std::size_t memory_bytes() const;

  DecisionCacheState state() const;
  void restore(const DecisionCacheState& state);

 private:
  DecisionCacheConfig config_;
  bool valid_ = false;
  Mapping mapping_;
  std::uint64_t epoch_ = 0;
  CommMatrix matched_{1};
  std::uint64_t rematches_ = 0;
  std::uint64_t degraded_serves_ = 0;
};

}  // namespace tlbmap
