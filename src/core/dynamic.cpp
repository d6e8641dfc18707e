#include "core/dynamic.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/retry.hpp"
#include "obs/json.hpp"

namespace tlbmap {
namespace {

/// Damping of repeated rollbacks within one phase: after the k-th rollback
/// since the current phase epoch began, migrations are blocked for
/// delay(k) further remap decisions (capped exponential). Past
/// max_attempts rollbacks the phase is migration-hostile until the next
/// epoch.
const RetryPolicy kRollbackBackoff{/*max_attempts=*/8, /*base_delay=*/1,
                                   /*factor=*/2};

/// Ceiling on a single backoff sentence, in remap decisions. delay()
/// saturates at the u64 ceiling; an int cursor needs a sane bound.
constexpr std::uint64_t kMaxBackoffDecisions = 1u << 20;

}  // namespace

void OnlineMapperConfig::validate() const {
  if (remap_every_barriers < 0) {
    throw std::invalid_argument(
        "OnlineMapperConfig: remap_every_barriers must be non-negative");
  }
  if (!std::isfinite(decay) || decay <= 0.0 || decay > 1.0) {
    throw std::invalid_argument(
        "OnlineMapperConfig: decay must be in (0, 1]");
  }
  if (!std::isfinite(improvement_threshold) || improvement_threshold < 0.0 ||
      improvement_threshold >= 1.0) {
    throw std::invalid_argument(
        "OnlineMapperConfig: improvement_threshold must be in [0, 1)");
  }
  if (migration_cooldown < 0) {
    throw std::invalid_argument(
        "OnlineMapperConfig: migration_cooldown must be non-negative");
  }
  if (canary_barriers < 0) {
    throw std::invalid_argument(
        "OnlineMapperConfig: canary_barriers must be non-negative");
  }
  if (!std::isfinite(regression_threshold) || regression_threshold < 0.0) {
    throw std::invalid_argument(
        "OnlineMapperConfig: regression_threshold must be non-negative");
  }
  phase.validate();
}

OnlineMapper::OnlineMapper(Machine& machine, int num_threads,
                           Mapping initial, OnlineMapperConfig config)
    : detector_(machine, num_threads, config.detector),
      phase_(num_threads, config.phase),
      mapper_(machine.topology()),
      topology_(&machine.topology()),
      config_(config),
      current_(std::move(initial)) {
  config_.validate();
  const FaultPlan& plan = machine.config().fault;
  if (plan.matrix_flip_rate > 0.0 || plan.matrix_zero_rate > 0.0) {
    fault_.emplace(plan, FaultInjector::kOnlineSalt);
  }
}

Cycles OnlineMapper::on_access(ThreadId thread, CoreId core, VirtAddr addr,
                               PageNum page, AccessType type, bool tlb_miss,
                               Cycles now) {
  phase_.on_access(thread, tlb_miss);
  return detector_.on_access(thread, core, addr, page, type, tlb_miss, now);
}

std::vector<CoreId> OnlineMapper::close_canary(int barrier_index,
                                               std::uint64_t cum_cost,
                                               std::uint64_t cum_accesses) {
  const std::uint64_t win_cost = cum_cost - canary_cost_;
  const std::uint64_t win_accesses = cum_accesses - canary_accesses_;
  // Cross-multiplied rate comparison (integer inputs, one deterministic
  // float expression): regressed iff
  //   win_cost / win_accesses > (baseline_cost / baseline_accesses)
  //                             * (1 + regression_threshold).
  bool regressed = false;
  if (win_accesses > 0 && baseline_accesses_ > 0) {
    const double lhs = static_cast<double>(win_cost) *
                       static_cast<double>(baseline_accesses_);
    const double rhs = static_cast<double>(baseline_cost_) *
                       static_cast<double>(win_accesses) *
                       (1.0 + config_.regression_threshold);
    regressed = lhs > rhs;
  }
  if (obs::Tracer* tracer = obs::tracer_at(obs_, obs::ObsLevel::kFull)) {
    std::ostringstream args;
    args << "\"barrier\":" << barrier_index << ",\"canary_cost\":" << win_cost
         << ",\"canary_accesses\":" << win_accesses
         << ",\"baseline_cost\":" << baseline_cost_
         << ",\"baseline_accesses\":" << baseline_accesses_
         << ",\"regressed\":" << (regressed ? "true" : "false");
    tracer->record_instant("online.canary_verdict", "mapper", args.str());
  }
  if (regressed && config_.rollback && !canary_prev_.empty()) {
    current_ = canary_prev_;
    canary_prev_.clear();
    ++rollbacks_;
    ++phase_rollbacks_;
    const int attempt = std::min(phase_rollbacks_, 30);
    backoff_left_ = static_cast<int>(std::min<std::uint64_t>(
        kRollbackBackoff.delay(attempt), kMaxBackoffDecisions));
    if (obs::MetricsRegistry* metrics =
            obs::metrics_at(obs_, obs::ObsLevel::kPhases)) {
      metrics->counter("online.rollbacks").add();
    }
    if (obs::Tracer* tracer = obs::tracer_at(obs_, obs::ObsLevel::kPhases)) {
      std::ostringstream args;
      args << "\"barrier\":" << barrier_index
           << ",\"backoff\":" << backoff_left_;
      tracer->record_instant("online.rollback", "mapper", args.str());
    }
    return current_;
  }
  canary_prev_.clear();
  ++canary_commits_;
  if (obs::MetricsRegistry* metrics =
          obs::metrics_at(obs_, obs::ObsLevel::kPhases)) {
    metrics->counter("online.canary_commits").add();
  }
  return {};
}

std::vector<CoreId> OnlineMapper::on_barrier(int barrier_index, Cycles now,
                                             const MachineStats& stats) {
  // Realized cost = simulated cycles per access. Barrier-release time is
  // the one live metric that directly prices a placement's stall/locality
  // impact: coherence event *counts* barely change when only the distance
  // of the traffic changes, their latency does.
  const std::uint64_t cum_cost = now;
  const std::uint64_t cum_accesses = stats.accesses;

  // An open canary window ticks down on every barrier; when it closes, a
  // realized regression restores the recorded pre-move placement.
  if (canary_left_ > 0) {
    --canary_left_;
    if (canary_left_ == 0) {
      std::vector<CoreId> rolled =
          close_canary(barrier_index, cum_cost, cum_accesses);
      if (!rolled.empty()) {
        // The rollback itself consumed this barrier's decision slot; the
        // next window starts from the restored placement.
        decision_cost_ = cum_cost;
        decision_accesses_ = cum_accesses;
        return rolled;
      }
    }
  }

  if (config_.remap_every_barriers <= 0 ||
      barrier_index % config_.remap_every_barriers != 0) {
    return {};
  }
  if (detector_.matrix().total() < config_.min_matrix_total) return {};
  ++remap_decisions_;
  if (obs::MetricsRegistry* metrics =
          obs::metrics_at(obs_, obs::ObsLevel::kPhases)) {
    metrics->counter("online.remap_decisions").add();
  }

  // Realized-cost window since the last remap decision feeds the
  // phase-anchored baseline the next canary compares against.
  const std::uint64_t win_cost = cum_cost - decision_cost_;
  const std::uint64_t win_accesses = cum_accesses - decision_accesses_;
  decision_cost_ = cum_cost;
  decision_accesses_ = cum_accesses;
  phase_cost_ += win_cost;
  phase_accesses_ += win_accesses;

  // Phase detection runs on the clean matrix (decay and injected noise
  // model a corrupted read-out, not corrupted history). A new epoch resets
  // the rollback damping and the baseline anchor: a genuine phase change
  // deserves a fresh chance to move, and the old phase's cost rate no
  // longer describes "normal".
  if (phase_.observe(detector_.matrix())) {
    phase_rollbacks_ = 0;
    backoff_left_ = 0;
    // The boundary window mixes the old and new phase, so it is unusable
    // as a baseline: start the new phase's accumulation empty. Migrations
    // then defer until one clean window exists (see below).
    phase_cost_ = 0;
    phase_accesses_ = 0;
    // A canary still open across a phase boundary would be judged against
    // a baseline from the phase that just ended — abort it as inconclusive
    // rather than risk a stale verdict either way.
    if (canary_left_ > 0) {
      canary_left_ = 0;
      canary_prev_.clear();
      if (obs::Tracer* tracer = obs::tracer_at(obs_, obs::ObsLevel::kFull)) {
        std::ostringstream abort_args;
        abort_args << "\"barrier\":" << barrier_index;
        tracer->record_instant("online.canary_aborted", "mapper",
                               abort_args.str());
      }
    }
    if (obs::MetricsRegistry* metrics =
            obs::metrics_at(obs_, obs::ObsLevel::kPhases)) {
      metrics->counter("online.phase_epochs").add();
    }
    if (obs::Tracer* tracer = obs::tracer_at(obs_, obs::ObsLevel::kPhases)) {
      std::ostringstream args;
      args << "\"barrier\":" << barrier_index
           << ",\"epoch\":" << phase_.epoch();
      tracer->record_instant("online.phase_epoch", "mapper", args.str());
    }
  }

  // Under matrix fault injection the decision runs on a noisy copy; the
  // detector's accumulated matrix itself stays clean (faults model a
  // corrupted read-out, not corrupted detection history).
  std::optional<CommMatrix> noisy;
  if (fault_) {
    noisy.emplace(detector_.matrix());
    noisy->apply_faults(*fault_);
  }
  const CommMatrix& decision_matrix = noisy ? *noisy : detector_.matrix();

  // Quality gate (DESIGN.md Sec. 11): a degenerate matrix — empty, or
  // uniform across all pairs — carries no placement preference, so a
  // matching computed from it is pure noise. Fall back to the previous
  // placement; the decision still counts and the matrix still ages, so the
  // faultless decision cadence is unchanged.
  const CommMatrix::Health health = decision_matrix.health();
  if (health.degenerate()) {
    ++degraded_decisions_;
    if (obs::MetricsRegistry* metrics =
            obs::metrics_at(obs_, obs::ObsLevel::kPhases)) {
      metrics->counter("online.degraded_decisions").add();
      metrics->gauge("pipeline.degraded_mode").set(1.0);
    }
    if (obs::Tracer* tracer = obs::tracer_at(obs_, obs::ObsLevel::kFull)) {
      std::ostringstream args;
      args << "\"barrier\":" << barrier_index
           << ",\"matrix\":" << obs::json_str(health.describe());
      tracer->record_instant("online.degraded_fallback", "mapper",
                             args.str());
    }
    detector_.decay_matrix(config_.decay);
    return {};
  }

  Mapping next = mapper_.map(decision_matrix);
  const double current_cost =
      mapping_cost(decision_matrix, current_, *topology_);
  const double next_cost = mapping_cost(decision_matrix, next, *topology_);
  if (obs::Tracer* tracer = obs::tracer_at(obs_, obs::ObsLevel::kFull)) {
    std::ostringstream args;
    args << "\"barrier\":" << barrier_index
         << ",\"current_cost\":" << current_cost
         << ",\"candidate_cost\":" << next_cost;
    tracer->record_instant("online.remap_decision", "mapper", args.str());
    obs_->metrics.snapshot_matrix(
        "comm_matrix.online",
        static_cast<std::uint64_t>(remap_decisions_),
        detector_.matrix().upper_rows());
  }
  // Age the matrix so the next decision window reflects fresh behaviour.
  detector_.decay_matrix(config_.decay);
  if (next == current_) return {};
  // Hysteresis: a migration must pay for itself.
  if (next_cost > current_cost * (1.0 - config_.improvement_threshold)) {
    return {};
  }
  // Never stack a migration inside an open canary window: the measurement
  // would attribute the second move's cost to the first. (Only while
  // rollback is live — with rollback off, canaries are pure telemetry and
  // the decision flow is the historical pre-PR-10 one.)
  if (config_.rollback && canary_left_ > 0) return {};
  // Exponential per-phase damping after rollbacks (RetryPolicy schedule).
  // Past the attempt cap the phase has proven migration-hostile: block
  // until the phase detector declares a new epoch.
  const bool phase_exhausted =
      phase_rollbacks_ > kRollbackBackoff.max_attempts;
  if (backoff_left_ > 0 || phase_exhausted) {
    if (backoff_left_ > 0) --backoff_left_;
    ++backoff_skips_;
    if (obs::MetricsRegistry* metrics =
            obs::metrics_at(obs_, obs::ObsLevel::kPhases)) {
      metrics->counter("online.backoff_skips").add();
    }
    if (obs::Tracer* tracer = obs::tracer_at(obs_, obs::ObsLevel::kFull)) {
      std::ostringstream args;
      args << "\"barrier\":" << barrier_index
           << ",\"backoff_left\":" << backoff_left_;
      tracer->record_instant("online.backoff_skip", "mapper", args.str());
    }
    return {};
  }
  // Cooldown: recently migrated — let the aged matrix re-confirm the
  // pattern before moving again (anti-oscillation under noisy input).
  if (cooldown_left_ > 0) {
    --cooldown_left_;
    if (obs::Tracer* tracer = obs::tracer_at(obs_, obs::ObsLevel::kFull)) {
      tracer->record_instant("online.migration_cooldown", "mapper", "");
    }
    return {};
  }
  // Defer rule: with rollback live and machine counters flowing, a
  // migration may only open against a baseline measured inside the current
  // phase. Right after a phase epoch no such window exists yet — wait one
  // decision; the window that accrues meanwhile is exactly the comparison
  // the canary needs (the new phase under the old placement). Does not
  // consume the cooldown.
  if (config_.rollback && config_.canary_barriers > 0 && cum_accesses > 0 &&
      phase_accesses_ == 0) {
    if (obs::Tracer* tracer = obs::tracer_at(obs_, obs::ObsLevel::kFull)) {
      std::ostringstream args;
      args << "\"barrier\":" << barrier_index;
      tracer->record_instant("online.migration_deferred", "mapper",
                             args.str());
    }
    return {};
  }
  cooldown_left_ = config_.migration_cooldown;
  // Canary transaction: record the pre-move placement and the
  // phase-anchored baseline; the next canary_barriers barriers measure the
  // realized cost of the move. Without a baseline window (no counters at
  // all, e.g. the legacy stats-free entry) the migration commits blind, as
  // before PR 10.
  if (config_.canary_barriers > 0 && phase_accesses_ > 0) {
    canary_prev_ = current_;
    canary_left_ = config_.canary_barriers;
    canary_cost_ = cum_cost;
    canary_accesses_ = cum_accesses;
    baseline_cost_ = phase_cost_;
    baseline_accesses_ = phase_accesses_;
    if (obs::MetricsRegistry* metrics =
            obs::metrics_at(obs_, obs::ObsLevel::kPhases)) {
      metrics->counter("online.canary_windows").add();
    }
    if (obs::Tracer* tracer = obs::tracer_at(obs_, obs::ObsLevel::kFull)) {
      std::ostringstream args;
      args << "\"barrier\":" << barrier_index
           << ",\"window\":" << config_.canary_barriers;
      tracer->record_instant("online.canary_open", "mapper", args.str());
    }
  }
  current_ = std::move(next);
  ++migrations_;
  if (obs::MetricsRegistry* metrics =
          obs::metrics_at(obs_, obs::ObsLevel::kPhases)) {
    metrics->counter("online.migrations").add();
  }
  if (obs::Tracer* tracer = obs::tracer_at(obs_, obs::ObsLevel::kPhases)) {
    std::ostringstream args;
    args << "\"barrier\":" << barrier_index;
    tracer->record_instant("online.migrate", "mapper", args.str());
  }
  return current_;
}

}  // namespace tlbmap
