#pragma once

#include <cstddef>
#include <string>

#include "grid/ce_health.hpp"

namespace moteur::enactor {

/// Workflow-level fault tolerance: what happens to the run when an
/// invocation fails definitively (retries exhausted).
///  - kFailFast: the tuple silently disappears from the stream and every
///    dot-product descendant simply never fires — the seed behaviour.
///  - kContinue: the failed invocation emits poisoned error tokens; the
///    descendants consuming them are skipped (and counted), the run
///    completes with partial outputs plus a structured failure report.
enum class FailurePolicy { kFailFast, kContinue };

const char* to_string(FailurePolicy p);
/// Parse "failfast" / "continue" (case-sensitive). Throws ParseError.
FailurePolicy parse_failure_policy(const std::string& text);

/// Task-level fault tolerance: how the enactor reacts to transient backend
/// failures and to the EGEE latency tail (§4.2: job latencies "ranging from
/// 5 minutes to hours"). Defaults keep retries off — every failure is
/// definitive, the seed behaviour.
struct RetryPolicy {
  /// Total executions allowed per submission, timeout clones included.
  /// 1 = no resubmission.
  std::size_t max_attempts = 1;

  /// Timeout-based resubmission, the classic EGEE workaround for stragglers:
  /// when a submission has been out longer than `timeout_multiplier` times
  /// the running median latency of completed submissions, race a clone and
  /// keep the first finisher. 0 disables. The median needs at least
  /// `timeout_min_samples` completions before the watchdog arms.
  double timeout_multiplier = 0.0;
  std::size_t timeout_min_samples = 3;

  /// Delay, in backend seconds, before resubmitting after the first
  /// transient failure; each further retry multiplies it by
  /// `backoff_factor`. 0 = resubmit immediately.
  double backoff_initial_seconds = 0.0;
  double backoff_factor = 2.0;

  bool retries_enabled() const { return max_attempts > 1; }
  bool timeout_enabled() const { return timeout_multiplier > 0.0 && max_attempts > 1; }

  /// Backoff delay before attempt `next_attempt` (2 = first retry).
  double backoff_seconds(std::size_t next_attempt) const;

  static RetryPolicy none() { return RetryPolicy{}; }
  /// Resubmit transient failures up to `attempts` executions, no timeout.
  static RetryPolicy resubmit(std::size_t attempts);
};

/// Which optimizations the enactor applies to a run (paper §3). Workflow
/// parallelism — concurrent execution of independent graph branches — is
/// always on; it is "trivial and implemented in all the workflow managers"
/// (§3.2). The three switchable levels match the experimental
/// configurations of §4.4: DP, SP and JG.
struct EnactmentPolicy {
  /// Data parallelism (§3.3): one service processes several data sets
  /// concurrently. Off = at most one in-flight invocation per service.
  bool data_parallelism = true;

  /// Service parallelism / pipelining (§3.4): different services process
  /// different data sets concurrently. Off = stage synchronization: no data
  /// set enters a service until every data set has left its predecessors.
  bool service_parallelism = true;

  /// Job grouping (§3.6): rewrite the workflow so sequential services merge
  /// into virtual grouped services submitting a single job.
  bool job_grouping = false;

  /// Optional cap on per-service concurrent invocations when
  /// data_parallelism is on (0 = unbounded). Models finite service
  /// capacity; also used by the §5.4 granularity studies.
  std::size_t data_parallelism_cap = 0;

  /// Extension (§5.4 future work, "grouping jobs of a single service"):
  /// number of ready data sets batched into one submission. 1 = off.
  std::size_t batch_size = 1;

  /// Extension (§5.4 future work, "an optimal strategy to adapt the jobs'
  /// granularity to the grid load"): when set, `batch_size` is ignored and
  /// the enactor picks a per-submission batch so the observed middleware
  /// overhead stays below `overhead_fraction_target` of the job duration:
  ///   batch >= overhead * (1 - f) / (f * compute_per_item).
  /// The overhead estimate starts at `overhead_hint_seconds` and is updated
  /// online from completed jobs.
  bool adaptive_batching = false;
  double overhead_fraction_target = 0.5;
  double overhead_hint_seconds = 300.0;
  std::size_t max_batch = 16;

  /// Fault-tolerance settings (retry/resubmission). Defaults to off.
  RetryPolicy retry;

  /// Workflow-level reaction to definitive failures. Defaults to the seed
  /// behaviour (tuples lost silently, no poisoned tokens).
  FailurePolicy failure_policy = FailurePolicy::kFailFast;

  /// Per-CE circuit breakers consulted by the backend's routing. Disabled
  /// by default: matchmaking is bit-identical to the pre-breaker enactor.
  grid::BreakerPolicy breaker;

  /// Invocation memoization: consult the shared InvocationCache before
  /// submitting and serve content-identical repeats without a grid job.
  /// Off by default (bit-identical to the pre-data-plane enactor).
  bool cache = false;

  /// Decision policy names (src/policy/); empty = inherit the next level's
  /// default (run > grid). The engine parses them when it is
  /// built. `matchmaking` rides each submission into the broker
  /// (`data-gravity` ranks CEs on queue plus stage-in cost); `placement`
  /// steers retry/speculative-clone targets inside the engine.
  std::string matchmaking;
  std::string placement;

  /// Lineage recovery: when a submission fails with kDataLost (no replica
  /// of a required input survives), walk the recorded lineage and re-fire
  /// the producer invocation(s) to regenerate the file, then resubmit the
  /// consumer — instead of losing the tuple. Only reachable when SE fault
  /// injection is configured, so the default-on knob never perturbs
  /// fault-free runs.
  bool lineage_recovery = true;

  /// Bound on recovery work per submission: how many recovery rounds one
  /// submission may trigger, and how deep a chain of re-derivations may
  /// recurse (cycle-safe together with feedback links dropping digests).
  std::size_t max_recovery_depth = 8;

  /// Effective concurrent-invocation bound per service.
  std::size_t service_capacity() const;

  /// Canonical configuration name, e.g. "NOP", "DP", "SP+DP+JG".
  std::string name() const;

  // Named configurations of Table 1.
  static EnactmentPolicy nop();
  static EnactmentPolicy jg();
  static EnactmentPolicy sp();
  static EnactmentPolicy dp();
  static EnactmentPolicy sp_dp();
  static EnactmentPolicy sp_dp_jg();

  /// Parse "NOP" / "DP" / "SP" / "JG" / "SP+DP" / "SP+DP+JG" (any order of
  /// '+'-separated tokens). Throws ParseError on unknown tokens.
  static EnactmentPolicy parse(const std::string& text);
};

}  // namespace moteur::enactor
