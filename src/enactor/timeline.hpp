#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "data/token.hpp"
#include "enactor/backend.hpp"
#include "grid/ce_health.hpp"
#include "grid/job.hpp"

namespace moteur::enactor {

/// One service invocation as observed by the enactor. Times are backend
/// times (virtual seconds on the simulated grid, wall seconds threaded).
struct InvocationTrace {
  std::string processor;
  /// Iteration indices of the data sets processed (one entry per binding;
  /// batched submissions carry several).
  std::vector<data::IndexVector> indices;
  double submit_time = 0.0;  // enactor handed the call to the backend
  double start_time = 0.0;   // payload began (queue exit on the grid)
  double end_time = 0.0;     // results available
  /// Final status of this execution (kSkipped for poisoned-input skips).
  OutcomeStatus status = OutcomeStatus::kOk;
  /// Which resubmission attempt this execution was (1 = first try).
  std::size_t attempt = 1;
  /// The submission was already resolved (by a racing clone or a definitive
  /// loss) when this execution completed; its result was discarded.
  bool superseded = false;
  /// Grid-level record when the simulated backend executed the call.
  std::optional<grid::JobRecord> job;

  /// The execution ran and did not succeed.
  bool failed() const {
    return status != OutcomeStatus::kOk && status != OutcomeStatus::kCached && !skipped();
  }
  /// Never executed: a poisoned input token was consumed instead.
  bool skipped() const { return status == OutcomeStatus::kSkipped; }
  double span_seconds() const { return end_time - submit_time; }
  /// Short label of the data processed, e.g. "D0" or "D0,D1".
  std::string data_label() const;
};

/// One circuit-breaker state change during the run.
struct BreakerTransitionTrace {
  double time = 0.0;
  std::string computing_element;
  grid::BreakerState from = grid::BreakerState::kClosed;
  grid::BreakerState to = grid::BreakerState::kClosed;
  std::size_t failures_in_window = 0;
};

/// The timeline row of one breaker-ledger transition.
BreakerTransitionTrace breaker_row(const grid::CeHealth::Transition& t);

/// Chronology of a whole enactment.
class Timeline {
 public:
  void add(InvocationTrace trace);
  void add_breaker(BreakerTransitionTrace transition);

  const std::vector<InvocationTrace>& traces() const { return traces_; }
  const std::vector<BreakerTransitionTrace>& breaker_transitions() const {
    return breaker_transitions_;
  }
  std::size_t invocation_count() const { return traces_.size(); }

  /// Last completion time over all non-superseded traces (0 if empty) —
  /// a straggler whose clone already delivered does not stretch the run.
  double makespan() const;

  /// Traces of one processor, by submit time.
  std::vector<const InvocationTrace*> for_processor(const std::string& processor) const;

  /// Total grid overhead across traces carrying a job record.
  double total_overhead_seconds() const;

 private:
  std::vector<InvocationTrace> traces_;
  std::vector<BreakerTransitionTrace> breaker_transitions_;
};

}  // namespace moteur::enactor
