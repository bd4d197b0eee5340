#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "enactor/backend.hpp"
#include "policy/policy.hpp"

namespace moteur::service {

/// Fair-share admission scheduler for one shared ExecutionBackend: every
/// run's submissions funnel through the gate, which caps the number of
/// in-flight backend executions and grants queued submissions by weighted
/// round-robin across the registered runs. That is what keeps a 126-pair run
/// from monopolizing the grid's UI submission slots while a 12-pair run
/// waits: each WRR visit grants at most `weight` submissions per run before
/// moving on, so every run makes proportional progress regardless of how
/// deep its own backlog is.
///
/// Single-threaded by design: each engine shard owns one gate (its slice of
/// the service-wide in-flight cap) and every method runs on that shard's
/// worker thread — engines submit from within drive(), the shard cancels
/// between drive calls — so no locking is needed. Construct via std::make_shared —
/// completion callbacks hold a weak_ptr so backend stragglers that outlive
/// the gate are delivered without touching it.
///
/// Invariant: submissions are queued only while the in-flight count sits at
/// the cap, so a queued submission always has at least one in-flight
/// execution (or a zero-delay cancellation timer) in front of it — the
/// backend can never stall with gated work pending.
class AdmissionGate : public std::enable_shared_from_this<AdmissionGate> {
 public:
  struct Config {
    /// Concurrent backend executions across all runs; 0 = unbounded (the
    /// gate then only orders submissions, it never queues them).
    std::size_t max_inflight = 8;
    /// Default admission policy name (policy::Admission) mapping requested
    /// run weights onto effective WRR shares (`weighted` = take them as-is,
    /// the historical behavior; `round-robin` = one grant per visit for
    /// every run).
    std::string policy = "weighted";
  };

  /// Throws ParseError when `config.policy` names no admission policy.
  AdmissionGate(enactor::ExecutionBackend& backend, Config config)
      : backend_(backend),
        max_inflight_(config.max_inflight),
        default_policy_(policy::parse<policy::Admission>(config.policy,
                                                         "service admission policy")) {}

  /// Add `run_id` to the WRR visit list with the share its admission
  /// policy derives from `weight` (0 clamped to 1). `admission` unset uses
  /// the gate default.
  void register_run(const std::string& run_id, std::size_t weight,
                    std::optional<policy::Admission> admission = std::nullopt);

  /// Drop `run_id` from the visit list. Its queue must already be empty
  /// (the run finished or was cancelled).
  void deregister_run(const std::string& run_id);

  /// Fail everything queued for `run_id` with a kDefinitive "run cancelled"
  /// outcome — delivered through zero-delay backend timers, so the failures
  /// arrive from within drive() exactly like real completions — and mark the
  /// run so later submissions fail the same way. The engine then drains
  /// normally to a partial result.
  void cancel_run(const std::string& run_id);

  /// Route one submission from `run_id`: launches immediately when capacity
  /// allows and nothing is queued, else queues for a WRR grant. The policy
  /// hints in `options` ride through to the backend at launch.
  void execute(const std::string& run_id, std::shared_ptr<services::Service> svc,
               std::vector<services::Inputs> bindings, enactor::ExecOptions options,
               enactor::ExecutionBackend::Callback on_complete);

  std::size_t inflight() const { return inflight_; }
  std::size_t queued() const { return total_queued_; }

  /// Observer invoked at each grant with the backend-time the submission
  /// spent queued in the gate (0 for immediate launches) and the granting
  /// run's effective admission policy — feeds the service's admission-wait
  /// histogram and the policy decision counters.
  void set_grant_observer(
      std::function<void(double wait_seconds, policy::Admission policy)> observer) {
    on_grant_ = std::move(observer);
  }

 private:
  struct Pending {
    std::shared_ptr<services::Service> service;
    std::vector<services::Inputs> bindings;
    enactor::ExecOptions options;
    enactor::ExecutionBackend::Callback on_complete;
    double enqueued_at = 0.0;
    /// Effective admission policy of the submitting run (grant label).
    policy::Admission policy = policy::Admission::kWeighted;
  };
  struct RunQueue {
    std::size_t weight = 1;
    bool cancelled = false;
    policy::Admission policy = policy::Admission::kWeighted;
    std::deque<Pending> queue;
  };

  bool has_capacity() const { return max_inflight_ == 0 || inflight_ < max_inflight_; }
  /// Grant queued submissions (WRR order) while capacity lasts.
  void pump();
  void launch(Pending pending);
  void fail_cancelled(Pending pending);

  enactor::ExecutionBackend& backend_;
  std::size_t max_inflight_;
  policy::Admission default_policy_;
  std::map<std::string, RunQueue> runs_;
  std::vector<std::string> order_;  // registration order = WRR visit order
  std::size_t cursor_ = 0;          // current visit position in order_
  std::size_t grants_this_visit_ = 0;
  std::size_t inflight_ = 0;
  std::size_t total_queued_ = 0;
  std::function<void(double, policy::Admission)> on_grant_;
};

}  // namespace moteur::service
