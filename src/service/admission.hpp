#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "enactor/backend.hpp"
#include "policy/policy.hpp"

namespace moteur::service {

/// Fair-share admission scheduler for one shared ExecutionBackend: every
/// run submits through its own gated backend (open()), and the gate caps
/// the number of in-flight backend executions and grants queued submissions
/// by weighted round-robin across the open runs. That is what keeps a
/// 126-pair run from monopolizing the grid's UI submission slots while a
/// 12-pair run waits: each WRR visit grants at most `weight` submissions per
/// run before moving on, so every run makes proportional progress regardless
/// of how deep its own backlog is. With no in-flight cap the gate queues
/// nothing: a submission goes straight to the backend.
///
/// Single-threaded by design: each engine shard owns one gate (its slice of
/// the service-wide in-flight cap) and every method runs on that shard's
/// worker thread — engines submit from within drive(), the shard cancels
/// between drive calls — so no locking is needed. Construct via
/// std::make_shared: each run's gated backend shares ownership of the gate,
/// and completion callbacks hold a weak_ptr so backend stragglers that
/// outlive the gate are delivered without touching it.
///
/// Invariant: submissions are queued only while the in-flight count sits at
/// the cap, so a queued submission always has at least one in-flight
/// execution (or a zero-delay cancellation timer) in front of it — the
/// backend can never stall with gated work pending.
class AdmissionGate : public std::enable_shared_from_this<AdmissionGate> {
 private:
  struct Pending {
    std::shared_ptr<services::Service> service;
    std::vector<services::Inputs> bindings;
    enactor::ExecOptions options;
    enactor::ExecutionBackend::Callback on_complete;
    double enqueued_at = 0.0;
  };

 public:
  struct Config {
    /// Concurrent backend executions across all runs; 0 = unbounded (the
    /// gate then launches every submission at once).
    std::size_t max_inflight = 8;
    /// Admission policy name (policy::Admission) mapping requested run
    /// weights onto effective WRR shares (`weighted` = take them as-is, the
    /// historical behavior; `round-robin` = one grant per visit for every
    /// run).
    std::string policy = "weighted";
  };

  /// One run's gated backend, the backend its engine submits through: both
  /// execute() overloads enter the gate; time, timers, drive() and the
  /// replica catalog are the gate's backend's. Destroying it takes the run
  /// off the visit ring and drops whatever it still has queued — cancel()
  /// first to fail that work.
  class Run final : public enactor::ExecutionBackend {
   public:
    ~Run() override;

    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;

    void execute(std::shared_ptr<services::Service> svc,
                 std::vector<services::Inputs> bindings, Callback on_complete) override;
    /// Launches at once when capacity allows and nothing is queued, else
    /// queues for a WRR grant. The policy hints ride through to the backend.
    void execute(std::shared_ptr<services::Service> svc,
                 std::vector<services::Inputs> bindings, enactor::ExecOptions options,
                 Callback on_complete) override;
    double now() const override { return gate_->backend_.now(); }
    TimerId schedule(double delay_seconds, std::function<void()> fn) override {
      return gate_->backend_.schedule(delay_seconds, std::move(fn));
    }
    void cancel(TimerId id) override { gate_->backend_.cancel(id); }
    bool drive(const std::function<bool()>& done) override {
      return gate_->backend_.drive(done);
    }
    data::ReplicaCatalog* catalog() const override { return gate_->backend_.catalog(); }

    /// Fail everything queued, and every later submission, with a
    /// kDefinitive "run cancelled" outcome — delivered through zero-delay
    /// backend timers, so the failures arrive from within drive() exactly
    /// like real completions. The engine then drains normally to a partial
    /// result.
    void cancel();

   private:
    friend class AdmissionGate;
    Run(std::shared_ptr<AdmissionGate> gate, std::size_t weight)
        : gate_(std::move(gate)), weight_(weight) {}

    std::shared_ptr<AdmissionGate> gate_;
    std::size_t weight_;
    bool cancelled_ = false;
    std::deque<Pending> queue_;
  };

  /// Throws ParseError when `config.policy` names no admission policy.
  AdmissionGate(enactor::ExecutionBackend& backend, Config config)
      : backend_(backend),
        max_inflight_(config.max_inflight),
        policy_(policy::parse<policy::Admission>(config.policy,
                                                 "service admission policy")) {}

  /// Add a run to the end of the WRR visit ring with the share the gate's
  /// admission policy derives from `weight` (0 clamped to 1).
  std::unique_ptr<Run> open(std::size_t weight);

  std::size_t queued() const { return total_queued_; }

  /// Observer invoked at each grant with the backend-time the submission
  /// spent queued in the gate (0 for immediate launches) — feeds the
  /// service's gate-wait histogram and the policy decision counter.
  void set_grant_observer(std::function<void(double wait_seconds)> observer) {
    on_grant_ = std::move(observer);
  }

 private:
  /// Grant queued submissions (WRR order) while capacity lasts.
  void pump();
  void launch(Pending pending);
  void fail_cancelled(enactor::ExecutionBackend::Callback on_complete);

  enactor::ExecutionBackend& backend_;
  std::size_t max_inflight_;
  policy::Admission policy_;
  std::vector<Run*> ring_;   // open order = WRR visit order
  std::size_t cursor_ = 0;   // current visit position in ring_
  std::size_t grants_this_visit_ = 0;
  std::size_t inflight_ = 0;  // gated launches only
  std::size_t total_queued_ = 0;
  std::function<void(double)> on_grant_;
};

}  // namespace moteur::service
