#include "service/admission.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace moteur::service {

void AdmissionGate::register_run(const std::string& run_id, std::size_t weight,
                                 std::optional<policy::Admission> admission) {
  MOTEUR_REQUIRE(runs_.find(run_id) == runs_.end(), InternalError,
                 "admission gate: run '" + run_id + "' registered twice");
  RunQueue rq;
  rq.policy = admission.value_or(default_policy_);
  rq.weight =
      rq.policy == policy::Admission::kRoundRobin ? 1 : std::max<std::size_t>(1, weight);
  runs_.emplace(run_id, std::move(rq));
  order_.push_back(run_id);
}

void AdmissionGate::deregister_run(const std::string& run_id) {
  const auto it = runs_.find(run_id);
  if (it == runs_.end()) return;
  MOTEUR_REQUIRE(it->second.queue.empty(), InternalError,
                 "admission gate: deregistering run '" + run_id + "' with queued work");
  runs_.erase(it);
  order_.erase(std::remove(order_.begin(), order_.end(), run_id), order_.end());
  cursor_ = order_.empty() ? 0 : cursor_ % order_.size();
  grants_this_visit_ = 0;
}

void AdmissionGate::cancel_run(const std::string& run_id) {
  const auto it = runs_.find(run_id);
  if (it == runs_.end()) return;
  it->second.cancelled = true;
  std::deque<Pending> drained;
  drained.swap(it->second.queue);
  total_queued_ -= drained.size();
  while (!drained.empty()) {
    fail_cancelled(std::move(drained.front()));
    drained.pop_front();
  }
  // Freed slots may unblock other runs' queues right away.
  pump();
}

void AdmissionGate::fail_cancelled(Pending pending) {
  // A zero-delay timer delivers the failure from within drive(), exactly the
  // path a real completion takes — the engine never sees a re-entrant
  // callback from inside its own execute().
  backend_.schedule(0.0, [cb = std::move(pending.on_complete)]() mutable {
    cb(enactor::Outcome::failure(enactor::OutcomeStatus::kDefinitive, "run cancelled"));
  });
}

void AdmissionGate::execute(const std::string& run_id,
                            std::shared_ptr<services::Service> svc,
                            std::vector<services::Inputs> bindings,
                            enactor::ExecOptions options,
                            enactor::ExecutionBackend::Callback on_complete) {
  const auto it = runs_.find(run_id);
  MOTEUR_REQUIRE(it != runs_.end(), InternalError,
                 "admission gate: submission from unregistered run '" + run_id + "'");
  Pending pending;
  pending.service = std::move(svc);
  pending.bindings = std::move(bindings);
  pending.options = std::move(options);
  pending.on_complete = std::move(on_complete);
  pending.enqueued_at = backend_.now();
  pending.policy = it->second.policy;
  if (it->second.cancelled) {
    fail_cancelled(std::move(pending));
    return;
  }
  it->second.queue.push_back(std::move(pending));
  ++total_queued_;
  pump();
}

void AdmissionGate::pump() {
  while (has_capacity() && total_queued_ > 0) {
    RunQueue& rq = runs_.at(order_[cursor_]);
    if (!rq.queue.empty() && grants_this_visit_ < rq.weight) {
      Pending pending = std::move(rq.queue.front());
      rq.queue.pop_front();
      --total_queued_;
      ++grants_this_visit_;
      launch(std::move(pending));
    } else {
      cursor_ = (cursor_ + 1) % order_.size();
      grants_this_visit_ = 0;
    }
  }
}

void AdmissionGate::launch(Pending pending) {
  ++inflight_;
  if (on_grant_) on_grant_(backend_.now() - pending.enqueued_at, pending.policy);
  backend_.execute(
      std::move(pending.service), std::move(pending.bindings), std::move(pending.options),
      [weak = weak_from_this(), cb = std::move(pending.on_complete)](
          enactor::Outcome outcome) mutable {
        // The engine-side callback is itself weak-guarded (see Engine), so
        // always deliver; only the gate bookkeeping needs the gate alive.
        if (const auto self = weak.lock()) {
          --self->inflight_;
          cb(std::move(outcome));
          self->pump();
        } else {
          cb(std::move(outcome));
        }
      });
}

}  // namespace moteur::service
