#include "service/admission.hpp"

#include <algorithm>
#include <utility>

namespace moteur::service {

std::unique_ptr<AdmissionGate::Run> AdmissionGate::open(std::size_t weight) {
  const std::size_t share =
      policy_ == policy::Admission::kRoundRobin ? 1 : std::max<std::size_t>(1, weight);
  std::unique_ptr<Run> run(new Run(shared_from_this(), share));
  ring_.push_back(run.get());
  return run;
}

AdmissionGate::Run::~Run() {
  AdmissionGate& gate = *gate_;
  gate.total_queued_ -= queue_.size();
  gate.ring_.erase(std::find(gate.ring_.begin(), gate.ring_.end(), this));
  gate.cursor_ = gate.ring_.empty() ? 0 : gate.cursor_ % gate.ring_.size();
  gate.grants_this_visit_ = 0;
}

void AdmissionGate::Run::cancel() {
  cancelled_ = true;
  std::deque<Pending> drained;
  drained.swap(queue_);
  gate_->total_queued_ -= drained.size();
  for (Pending& pending : drained) gate_->fail_cancelled(std::move(pending.on_complete));
  // Freed slots may unblock other runs' queues right away.
  gate_->pump();
}

void AdmissionGate::fail_cancelled(enactor::ExecutionBackend::Callback on_complete) {
  // A zero-delay timer delivers the failure from within drive(), exactly the
  // path a real completion takes — the engine never sees a re-entrant
  // callback from inside its own execute().
  backend_.schedule(0.0, [cb = std::move(on_complete)]() mutable {
    cb(enactor::Outcome::failure(enactor::OutcomeStatus::kDefinitive, "run cancelled"));
  });
}

void AdmissionGate::Run::execute(std::shared_ptr<services::Service> svc,
                                 std::vector<services::Inputs> bindings,
                                 Callback on_complete) {
  execute(std::move(svc), std::move(bindings), {}, std::move(on_complete));
}

void AdmissionGate::Run::execute(std::shared_ptr<services::Service> svc,
                                 std::vector<services::Inputs> bindings,
                                 enactor::ExecOptions options, Callback on_complete) {
  AdmissionGate& gate = *gate_;
  if (cancelled_) {
    gate.fail_cancelled(std::move(on_complete));
    return;
  }
  if (gate.max_inflight_ == 0) {
    if (gate.on_grant_) gate.on_grant_(0.0);
    gate.backend_.execute(std::move(svc), std::move(bindings), std::move(options),
                          std::move(on_complete));
    return;
  }
  queue_.push_back(Pending{std::move(svc), std::move(bindings), std::move(options),
                           std::move(on_complete), gate.backend_.now()});
  ++gate.total_queued_;
  gate.pump();
}

void AdmissionGate::pump() {
  while (inflight_ < max_inflight_ && total_queued_ > 0) {
    Run& run = *ring_[cursor_];
    if (!run.queue_.empty() && grants_this_visit_ < run.weight_) {
      Pending pending = std::move(run.queue_.front());
      run.queue_.pop_front();
      --total_queued_;
      ++grants_this_visit_;
      launch(std::move(pending));
    } else {
      cursor_ = (cursor_ + 1) % ring_.size();
      grants_this_visit_ = 0;
    }
  }
}

void AdmissionGate::launch(Pending pending) {
  ++inflight_;
  if (on_grant_) on_grant_(backend_.now() - pending.enqueued_at);
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
