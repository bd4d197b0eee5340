#include "enactor/threaded_backend.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "grid/ce_health.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/mpsc_queue.hpp"

namespace moteur::enactor {

double ThreadedBackend::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double>(elapsed).count();
}

void ThreadedBackend::configure_hosts(std::vector<std::string> hosts, std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(route_mu_);
  hosts_ = std::move(hosts);
  next_host_ = 0;
  fault_rng_ = std::make_unique<Rng>(seed, "threaded.faults");
  routing_enabled_.store(!hosts_.empty(), std::memory_order_release);
}

void ThreadedBackend::set_host_failure_probability(const std::string& host, double p) {
  std::lock_guard<std::mutex> lock(route_mu_);
  host_failure_[host] = p;
}

void ThreadedBackend::add_health(grid::CeHealth* health) {
  std::lock_guard<std::mutex> lock(route_mu_);
  if (health != nullptr) health_.push_back(health);
}

void ThreadedBackend::remove_health(grid::CeHealth* health) {
  std::lock_guard<std::mutex> lock(route_mu_);
  health_.erase(std::remove(health_.begin(), health_.end(), health), health_.end());
}

const std::string& ThreadedBackend::pick_host() {
  const std::size_t n = hosts_.size();
  const double t = now();
  const auto admissible = [&](const std::string& host) {
    return std::all_of(health_.begin(), health_.end(), [&](grid::CeHealth* h) {
      return h->admissible(host, t);
    });
  };
  bool excluded_any = false;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& host = hosts_[(next_host_ + i) % n];
    if (!admissible(host)) {
      excluded_any = true;
      continue;
    }
    next_host_ = (next_host_ + i + 1) % n;
    for (grid::CeHealth* h : health_) {
      if (excluded_any) h->note_rerouted(t);
      h->on_routed(host, t);
    }
    return host;
  }
  // Every breaker open (or half-open): degrade to plain round-robin rather
  // than stranding the execution.
  const std::string& host = hosts_[next_host_ % n];
  next_host_ = (next_host_ + 1) % n;
  return host;
}

ThreadedBackend::Routed ThreadedBackend::route_submission() {
  // Host assignment and fault draws happen on the submitting (drive) thread,
  // so routing and injected failures are deterministic regardless of worker
  // scheduling. route_mu_ keeps the round-robin cursor and the fault stream
  // coherent when several channels submit concurrently; without configured
  // hosts there is no routing state at all and the lock is skipped.
  if (!routing_enabled_.load(std::memory_order_acquire)) return {};
  std::lock_guard<std::mutex> lock(route_mu_);
  Routed routed;
  if (!hosts_.empty()) {
    routed.host = pick_host();
    const auto it = host_failure_.find(routed.host);
    if (it != host_failure_.end() && fault_rng_ != nullptr) {
      routed.inject_fault = fault_rng_->bernoulli(it->second);
    }
  }
  return routed;
}

Outcome ThreadedBackend::run_payload(const std::shared_ptr<services::Service>& service,
                                     const std::vector<services::Inputs>& bindings,
                                     double submit_time, const std::string& host,
                                     bool inject_fault) {
  Outcome outcome;
  outcome.submit_time = submit_time;
  outcome.start_time = now();
  if (inject_fault) {
    outcome.status = OutcomeStatus::kTransient;
    outcome.error = "injected fault on host '" + host + "'";
  } else {
    try {
      outcome.results.reserve(bindings.size());
      // Batched bindings run sequentially on this worker, like the grouped
      // command lines of one grid job.
      for (const auto& binding : bindings) {
        outcome.results.push_back(service->invoke(binding));
      }
    } catch (const std::exception& e) {
      outcome.status = OutcomeStatus::kTransient;
      outcome.error = e.what();
      outcome.results.clear();
    }
  }
  outcome.end_time = now();
  if (!host.empty()) {
    grid::JobRecord record;
    record.name = service->id();
    record.computing_element = host;
    record.attempts = 1;
    record.state = outcome.ok() ? grid::JobState::kDone : grid::JobState::kFailed;
    record.submit_time = outcome.submit_time;
    record.run_start_time = outcome.start_time;
    record.run_end_time = outcome.end_time;
    record.completion_time = outcome.end_time;
    outcome.job = std::move(record);
  }
  return outcome;
}

void ThreadedBackend::record_metrics(const Outcome& outcome) {
  if (metrics_ == nullptr) return;
  std::lock_guard<std::mutex> lock(metrics_mu_);
  metrics_
      ->counter("moteur_worker_tasks_total", "Worker-pool tasks by outcome",
                {{"status", to_string(outcome.status)}})
      .inc();
  // Pool queue wait: submission to payload start on a worker thread.
  metrics_
      ->histogram("moteur_worker_queue_wait_seconds",
                  "Delay between submission and payload start on the worker pool",
                  {0.0001, 0.001, 0.01, 0.1, 0.5, 1, 5, 30})
      .observe(std::max(0.0, outcome.start_time - outcome.submit_time));
}

/// One completion lane over the parent's worker pool: the backend's own or
/// an engine shard's. The consumer calls execute/schedule/cancel/drive from
/// a single thread; producers are pool workers pushing completions into the
/// MPSC queue, plus any thread calling notify(). Staged tasks, timers and the
/// outstanding count are consumer-private — no lock — because every mutation
/// happens on the consumer thread.
///
/// execute() only stages the task (routing, the fault draw and the submit
/// time are still taken there, in call order). drive() hands everything
/// staged to the pool under one lock, with one wake-up, once it has
/// dispatched the completions it drained — before it drains again or blocks —
/// and before it returns, so one drive turn's submissions travel as one
/// batch; under light load a batch is a single task.
///
/// The completion queue is shared with every task posted to it, so it
/// outlives the lane: a straggler that finishes after its lane was destroyed
/// (a shard shut down while a superseded attempt still ran) pushes into the
/// orphaned queue, and its completion is dropped with the last task holding
/// the queue. Its callback holds only weak pointers to the engine and gate.
class ThreadedBackend::Channel final : public ExecutionBackend {
 public:
  explicit Channel(ThreadedBackend& parent) : parent_(parent) {}

  void execute(std::shared_ptr<services::Service> service,
               std::vector<services::Inputs> bindings, Callback on_complete) override {
    MOTEUR_REQUIRE(!bindings.empty(), InternalError, "execute with no bindings");
    Routed routed = parent_.route_submission();
    ++outstanding_;
    const double submit_time = parent_.now();
    staged_.push_back([&parent = parent_, queue = queue_, service = std::move(service),
                       bindings = std::move(bindings), on_complete = std::move(on_complete),
                       submit_time, routed = std::move(routed)]() mutable {
      Outcome outcome =
          parent.run_payload(service, bindings, submit_time, routed.host, routed.inject_fault);
      queue->push(Done{std::move(outcome), std::move(on_complete)});
    });
  }

  double now() const override { return parent_.now(); }

  TimerId schedule(double delay_seconds, std::function<void()> fn) override {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(std::max(0.0, delay_seconds)));
    const TimerId id = next_timer_++;
    timers_.emplace(id, Timer{deadline, std::move(fn)});
    return id;
  }

  void cancel(TimerId id) override { timers_.erase(id); }

  bool drive(const std::function<bool()>& done) override {
    while (!done()) {
      // Due timers fire first, on this thread, like completions.
      auto earliest = timers_.end();
      for (auto it = timers_.begin(); it != timers_.end(); ++it) {
        if (earliest == timers_.end() || it->second.deadline < earliest->second.deadline) {
          earliest = it;
        }
      }
      if (earliest != timers_.end() &&
          earliest->second.deadline <= std::chrono::steady_clock::now()) {
        auto fn = std::move(earliest->second.fn);
        timers_.erase(earliest);
        fn();
        continue;
      }
      if (next_ready_ < ready_.size()) {
        Done next = std::move(ready_[next_ready_++]);
        if (next_ready_ == ready_.size()) {
          ready_.clear();
          next_ready_ = 0;
        }
        --outstanding_;
        parent_.record_metrics(next.outcome);
        next.callback(std::move(next.outcome));
        continue;
      }
      // The drained batch is dispatched: hand what it submitted to the
      // workers before draining again or blocking.
      parent_.pool_.post_all(staged_);
      if (queue_->drain(ready_) > 0) continue;
      if (outstanding_ == 0 && timers_.empty()) return false;  // stall
      std::optional<std::chrono::steady_clock::time_point> deadline;
      if (earliest != timers_.end()) deadline = earliest->second.deadline;
      // Woken by an item or a notify(): loop to re-evaluate done(). Deadline
      // expiry loops back to fire the due timer.
      queue_->wait(deadline);
    }
    parent_.pool_.post_all(staged_);
    return true;
  }

  void set_metrics(obs::MetricsRegistry* metrics) override { parent_.set_metrics(metrics); }
  void add_health(grid::CeHealth* health) override { parent_.add_health(health); }
  void remove_health(grid::CeHealth* health) override { parent_.remove_health(health); }

  void notify() override { queue_->notify(); }

 private:
  struct Done {
    Outcome outcome;
    Callback callback;
  };
  struct Timer {
    std::chrono::steady_clock::time_point deadline;
    std::function<void()> fn;
  };

  ThreadedBackend& parent_;
  std::shared_ptr<MpscQueue<Done>> queue_ = std::make_shared<MpscQueue<Done>>();
  std::vector<std::function<void()>> staged_;  // executions awaiting the next hand-off
  std::vector<Done> ready_;     // drained batch awaiting dispatch
  std::size_t next_ready_ = 0;  // dispatch cursor into ready_
  std::map<TimerId, Timer> timers_;
  TimerId next_timer_ = 1;
  std::size_t outstanding_ = 0;  // submissions not yet dispatched back
};

ThreadedBackend::ThreadedBackend(std::size_t threads)
    : epoch_(std::chrono::steady_clock::now()),
      lane_(std::make_unique<Channel>(*this)),
      pool_(threads) {}

std::unique_ptr<ExecutionBackend> ThreadedBackend::make_channel() {
  return std::make_unique<Channel>(*this);
}

}  // namespace moteur::enactor
