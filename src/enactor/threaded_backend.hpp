#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "enactor/backend.hpp"
#include "util/thread_pool.hpp"

namespace moteur::enactor {

/// Runs invocations for real, on worker threads — the paper's §3.1 answer to
/// SOAP stacks without asynchronous calls: "asynchronous calls to web
/// services need to be implemented at the workflow enactor level, by
/// spawning independent system threads for each processor being executed".
///
/// Services compute in workers; completions are queued and delivered to the
/// single-threaded enactor core from drive(), so enactor state needs no
/// locking. Timers (retry watchdogs, backoff delays) are kept in a deadline
/// queue and also fire on the drive() thread.
///
/// Every execution goes through a completion lane: the backend's own, to
/// which execute/schedule/cancel/drive/notify forward, or one opened by
/// make_channel() for an engine shard. execute() stages the task on its
/// lane; drive() hands the staged tasks to the worker pool as one batch,
/// with one wake-up, after each batch of completions it dispatches and
/// before it returns. Each lane owns an MPSC completion queue and a timer
/// wheel, so N engine shards can each run a private event loop while sharing
/// the workers and the clock.
///
/// It models no sites: outcomes carry no JobRecord, and an attached breaker
/// ledger routes nothing. Sites, their faults and the broker that routes
/// around them live on the simulated grid (SimGridBackend).
///
/// A service exception is reported as a kTransient outcome: the enactor's
/// RetryPolicy decides whether to re-invoke (default: no retries, so the
/// historical one-exception-one-failure behaviour is preserved).
class ThreadedBackend : public ExecutionBackend {
 public:
  /// `threads` = 0 picks the hardware concurrency.
  explicit ThreadedBackend(std::size_t threads = 0);

  void execute(std::shared_ptr<services::Service> service,
               std::vector<services::Inputs> bindings, Callback on_complete) override {
    lane_->execute(std::move(service), std::move(bindings), std::move(on_complete));
  }

  /// Wall-clock seconds since construction.
  double now() const override;

  TimerId schedule(double delay_seconds, std::function<void()> fn) override {
    return lane_->schedule(delay_seconds, std::move(fn));
  }
  void cancel(TimerId id) override { lane_->cancel(id); }

  bool drive(const std::function<bool()>& done) override { return lane_->drive(done); }

  /// Feeds worker-pool tallies and queue-wait histograms into `metrics`.
  /// Recording happens on drive() threads at completion delivery, never on
  /// workers, serialized by an internal mutex so channel drivers can share
  /// the registry. Set before enacting.
  void set_metrics(obs::MetricsRegistry* metrics) override { metrics_ = metrics; }

  /// Thread-safe: wakes a drive() blocked on the completion queue so its
  /// done() predicate is re-evaluated (RunService pushes commands this way).
  void notify() override { lane_->notify(); }

  /// Open an independent completion lane for one engine shard (see
  /// ExecutionBackend::make_channel). The channel must not outlive this
  /// backend.
  std::unique_ptr<ExecutionBackend> make_channel() override;

 private:
  class Channel;

  /// Run the payload on a worker thread; shared by every lane.
  Outcome run_payload(const std::shared_ptr<services::Service>& service,
                      const std::vector<services::Inputs>& bindings, double submit_time);
  void record_metrics(const Outcome& outcome);

  obs::MetricsRegistry* metrics_ = nullptr;  // set before enacting
  std::mutex metrics_mu_;                    // serializes recording across drive threads
  std::chrono::steady_clock::time_point epoch_;
  std::unique_ptr<ExecutionBackend> lane_;  // the backend's own completion lane
  /// Declared last, so destroyed first: the pool runs every queued task and
  /// joins its workers while the lane and the clock are still alive.
  ThreadPool pool_;
};

}  // namespace moteur::enactor
