#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "enactor/backend.hpp"
#include "util/rng.hpp"
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
/// the workers, the host-routing state (guarded by a routing mutex), and the
/// clock.
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

  /// Name logical execution hosts so this backend participates in per-CE
  /// health routing: each execution is pinned to one host (round-robin,
  /// skipping hosts whose breaker is open) and the host lands in the
  /// outcome's JobRecord. `seed` feeds the deterministic fault-injection
  /// stream used by set_host_failure_probability(). Without configured
  /// hosts every execution is anonymous ("local") and routing is untouched.
  void configure_hosts(std::vector<std::string> hosts, std::uint64_t seed);

  /// Inject faults: executions routed to `host` fail (kTransient) with
  /// probability `p`, drawn deterministically on the submitting drive thread.
  void set_host_failure_probability(const std::string& host, double p);

  /// Breakers consulted when picking a host: a host is skipped when ANY
  /// attached ledger vetoes it. Only meaningful after configure_hosts().
  /// Guarded by the routing mutex (channels route concurrently).
  void set_health(grid::CeHealth* health) override;
  void add_health(grid::CeHealth* health) override;
  void remove_health(grid::CeHealth* health) override;

  /// Thread-safe: wakes a drive() blocked on the completion queue so its
  /// done() predicate is re-evaluated (RunService pushes commands this way).
  void notify() override { lane_->notify(); }

  /// Open an independent completion lane for one engine shard (see
  /// ExecutionBackend::make_channel). The channel must not outlive this
  /// backend.
  std::unique_ptr<ExecutionBackend> make_channel() override;

 private:
  class Channel;

  /// One routing decision, taken on the submitting thread under route_mu_ so
  /// host assignment and fault draws stay deterministic per submission order.
  struct Routed {
    std::string host;
    bool inject_fault = false;
  };

  Routed route_submission();
  /// Run the payload on a worker thread; shared by every lane.
  Outcome run_payload(const std::shared_ptr<services::Service>& service,
                      const std::vector<services::Inputs>& bindings, double submit_time,
                      const std::string& host, bool inject_fault);
  void record_metrics(const Outcome& outcome);
  /// Round-robin over admissible hosts (requires route_mu_); falls back to
  /// plain round-robin when every breaker is open.
  const std::string& pick_host();

  obs::MetricsRegistry* metrics_ = nullptr;  // set before enacting
  std::mutex metrics_mu_;                    // serializes recording across drive threads
  std::mutex route_mu_;                      // guards hosts_/health_/fault state
  /// True once configure_hosts() named hosts; lets the (very common) hostless
  /// case skip route_mu_ entirely on the submission hot path.
  std::atomic<bool> routing_enabled_{false};
  std::vector<grid::CeHealth*> health_;
  std::vector<std::string> hosts_;
  std::map<std::string, double> host_failure_;
  std::unique_ptr<Rng> fault_rng_;  // drawn in route_submission(), under route_mu_
  std::size_t next_host_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::unique_ptr<ExecutionBackend> lane_;  // the backend's own completion lane
  /// Declared last, so destroyed first: the pool runs every queued task and
  /// joins its workers while the lane and the routing state are still alive.
  ThreadPool pool_;
};

}  // namespace moteur::enactor
