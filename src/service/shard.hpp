#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/invocation_cache.hpp"
#include "enactor/backend.hpp"
#include "enactor/engine.hpp"
#include "grid/ce_health.hpp"
#include "obs/event.hpp"
#include "obs/flight_recorder.hpp"
#include "service/admission.hpp"
#include "service/run_service.hpp"

namespace moteur::obs {
class Counter;
class Gauge;
class Histogram;
class RunRecorder;
}  // namespace moteur::obs

namespace moteur::service {

namespace detail {

/// Shared state of one run: each handle holds a reference, and the service
/// holds one until the run retires. The caller-visible fields live behind
/// `mu`; the worker-side fields (request, engine, gated backend) are touched
/// only by the owning shard's thread and never through a handle.
struct RunRecord {
  // Immutable after submit.
  std::string id;
  std::size_t shard = 0;  // pinned shard index

  // Caller-visible, guarded by mu.
  mutable std::mutex mu;
  mutable std::condition_variable cv;
  RunState state = RunState::kQueued;
  bool cancel_requested = false;
  enactor::EnactmentResult result;
  std::string error;
  /// Backend-time spent waiting for an active slot, set at admission.
  double admission_wait = 0.0;
  /// Wakes the owning shard after a cancel request; the service clears it
  /// at shutdown so handles outliving the service stay safe.
  std::function<void()> poke;

  /// Guarded by mu too, though no handle reads it: the shared-ledger
  /// transitions seen while kRunning, merged into the timeline at retirement.
  std::vector<enactor::BreakerTransitionTrace> breaker_transitions;

  // Shard-side only; the request is dropped when the run is terminal.
  enactor::RunRequest request;
  std::unique_ptr<AdmissionGate::Run> gated;
  std::shared_ptr<enactor::Engine> engine;
  bool cancel_applied = false;
  double queued_backend_at = -1.0;  // backend time the run started waiting
};

/// Everything the engine shards share: the root backend, the registry, the
/// (nested) config, the lazily created service-owned resources, the obs sink
/// serialization, and the live runs behind wait_idle/wait_any.
/// Shards hold a reference; the RunService::Impl owns it.
struct ServiceCore {
  enactor::ExecutionBackend& backend;
  services::ServiceRegistry& registry;
  RunServiceConfig config;

  // Set before the first submit (contract); read by shards only.
  std::vector<enactor::EventSubscriber> subscribers;
  obs::RunRecorder* recorder = nullptr;

  /// Guards lazy creation of the shared resources below — any shard may hit
  /// the first breaker/cache-enabled policy.
  std::mutex lazy_mu;
  /// One service-owned breaker ledger shared by every run. Per-run ledgers
  /// would deadlock in half-open — another tenant's job may be the probe.
  /// CeHealth is internally thread-safe, so shards record outcomes directly.
  std::unique_ptr<grid::CeHealth> shared_health;
  /// One service-owned invocation cache shared by every run (already
  /// thread-safe): tenants submitting content-identical work benefit from
  /// each other's completed invocations.
  std::unique_ptr<data::InvocationCache> shared_cache;

  /// One lock serializes the recorder, the user subscribers, and the
  /// service-wide instruments. Shards take it once per event BATCH, not per
  /// event — that is what stops the recorder from being a global
  /// serialization point at 10k-run scale.
  std::mutex obs_mu;
  bool instruments_ready = false;  // guarded by obs_mu
  obs::Gauge* active_gauge = nullptr;
  obs::Gauge* queued_gauge = nullptr;
  obs::Gauge* gate_depth = nullptr;
  obs::Histogram* admission_wait = nullptr;
  obs::Histogram* gate_wait = nullptr;
  /// moteur_policy_decisions_total{policy=<service policy>,kind="admission"}.
  obs::Counter* admission_decisions = nullptr;

  // Service-wide totals fed by per-shard deltas (gauges read these).
  std::atomic<long> active_total{0};
  std::atomic<long> queued_total{0};
  std::atomic<long> gate_depth_total{0};

  // Every submitted run not yet retired, by id: the service holds memory
  // for live work only. wait_idle blocks on idle_cv until the map is empty,
  // wait_any on terminal_cv; every retirement notifies both. Lock order: the
  // shared ledger, then live_mu, then a record's mu; nothing calls into the
  // ledger while holding either of the other two.
  std::mutex live_mu;
  std::condition_variable idle_cv;
  std::condition_variable terminal_cv;
  std::map<std::string, std::shared_ptr<RunRecord>> live;

  ServiceCore(enactor::ExecutionBackend& backend_in, services::ServiceRegistry& registry_in,
              RunServiceConfig config_in)
      : backend(backend_in), registry(registry_in), config(std::move(config_in)) {}

  const enactor::EnactmentPolicy& effective_policy(const RunRecord& rec) const {
    return rec.request.policy ? *rec.request.policy : config.defaults.policy;
  }

  /// Resolve the service-wide instruments once a recorder is attached.
  /// Requires obs_mu.
  void ensure_instruments();

  grid::CeHealth* ensure_health(const enactor::EnactmentPolicy& policy);
  data::InvocationCache* ensure_cache(const enactor::EnactmentPolicy& policy);

  /// Deliver events under one obs_mu acquisition: user subscribers first,
  /// then the recorder, per event. A single shard hands each event over as
  /// it comes; several shards hand over batches. Service-scope events
  /// (shared-breaker transitions, empty run_id) always go one by one: grid
  /// health belongs to the shared infrastructure, not to any single tenant.
  void deliver(const obs::RunEvent& event);
  void deliver(const std::vector<obs::RunEvent>& batch);
  /// A shared-ledger transition, called under the ledger's lock: recorded
  /// for every running run, then emitted as a service event.
  void on_breaker_transition(const grid::CeHealth::Transition& t);

  /// Count one terminal run (moteur_service_runs_total{state=...}).
  void count_terminal(RunState state);
  /// count_terminal's counters by RunState, each resolved when a run first
  /// reaches that state (guarded by obs_mu).
  std::array<obs::Counter*, static_cast<std::size_t>(RunState::kCancelled) + 1>
      terminal_counters{};

  /// Terminal `rec` leaves the live runs, taking the caller's reference
  /// with it; wakes wait_idle/wait_any waiters.
  void run_finished(std::shared_ptr<RunRecord> rec);
};

}  // namespace detail

/// One shard of the enactment core: a worker thread owning a private event
/// loop (its backend channel), a private AdmissionGate slice, and the runs
/// pinned to it. The loop is the single-worker loop verbatim — intake,
/// admission, drive, harvest of settled runs, cancellation delivery — so one
/// shard over the root backend reproduces the pre-shard service exactly.
///
/// With several shards, obs events are buffered shard-locally and flushed to
/// the shared recorder in batches (threshold `obs_batch`, plus at every run
/// boundary and before the shard blocks), giving per-run event order while
/// amortizing the recorder lock across shards. A single shard delivers each
/// event directly.
class EngineShard {
 public:
  /// `channel` is this shard's private completion lane over the shared
  /// backend; nullptr means the shard drives `core.backend` directly (the
  /// single-shard configuration). `obs_batch` = events buffered per flush;
  /// 1 delivers each event directly, with no batch copy.
  EngineShard(std::size_t index, detail::ServiceCore& core,
              std::unique_ptr<enactor::ExecutionBackend> channel, std::size_t max_active,
              std::size_t obs_batch);
  ~EngineShard();

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  void start();

  /// Hand a batch of freshly submitted runs to this shard atomically: all of
  /// them enter the pending queue before the worker may admit any (admission
  /// order within a shard stays deterministic).
  void enqueue(std::vector<std::shared_ptr<detail::RunRecord>> batch);

  /// Thread-safe wake-up (cancellation, shutdown, new work).
  void wake();

  void request_stop();
  void join();

  std::size_t index() const { return index_; }

  /// Runs currently assigned and not yet terminal — the least-loaded pin
  /// policy's ranking key.
  std::size_t load() const { return load_.load(std::memory_order_relaxed); }

  ShardStats stats() const;

  /// Instantaneous activity for telemetry frames (updated by the worker
  /// whenever its gauges move).
  long active_now() const { return active_now_.load(std::memory_order_relaxed); }
  long queued_now() const { return queued_now_.load(std::memory_order_relaxed); }

  /// The event loop this shard drives: its channel, or the root backend.
  enactor::ExecutionBackend& backend() {
    return channel_ != nullptr ? *channel_ : core_.backend;
  }

 private:
  using RunRecordPtr = std::shared_ptr<detail::RunRecord>;

  // The worker's reference to a run travels down to run_finished, so a run
  // no handle holds is freed before wait_idle can return.
  void run_worker();
  /// Start `rec`, or retire it kFailed, release `rec` and return false.
  bool admit(RunRecordPtr& rec);
  void retire(RunRecordPtr rec, RunState state, std::string error);
  void finish_record(RunRecordPtr rec, RunState state, enactor::EnactmentResult result,
                     std::string error);

  /// Engine event sink: deliver directly, or buffer and flush at the batch
  /// threshold.
  void obs_emit(const obs::RunEvent& event);
  void obs_flush();
  /// Fold this shard's active/queued/gate-depth into the service-wide gauges
  /// and the shard-labelled series.
  void update_gauges(std::size_t active, std::size_t queued);
  /// Resolve the moteur_shard_* series. Requires core_.obs_mu.
  void ensure_shard_instruments();

  std::size_t index_;
  detail::ServiceCore& core_;
  std::unique_ptr<enactor::ExecutionBackend> channel_;
  std::shared_ptr<AdmissionGate> gate_;
  std::size_t max_active_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::atomic<bool> commands_{false};
  bool stop_ = false;                 // guarded by mu_
  std::deque<RunRecordPtr> pending_;  // guarded by mu_
  std::atomic<std::size_t> load_{0};

  // Worker-private obs batch.
  std::vector<obs::RunEvent> batch_;
  std::size_t obs_batch_ = 1;

  /// Crash flight recorder (config.telemetry.flight_recorder_path): the
  /// shard's last N events, recorded on the worker thread, dumped to
  /// <prefix><run-id>.json when one of its runs fails or is cancelled.
  std::unique_ptr<obs::FlightRecorder> flight_;

  // Telemetry-facing activity mirrors of the worker-private gauge values.
  std::atomic<long> active_now_{0};
  std::atomic<long> queued_now_{0};

  // Worker-private last-published gauge values (delta source).
  long last_active_ = 0;
  long last_queued_ = 0;
  long last_gate_depth_ = 0;

  // Shard-labelled instruments, resolved lazily under core_.obs_mu.
  obs::Counter* shard_runs_ = nullptr;
  obs::Counter* shard_invocations_ = nullptr;
  obs::Gauge* shard_active_ = nullptr;
  obs::Gauge* shard_queue_ = nullptr;

  // Counters behind stats(), fed at run retirement.
  mutable std::mutex stats_mu_;
  std::uint64_t runs_done_ = 0;
  std::uint64_t invocations_done_ = 0;

  std::thread thread_;
};

}  // namespace moteur::service
