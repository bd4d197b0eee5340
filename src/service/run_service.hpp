#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <functional>

#include "enactor/enactor.hpp"
#include "enactor/run_request.hpp"
#include "obs/snapshot.hpp"

namespace moteur::obs {
class RunRecorder;
class TelemetryHub;
}  // namespace moteur::obs

namespace moteur::service {

/// Lifecycle of one run inside a RunService.
/// kQueued -> kRunning -> {kFinished, kFailed, kCancelled}; a queued run
/// cancelled before admission goes straight to kCancelled.
enum class RunState { kQueued, kRunning, kFinished, kFailed, kCancelled };

const char* to_string(RunState s);
bool is_terminal(RunState s);

namespace detail {
struct RunRecord;
}  // namespace detail

/// Caller-side view of one submitted run. Cheap to copy; all methods are
/// thread-safe and may be called from any thread while the service's shards
/// advance the run. A default-constructed handle is invalid: id() returns
/// an empty sentinel, the blocking accessors must not be called on it.
class RunHandle {
 public:
  RunHandle() = default;

  bool valid() const { return rec_ != nullptr; }
  /// The run id; empty for an invalid handle.
  const std::string& id() const;

  /// Current state, without blocking.
  RunState poll() const;

  /// Block until the run reaches a terminal state; returns it.
  RunState wait() const;

  /// Block until the run is terminal or `timeout` elapses; returns the state
  /// observed at that point (possibly still kQueued/kRunning on timeout).
  template <typename Rep, typename Period>
  RunState wait_for(std::chrono::duration<Rep, Period> timeout) const {
    return wait_for_ns(std::chrono::ceil<std::chrono::nanoseconds>(timeout));
  }

  /// Request cancellation. Asynchronous: a queued run is dropped before it
  /// starts; a running run stops submitting, its queued submissions fail
  /// definitively, and it drains to a partial result. Idempotent; a no-op
  /// once the run is terminal.
  void cancel();

  /// The final result. Valid once the run is terminal: complete for
  /// kFinished, partial for kCancelled and deadlock-failed runs, default
  /// for runs that failed before starting. Blocks like wait().
  const enactor::EnactmentResult& result() const;

  /// Non-blocking result(): the final result when the run is already
  /// terminal, nullptr while it is still queued or running.
  const enactor::EnactmentResult* try_result() const;

  /// Failure message for kFailed runs (empty otherwise). Blocks like wait().
  const std::string& error() const;

  /// Backend-time this run waited for an active slot before admission; 0
  /// while still queued, for runs admitted immediately, and for invalid
  /// handles. Non-blocking.
  double admission_wait() const;

 private:
  friend class RunService;
  explicit RunHandle(std::shared_ptr<detail::RunRecord> rec) : rec_(std::move(rec)) {}

  RunState wait_for_ns(std::chrono::nanoseconds timeout) const;

  std::shared_ptr<detail::RunRecord> rec_;
};

/// How a freshly submitted run is pinned to an engine shard.
///  - kHash: FNV-1a of the run id modulo the shard count — stable, so the
///    same submission set lands identically across executions;
///  - kLeastLoaded: the shard currently owning the fewest live runs.
enum class PinPolicy { kHash, kLeastLoaded };

const char* to_string(PinPolicy p);
/// Parse "hash" / "least-loaded". Throws ParseError.
PinPolicy parse_pin_policy(const std::string& text);

struct RunServiceConfig {
  /// Admission control: how much work the service lets in at once. Both
  /// caps are service-wide and sliced evenly across shards (each shard gets
  /// at least 1; the aggregate may round up slightly at shards > 1).
  struct Admission {
    /// Runs enacted concurrently; further submissions wait in the queue.
    std::size_t max_active = 4;
    /// Concurrent backend executions across all active runs (the admission
    /// gates' cap); 0 = unbounded.
    std::size_t max_inflight = 8;
    /// Admission policy name (policy::Admission) mapping every run's
    /// requested weight onto its WRR share. `weighted` is the historical
    /// behavior. An unknown name makes the RunService constructor throw
    /// ParseError.
    std::string policy = "weighted";
  };

  /// Enactment-core sharding: how many engine shards drive the backend and
  /// how runs are pinned to them. Shards > 1 needs a backend supporting
  /// completion channels (ThreadedBackend); backends that cannot be
  /// multi-driven (the simulator) are clamped to 1 shard with a warning.
  struct Sharding {
    std::size_t shards = 1;
    PinPolicy pin = PinPolicy::kHash;
  };

  /// Per-run fallbacks.
  struct Defaults {
    /// Policy for requests that carry none of their own.
    enactor::EnactmentPolicy policy;
  };

  /// Live telemetry plane (off by default). When either output is enabled
  /// the service owns a TelemetryHub: a background sampler snapshotting the
  /// recorder's registry every `interval_seconds`, streaming JSONL frames to
  /// `jsonl_path` and serving Prometheus text on 127.0.0.1:`scrape_port`.
  /// The flight recorder is independent of the hub: when
  /// `flight_recorder_path` is set, each shard keeps a ring of its last
  /// `flight_recorder_events` RunEvents and dumps it to
  /// `<flight_recorder_path><run-id>.json` whenever a run fails or is
  /// cancelled.
  struct Telemetry {
    double interval_seconds = 1.0;
    std::string jsonl_path;  // empty = no frame stream
    int scrape_port = -1;    // -1 = no endpoint, 0 = ephemeral
    std::string flight_recorder_path;  // file prefix; empty = off
    std::size_t flight_recorder_events = 256;

    bool hub_enabled() const { return !jsonl_path.empty() || scrape_port >= 0; }
  };

  Admission admission;
  Sharding sharding;
  Defaults defaults;
  Telemetry telemetry;
};

/// Per-shard enactment tallies, exposed for benchmarks and the tier-1 scale
/// smoke: the shard counters must sum to the service-wide totals.
struct ShardStats {
  std::size_t shard = 0;
  /// Runs retired to a terminal state by this shard.
  std::uint64_t runs = 0;
  /// Logical invocations across those runs.
  std::uint64_t invocations = 0;
};

/// Multi-tenant enactment: one RunService owns one ExecutionBackend and one
/// ServiceRegistry and accepts many concurrent runs, each described by a
/// RunRequest and observed through a RunHandle. The enactment core is
/// sharded: each of N engine shards owns a worker thread, a private
/// completion channel over the shared backend, and an AdmissionGate slice
/// (weighted round-robin, bounded in-flight submissions); runs are pinned to
/// a shard at submission (RunServiceConfig::Sharding). One service-owned
/// CeHealth ledger gives all tenants a common view of grid health — per-run
/// breaker ledgers would deadlock in half-open, since another tenant's job
/// may be the probe. Each of its transitions lands in the timeline of every
/// run admitted at the time, as the run-owned ledger of an Enactor run's
/// would. The default single shard drives the backend directly and behaves
/// exactly like the historical single-worker service.
///
/// Observability: subscribers and the recorder see every run's events, told
/// apart by RunEvent::run_id; service-scope events (shared-breaker
/// transitions) carry an empty run_id. Delivery is serialized across shards
/// (subscribers need no locking) and batched per shard; a run's events
/// always arrive in order, different runs' events interleave. The service
/// additionally maintains service-wide series — active/queued run gauges,
/// admission-wait histogram, terminal-state run counters — plus per-shard
/// moteur_shard_* series.
///
/// Thread model: submit/cancel/wait may be called from any thread; all
/// backend access happens on shard threads. The backend and registry must
/// outlive the service.
class RunService {
 public:
  /// Throws ParseError when `config` names an unknown admission policy.
  RunService(enactor::ExecutionBackend& backend, services::ServiceRegistry& registry,
             RunServiceConfig config = {});
  ~RunService();

  RunService(const RunService&) = delete;
  RunService& operator=(const RunService&) = delete;

  /// Enqueue one run. The request's `name` becomes the run id when it is
  /// non-empty and no live run holds it; otherwise an id "run-<n>" is
  /// generated. A run that cannot start (an unknown policy name, an invalid
  /// workflow) ends kFailed with the reason in its handle's error(); other
  /// runs go on. The service lets go of a run when it retires: its result
  /// lives on in the handles, and dies with the last of them.
  RunHandle submit(enactor::RunRequest request);

  /// Enqueue a batch atomically: all runs enter their shards' queues before
  /// any shard may admit one of them, making per-shard admission order
  /// deterministic under the simulated backend (individually submitted runs
  /// race sim progression).
  std::vector<RunHandle> submit_all(std::vector<enactor::RunRequest> requests);

  /// Subscribe to every run's event stream (run_id tells them apart).
  /// Call before submitting; subscribers are invoked with delivery
  /// serialized across shards, so they need no locking of their own.
  void add_event_subscriber(enactor::EventSubscriber subscriber);

  /// Attach the standard recorder to every run plus the service-wide
  /// series. Call before submitting; not owned, and it must outlive the
  /// service (the telemetry hub samples it until shutdown()).
  void set_recorder(obs::RunRecorder* recorder);

  /// Thread-safe point-in-time capture of the recorder's metrics registry,
  /// serialized against the shards' event delivery — the read interface for
  /// live monitoring (diff two captures with MetricsSnapshot::delta_since
  /// for window rates). Empty when no recorder is attached.
  obs::MetricsSnapshot metrics_snapshot() const;

  /// Run `fn` on the attached recorder under the service's observability
  /// lock — the safe way to read the tracer/metrics (exports, critical-path
  /// extraction) while shards may still be delivering events. No-op when no
  /// recorder is attached. `fn` must not call back into the service.
  void with_observability(const std::function<void(obs::RunRecorder&)>& fn) const;

  /// The service-owned telemetry hub; nullptr unless
  /// RunServiceConfig::Telemetry enabled it. Valid until shutdown().
  obs::TelemetryHub* telemetry();

  /// The invocation cache shared by every cache-enabled run of this service
  /// (created lazily by the first such run; null until then). Per-run
  /// hit/miss statistics are keyed by run id — see
  /// data::InvocationCache::stats.
  data::InvocationCache* invocation_cache();

  /// Effective shard count (after clamping to what the backend supports).
  std::size_t shards() const;

  /// Per-shard tallies; snapshot, safe to call while runs are in flight.
  std::vector<ShardStats> shard_stats() const;

  /// Block until no run is queued or active.
  void wait_idle();

  /// Block until at least one of `handles` is terminal; returns the index of
  /// the first terminal handle. The handles must belong to this service and
  /// at least one must be valid.
  std::size_t wait_any(std::span<const RunHandle> handles);

  /// Cancel everything still queued or running, drain, and join the shard
  /// workers. Idempotent; the destructor calls it.
  void shutdown();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace moteur::service
