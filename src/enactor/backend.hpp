#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "grid/job.hpp"
#include "policy/policy.hpp"
#include "services/service.hpp"

namespace moteur::data {
class ReplicaCatalog;
}  // namespace moteur::data

namespace moteur::grid {
class CeHealth;
}  // namespace moteur::grid

namespace moteur::obs {
class MetricsRegistry;
struct RunEvent;
}  // namespace moteur::obs

namespace moteur::enactor {

/// How one backend execution ended, from the enactor's point of view. The
/// taxonomy follows the standard grid fault-tolerance classification
/// (task-level retry/resubmission): transient faults are worth resubmitting,
/// definitive ones are not, and timeouts are synthesized by the enactor's
/// resubmission watchdog rather than reported by a backend.
enum class OutcomeStatus {
  kOk,          // all bindings produced results
  kTransient,   // middleware/site fault; a resubmission may succeed
  kDefinitive,  // semantic failure; retrying cannot help
  kTimedOut,    // no completion before the resubmission deadline
  kSkipped,     // never executed: an input token was poisoned upstream
  kCached,      // served from the invocation cache; no grid job submitted
  kDataLost,    // an input file has no surviving replica; resubmission
                // cannot help, only lineage recovery (re-derivation) can
};

const char* to_string(OutcomeStatus s);

/// Outcome of one backend execution (possibly covering several batched
/// input bindings submitted as a single unit of work).
struct Outcome {
  OutcomeStatus status = OutcomeStatus::kOk;
  std::string error;
  /// One result per submitted binding, aligned with the submission order.
  /// Empty unless status == kOk.
  std::vector<services::Result> results;
  double submit_time = 0.0;
  double start_time = 0.0;
  double end_time = 0.0;
  std::optional<grid::JobRecord> job;
  /// Logical names with no surviving replica (status == kDataLost).
  std::vector<std::string> lost_files;

  bool ok() const { return status == OutcomeStatus::kOk; }
  /// Whether the enactor's retry policy may resubmit after this outcome.
  bool retryable() const {
    return status == OutcomeStatus::kTransient || status == OutcomeStatus::kTimedOut;
  }

  static Outcome success(std::vector<services::Result> results) {
    Outcome o;
    o.results = std::move(results);
    return o;
  }
  static Outcome failure(OutcomeStatus status, std::string error) {
    Outcome o;
    o.status = status;
    o.error = std::move(error);
    return o;
  }
};

/// Per-execution policy hints attached by the enactor: which matchmaking
/// policy should rank CEs for this unit of work (unset = the backend's
/// default), which placement policy produced the avoid set (for decision
/// accounting), and the CE names the placement policy wants this attempt
/// steered away from. All advisory — backends without routing freedom
/// ignore them, and the default execute() overload drops them entirely.
struct ExecOptions {
  std::optional<policy::Matchmaking> matchmaking;
  std::optional<policy::Placement> placement;
  std::vector<std::string> avoid_ces;
};

/// Where service invocations actually run. The enactor core is event-driven
/// and single-threaded; backends deliver completions by invoking the
/// callback from within drive().
class ExecutionBackend {
 public:
  using Callback = std::function<void(Outcome)>;
  /// Handle of a timer armed with schedule(); usable to cancel it.
  using TimerId = std::uint64_t;

  virtual ~ExecutionBackend() = default;

  /// Execute `bindings.size()` invocations of `service` as one unit of work
  /// (one grid job / one worker-thread task). `bindings` must not be empty.
  /// The callback fires exactly once, from within drive().
  virtual void execute(std::shared_ptr<services::Service> service,
                       std::vector<services::Inputs> bindings, Callback on_complete) = 0;

  /// Execute with policy hints. Backends that can act on them (the simulated
  /// grid) override this; the default forwards to the plain overload, so
  /// hint-unaware backends behave exactly as before.
  virtual void execute(std::shared_ptr<services::Service> service,
                       std::vector<services::Inputs> bindings, ExecOptions options,
                       Callback on_complete) {
    (void)options;
    execute(std::move(service), std::move(bindings), std::move(on_complete));
  }

  /// Current backend time in seconds.
  virtual double now() const = 0;

  /// Arm a timer: `fn` runs `delay_seconds` of backend time from now, from
  /// within drive() — the enactor's resubmission watchdogs and backoff
  /// delays. Live (un-cancelled, un-fired) timers count as pending work for
  /// drive()'s stall detection.
  virtual TimerId schedule(double delay_seconds, std::function<void()> fn) = 0;

  /// Cancel a timer armed with schedule(). Cancelling an already-fired or
  /// unknown timer is a no-op.
  virtual void cancel(TimerId id) = 0;

  /// Dispatch completions and timers until `done()` returns true. Returns
  /// false if the backend ran out of work (no pending executions or live
  /// timers) before done() held: a run still waiting is deadlocked.
  virtual bool drive(const std::function<bool()>& done) = 0;

  /// Optional sink for backend-level metrics (job/task tallies, backend
  /// queue waits). Set it before enacting; the backend records only from
  /// within drive(), so the registry needs no locking. Default: record
  /// nothing.
  virtual void set_metrics(obs::MetricsRegistry* metrics) { (void)metrics; }

  /// Optional sink for backend-originated observability events (SE→SE
  /// transfer start/completion). These are service-scope events (empty
  /// run_id): a transfer can serve invocations of many concurrent runs, so
  /// they cannot be attributed to one. Delivered from within drive();
  /// nullptr (the default) detaches. Default: drop them.
  virtual void set_event_sink(std::function<void(const obs::RunEvent&)> sink) {
    (void)sink;
  }

  /// Optional per-CE health ledger with circuit breakers: backends that can
  /// route work across sites consult it to steer submissions away from open
  /// breakers. Set before enacting; nullptr detaches (every attached ledger).
  /// Default: ignore.
  virtual void set_health(grid::CeHealth* health) { (void)health; }

  /// Attach one more health ledger without displacing those already
  /// attached: routing excludes a CE when ANY attached ledger vetoes it.
  /// Lets a run-owned ledger coexist with a service-owned one. Default maps
  /// onto set_health (single-ledger backends).
  virtual void add_health(grid::CeHealth* health) { set_health(health); }

  /// Detach exactly `health`, leaving other attached ledgers in place.
  /// Default maps onto set_health(nullptr).
  virtual void remove_health(grid::CeHealth* health) {
    (void)health;
    set_health(nullptr);
  }

  /// Thread-safe wake-up: interrupt a drive() blocked waiting for work so
  /// its done() predicate is re-evaluated. The only ExecutionBackend entry
  /// point that may be called from another thread — RunService uses it to
  /// push new runs and cancellations into a live drive loop. Backends whose
  /// drive() re-checks done() continuously (the simulated grid steps events
  /// in a tight loop) may keep the default no-op.
  virtual void notify() {}

  /// The replica catalog backing this backend's data plane, when it has
  /// one — the enactor consults it to validate cached outputs and to drive
  /// lineage recovery. Default: no data plane.
  virtual data::ReplicaCatalog* catalog() const { return nullptr; }

  /// Open an independent completion channel: a backend view with its own
  /// completion queue, timer wheel, and drive() loop, so several engine
  /// shards can each run their own event loop against one shared execution
  /// substrate. Work submitted through a channel completes on THAT channel's
  /// drive() thread; channels share the backend's workers and clock. Each
  /// channel is driven by exactly one thread; the channel must not outlive
  /// its parent. Returns nullptr when the backend cannot be
  /// multi-driven (the single-threaded simulator) — callers then fall back
  /// to one shard driving the backend directly.
  virtual std::unique_ptr<ExecutionBackend> make_channel() { return nullptr; }
};

}  // namespace moteur::enactor
