#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "data/replica_catalog.hpp"
#include "grid/background_load.hpp"
#include "grid/config.hpp"
#include "grid/job.hpp"
#include "grid/overhead_model.hpp"
#include "grid/resource_broker.hpp"
#include "grid/storage_element.hpp"
#include "obs/name.hpp"
#include "policy/policy.hpp"
#include "sim/function.hpp"
#include "sim/simulator.hpp"
#include "sim/slab.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace moteur::obs {
class MetricsRegistry;
}

namespace moteur::grid {

/// One third-party SE→SE transfer, surfaced to the installed listener at
/// request time and on completion. Decentralized replication policies
/// schedule these on the pairwise SE links; the orchestrator only issues
/// the command (control stays central, data moves peer-to-peer). Built only
/// while a listener is installed; the SE names are interned once per grid.
struct TransferEvent {
  enum class Phase { kStarted, kDone };
  Phase phase = Phase::kStarted;
  double time = 0.0;
  std::string_view lfn;  ///< valid for the listener call only
  obs::Name from_se;
  obs::Name to_se;
  double megabytes = 0.0;
  obs::Name trigger;             ///< "match" or "fanout"
  double elapsed_seconds = 0.0;  ///< kDone only: link time excluding queueing
};

/// Facade over the simulated EGEE-like infrastructure. Callers (the service
/// layer) submit JobRequests and get a completion callback with the full
/// JobRecord; everything in between — broker pipeline, matchmaking, batch
/// queues, staging, payload, failures and resubmission — happens inside.
class Grid {
 public:
  using CompletionCallback = std::function<void(const JobRecord&)>;

  Grid(sim::Simulator& simulator, GridConfig config);

  /// Submit a job. The callback fires exactly once, with state kDone or
  /// (after exhausting retries) kFailed.
  JobId submit(JobRequest request, CompletionCallback on_complete);

  sim::Simulator& simulator() { return simulator_; }
  const GridConfig& config() const { return config_; }
  const ResourceBroker& broker() const { return broker_; }

  /// Shared-broker arbitration (see ResourceBroker): attach one more
  /// per-CE circuit-breaker ledger for matchmaking without displacing the
  /// others / detach exactly one. Not owned.
  void add_health(CeHealth* health) { broker_.add_health(health); }
  void remove_health(CeHealth* health) { broker_.remove_health(health); }

  /// Attach (or detach, with nullptr) the replica catalog that turns the
  /// data plane on: jobs with input_refs stage each file through the chosen
  /// CE's close StorageElement (remote replicas pay the penalty), successful
  /// jobs register their inputs as fresh replicas there, and — under a
  /// stage-in-aware matchmaking policy such as `data-gravity` — the broker
  /// ranks CEs by estimated stage-in cost. Not owned. Without a catalog the
  /// grid behaves bit-identically to the pre-data-plane code. Attaching also
  /// installs the configured SE capacities and eviction policy on the catalog.
  void set_catalog(data::ReplicaCatalog* catalog);
  data::ReplicaCatalog* catalog() const { return catalog_; }

  /// Attach (or detach, with nullptr) the metrics registry receiving the
  /// per-policy decision counters (`moteur_policy_decisions_total`). Not
  /// owned; record from the drive thread only.
  void set_metrics(obs::MetricsRegistry* metrics);

  /// SEs a fresh replica produced on `ce_name` should be registered on,
  /// per the grid's replica policy (default `close-se`: the CE's close SE).
  std::vector<std::string> replica_targets(const std::string& ce_name);

  /// The StorageElement a CE stages through (the default SE when the site
  /// does not name one).
  StorageElement& close_storage(const std::string& ce_name);
  const std::string& close_storage_name(const std::string& ce_name);

  /// Estimated stage-in seconds for `request` if matched to `ce_name`,
  /// priced from the catalog's replica locations (0 without a catalog).
  double stage_in_estimate_seconds(const JobRequest& request, const std::string& ce_name);

  /// Observer for SE→SE transfers (started / completed). Not owned; called
  /// from the drive thread.
  void set_transfer_listener(std::function<void(const TransferEvent&)> listener) {
    transfer_listener_ = std::move(listener);
  }

  /// Request an SE→SE third-party copy of `lfn` onto `to_se`. Deduplicated
  /// against in-flight transfers and existing replicas; deferred while
  /// either endpoint is inside an outage window. No-op without a catalog.
  void start_transfer(const std::string& lfn, double megabytes,
                      const std::string& from_se, const std::string& to_se,
                      obs::Name trigger);

  /// Hook for the execution backend: a fresh replica of `lfn` registered on
  /// `se_name`. Feeds `fanout-k` replication's background copies.
  void note_replica_registered(const std::string& lfn, const std::string& se_name,
                               double megabytes);

  /// Does the replication policy route remote reads SE→SE (peer pulls)
  /// instead of through the orchestrator?
  bool decentralized_reads() const { return replication_ != policy::Replication::kNone; }

  /// Cumulative busy time of the finite orchestrator link (0 when the
  /// bandwidth is unlimited and the link model is bypassed).
  double ui_busy_seconds() const { return ui_busy_seconds_; }

  /// Records of all completed (done or failed) jobs, completion order.
  const std::vector<JobRecord>& completed_jobs() const { return completed_; }

  struct Stats {
    std::size_t submitted = 0;
    std::size_t done = 0;
    std::size_t failed = 0;
    std::size_t failed_attempts = 0;
    /// Storage-side fault trace (SE fault injection on).
    std::size_t replica_faults = 0;
    std::size_t replica_failovers = 0;
    std::size_t data_lost_jobs = 0;
    /// SE→SE third-party transfer trace (decentralized replication).
    std::size_t transfers_started = 0;
    std::size_t transfers_completed = 0;
    double transfer_megabytes = 0.0;
    /// Megabytes that round-tripped through the orchestrator/UI link.
    double ui_megabytes = 0.0;
    RunningStats overhead_seconds;
    RunningStats total_seconds;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct PendingJob {
    JobRecord record;
    JobRequest request;
    CompletionCallback on_complete;
    bool completed = false;      // a racing attempt already finished the job
    int in_flight_attempts = 0;  // attempts currently racing
    int clones_launched = 0;     // speculative copies started so far
  };

  struct StagePlan {
    double effective_megabytes = 0.0;  // penalty applied to remote refs
    double remote_megabytes = 0.0;     // pre-penalty size of remote refs
  };
  StagePlan plan_stage_in(const JobRequest& request, const std::string& ce_name) const;
  /// Adds one input of `megabytes` to `plan`, with the remote penalty when it
  /// is read from another SE.
  void price_ref(StagePlan& plan, double megabytes, bool remote) const;

  /// Like StagePlan, but resolved against live replica state with SE fault
  /// injection applied: down SEs are skipped, lost/corrupt replicas are
  /// invalidated in the catalog and failed over, and inputs with no
  /// surviving replica land in lost_files.
  struct StageResolution : StagePlan {
    int faults = 0;
    int failovers = 0;
    std::vector<std::string> lost_files;
  };
  StageResolution resolve_stage_in(const JobRequest& request, const std::string& se_name);

  /// One attempt of a job, from its UI submission to its end: the job, and
  /// what its continuations need once it is matched and staged. Kept in the
  /// `attempts_` slab, so every continuation captures only `[this, attempt]`.
  struct Attempt {
    std::shared_ptr<PendingJob> job;
    ComputingElement* ce = nullptr;  // set at match
    StorageElement* se = nullptr;    // the close SE it stages through
    double payload_seconds = 0.0;
    double staged_megabytes = 0.0;  // effective stage-in, penalties applied
    double remote_megabytes = 0.0;  // pre-penalty size of remote inputs
    bool peer_routed = false;       // reads come off the SE fabric, not the UI
    double ui_in_seconds = 0.0;
  };
  using AttemptKey = sim::Slab<Attempt>::Key;

  void start_attempt(const std::shared_ptr<PendingJob>& job);
  void submit_to_broker(AttemptKey attempt);
  void on_matched(AttemptKey attempt, ComputingElement& ce);
  void arm_speculative_watchdog(const std::shared_ptr<PendingJob>& job);
  void enter_site(AttemptKey attempt);
  void run_in_slot(AttemptKey attempt);
  void on_ui_staged_in(AttemptKey attempt, double ui_in_seconds);
  void on_staged_in(AttemptKey attempt, double in_seconds);
  void on_payload_done(AttemptKey attempt);
  void on_staged_out(AttemptKey attempt, double out_seconds);
  void on_ui_staged_out(AttemptKey attempt, double ui_out_seconds);
  /// The attempt failed on its CE: free its slot, then resubmit the job or,
  /// past max_attempts, fail it. `se_down` picks the log line.
  void fail_attempt(AttemptKey attempt, bool se_down);
  /// Drop an attempt that holds a worker slot: release the slot and the
  /// record, and return its job.
  std::shared_ptr<PendingJob> end_attempt(AttemptKey attempt);
  void finish(const std::shared_ptr<PendingJob>& job, JobState final_state);

  /// Move `megabytes` across the finite orchestrator link, FCFS behind
  /// concurrent stagings; `on_done(elapsed)` gets queueing + transfer time.
  /// With an unlimited link (or zero bytes) `on_done(0)` runs synchronously
  /// so the event sequence stays bit-identical to the unmodeled path.
  void ui_stage(double megabytes, sim::Function<void(double)> on_done);
  void record_ui_bytes(double megabytes);
  /// Live replica of `lfn` cheapest to copy onto `to_se` (pairwise cost,
  /// registration order breaking ties); empty when none survives or the
  /// destination already holds one.
  std::string cheapest_live_source(const std::string& lfn, const std::string& to_se);
  void begin_transfer(const std::string& lfn, double megabytes,
                      const std::string& from_se, const std::string& to_se,
                      obs::Name trigger);
  void maybe_push_for_match(const JobRequest& request, const std::string& ce_name);

  sim::Simulator& simulator_;
  GridConfig config_;
  /// The configured policy names, parsed before anything else is built.
  policy::Replica replica_;
  policy::Replication replication_;
  policy::Eviction eviction_;
  Rng rng_;
  OverheadModel overhead_;
  /// The user-interface host: submission commands run one at a time.
  sim::Resource ui_;
  Rng ui_rng_;
  ResourceBroker broker_;
  StorageElement storage_;  // the default SE ("se0")
  /// Dedicated substream for replica loss/corruption draws: enabling SE
  /// fault injection never perturbs any other stochastic component.
  Rng se_rng_;
  /// Any SE outage window or replica fault probability configured? Gates
  /// every storage-fault code path so the zero-fault data plane stays
  /// bit-identical to the fault-free implementation.
  bool storage_faults_enabled_ = false;
  std::vector<std::unique_ptr<StorageElement>> extra_storage_;
  std::map<std::string, StorageElement*> storage_by_name_;
  std::map<std::string, StorageElement*> close_storage_;  // CE name -> SE
  /// Every SE name in deterministic (map) order, for replica placement.
  std::vector<std::string> storage_names_;
  /// The finite orchestrator/UI data link (null = unlimited bandwidth,
  /// the historical free-staging behavior).
  std::unique_ptr<sim::Resource> ui_link_;
  /// One staging on the finite link between its request and its end.
  struct UiStaging {
    double start = 0.0;
    double seconds = 0.0;
    sim::Function<void(double)> on_done;
  };
  sim::Slab<UiStaging> ui_stagings_;
  double ui_busy_seconds_ = 0.0;
  /// In-flight SE→SE transfers keyed "lfn|destination" for deduplication.
  std::set<std::string> pending_transfers_;
  std::function<void(const TransferEvent&)> transfer_listener_;
  obs::MetricsRegistry* metrics_ = nullptr;               // not owned
  data::ReplicaCatalog* catalog_ = nullptr;               // not owned
  std::unique_ptr<BackgroundLoad> background_;
  sim::Slab<Attempt> attempts_;
  JobId next_job_id_ = 1;
  std::vector<JobRecord> completed_;
  Stats stats_;
};

}  // namespace moteur::grid
