#pragma once

#include <any>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "data/invocation_cache.hpp"
#include "data/token.hpp"
#include "enactor/backend.hpp"
#include "enactor/failure_report.hpp"
#include "enactor/policy.hpp"
#include "enactor/run_request.hpp"
#include "enactor/timeline.hpp"
#include "obs/event.hpp"
#include "services/registry.hpp"
#include "workflow/graph.hpp"
#include "workflow/grouping.hpp"

namespace moteur::obs {
class RunRecorder;
}  // namespace moteur::obs

namespace moteur::enactor {

/// The run's counters, grouped: what the paper's metrics are computed from
/// plus the fault-tolerance tallies.
struct EnactmentStats {
  std::size_t invocations = 0;  // service invocations (one per data tuple)
  std::size_t submissions = 0;  // backend executions, retry attempts included
  std::size_t failures = 0;     // tuples lost to definitive job failures
  std::size_t retries = 0;      // resubmissions after a transient failure
  std::size_t timeouts = 0;     // watchdog-triggered clone submissions
  std::size_t skipped = 0;      // invocations skipped on poisoned inputs
  std::size_t cache_hits = 0;   // invocations served from the memoization cache
  std::size_t rederived = 0;    // lost files regenerated by lineage recovery
};

/// Everything a run produces: the sink data, the full invocation timeline
/// and the counters the paper's metrics are computed from.
struct EnactmentResult {
  /// Id of the run that produced this result (RunRequest::name, or the
  /// workflow name when the request carried none).
  std::string run_id;

  Timeline timeline;
  double started_at = 0.0;   // backend time when the run began
  double finished_at = 0.0;  // backend time when the last result settled
  /// Total execution time Sigma of the run (paper §3.5.1).
  double makespan() const { return finished_at - started_at; }

  /// Tokens collected by each data sink, sorted by iteration index.
  std::map<std::string, std::vector<data::Token>> sink_outputs;

  EnactmentStats stats;
  std::size_t invocations() const { return stats.invocations; }
  std::size_t submissions() const { return stats.submissions; }
  std::size_t failures() const { return stats.failures; }
  std::size_t retries() const { return stats.retries; }
  std::size_t timeouts() const { return stats.timeouts; }
  std::size_t skipped() const { return stats.skipped; }
  std::size_t cache_hits() const { return stats.cache_hits; }
  std::size_t rederived() const { return stats.rederived; }

  /// Structured account of lost tuples, skipped invocations and missing sink
  /// outputs. Empty for a clean run; under FailurePolicy::kContinue every
  /// definitively failed tuple and each of its skipped descendants appears.
  FailureReport failure_report;

  /// The workflow actually enacted (after the grouping rewrite, if any).
  workflow::Workflow executed_workflow{"empty"};
  workflow::GroupingReport grouping;
};

/// The obs event of one breaker-ledger transition: its kind names the state
/// the breaker entered; time and CE are the transition's. The ledger's owner
/// stamps the run id (none for the RunService's shared ledger).
obs::RunEvent breaker_event(const grid::CeHealth::Transition& t);

/// MOTEUR: the optimized service-workflow enactor (paper §4.1). Drives a
/// workflow over an input data set against an execution backend, applying
/// the configured combination of workflow parallelism (always), data
/// parallelism, service parallelism and job grouping.
///
/// The engine is data-driven: sources emit their items, iteration buffers
/// assemble firing tuples per the processors' iteration strategies, and the
/// policy gates when tuples may be handed to the backend. Provenance history
/// trees ride along with every token, keeping dot products causally correct
/// no matter the completion order (§4.1).
class Enactor {
 public:
  /// Alias of enactor::PayloadResolver (see run_request.hpp), kept for
  /// existing call sites.
  using PayloadResolver = enactor::PayloadResolver;

  Enactor(ExecutionBackend& backend, services::ServiceRegistry& registry,
          EnactmentPolicy policy);
  ~Enactor();

  const EnactmentPolicy& policy() const { return policy_; }

  /// The run's structured event stream (see obs/event.hpp): progress
  /// monitors, dashboards and logs subscribe here. Subscribers fire
  /// synchronously, in registration order, on the thread driving the
  /// backend — backends deliver completions and timers only from within
  /// drive(), so invocations are serialized and event times and totals are
  /// monotone. A subscriber must not call back into the Enactor.
  /// Subscribers persist across run() calls.
  using EventSubscriber = enactor::EventSubscriber;
  void add_event_subscriber(EventSubscriber subscriber) {
    subscribers_.push_back(std::move(subscriber));
  }

  /// Convenience: subscribe a RunRecorder (span tracer + metrics registry)
  /// to the event stream. The recorder must outlive the enactor's runs;
  /// nullptr unsubscribes.
  void set_recorder(obs::RunRecorder* recorder) { recorder_ = recorder; }

  /// Enact one RunRequest to completion. The workflow is validated,
  /// optionally rewritten by the grouping optimizer, and driven until every
  /// processor finishes. Request fields that are unset (policy, resolver)
  /// fall back to this enactor's defaults; `weight` is a RunService concern
  /// and is ignored here. When the effective policy enables breakers, the
  /// run gets a fresh breaker ledger of its own, attached to the backend
  /// only while the run drives; its transitions
  /// reach the event stream and the result's timeline. Throws ParseError on
  /// an unknown policy name, before anything is submitted, and
  /// EnactmentError on deadlock or missing bindings.
  EnactmentResult run(const RunRequest& request);

  /// The invocation memoization cache shared by every run of this enactor,
  /// allocated lazily by the first run whose effective policy enables
  /// caching (null until then). Entries persist across run() calls, so a
  /// second run over content-identical inputs is served without grid jobs.
  data::InvocationCache* invocation_cache() { return cache_.get(); }

 private:
  ExecutionBackend& backend_;
  services::ServiceRegistry& registry_;
  EnactmentPolicy policy_;
  std::vector<EventSubscriber> subscribers_;
  obs::RunRecorder* recorder_ = nullptr;
  /// Lazily created, enactor-owned memoization store (see invocation_cache).
  std::unique_ptr<data::InvocationCache> cache_;
};

}  // namespace moteur::enactor
