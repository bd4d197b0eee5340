#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/name.hpp"

namespace moteur::obs {

/// One structured notification from an enactment run — the event stream
/// every observability consumer (span recorder, metrics, progress
/// monitors) subscribes to. Events fire synchronously on the
/// thread driving the backend, in strictly serialized order, with monotone
/// `time` and running totals.
///
/// Names (workflow, processor, status, CE, SEs, trigger) are interned
/// `Name`s, so copying an event copies pointers, not text; only the run id,
/// the error and the logical file are owned strings.
///
/// Identity model: `invocation` numbers each logical submission (a possibly
/// batched set of tuples handed to the backend) uniquely within the run;
/// `attempt` numbers the backend executions racing for it (1 = the original,
/// higher = transient-failure resubmissions and watchdog clones).
struct RunEvent {
  enum class Kind {
    kRunStarted,           // enactment begins (run = workflow name)
    kRunFinished,          // last result settled
    kInvocationStarted,    // a logical submission was created
    kInvocationCompleted,  // an attempt succeeded; outputs delivered
    kInvocationFailed,     // definitively lost (tuples dropped)
    kAttemptStarted,       // one backend execution launched
    kAttemptEnded,         // one backend execution reported back
    kRetryScheduled,       // transient failure; a resubmission will follow
    kWatchdogFired,        // straggler deadline hit; a clone is being raced
    kProcessorFinished,    // a processor will produce nothing further
    kInvocationSkipped,    // consumed a poisoned token; never executed
    kBreakerOpened,        // a CE's circuit breaker tripped
    kBreakerHalfOpen,      // cooldown elapsed; a probe submission is routed
    kBreakerClosed,        // probe succeeded; the CE rejoined routing
    kSubmissionRerouted,   // matchmaking excluded at least one open CE
    kCacheHit,             // served from the invocation cache; no grid job
    kReplicaLost,          // no replica of a required input file survives
    kReplicaFailover,      // stage-in fell through to a surviving replica
    kReDerived,            // lineage recovery regenerated a lost file
    kTransferStarted,      // SE→SE third-party transfer requested
    kTransferDone,         // SE→SE third-party transfer landed a replica
  };

  Kind kind = Kind::kRunStarted;
  double time = 0.0;  // backend time of the event, seconds

  /// Id of the run emitting the event, stamped on EVERY kind — the key that
  /// keeps concurrent runs sharing one recorder/subscriber apart. For the
  /// single-run Enactor path this defaults to the workflow name; RunService
  /// assigns unique ids. Empty only for service-scope events that belong to
  /// no single run (shared-breaker transitions).
  std::string run_id;

  Name run;        // workflow name (kRunStarted/kRunFinished)
  Name processor;  // all invocation-scoped kinds
  std::uint64_t invocation = 0;  // 1-based logical submission id
  std::size_t attempt = 0;       // 1-based attempt number
  std::size_t tuples = 0;        // data tuples carried by the invocation

  // kAttemptEnded payload.
  bool ok = false;
  bool superseded = false;  // a racing attempt had already settled it
  Name status;              // OutcomeStatus name ("Ok", "Transient", ...)
  std::string error;        // failure message; root cause for kInvocationSkipped
  Name computing_element;         // also set on breaker events; else empty
  double submit_time = -1.0;      // attempt timings (backend seconds)
  double start_time = -1.0;       // payload began (queue wait before this)
  double end_time = -1.0;
  /// Input staging time inside [submit_time, start_time], when the backend
  /// reports it (grid JobRecord); 0 for backends without a staging phase.
  double stage_in_seconds = 0.0;

  // Data-plane fault payload (kReplicaLost / kReplicaFailover / kReDerived).
  std::string logical_file;  // the lfn lost, failed over, or re-derived
  std::size_t count = 0;     // failovers in the attempt (kReplicaFailover)

  // SE→SE transfer payload (kTransferStarted / kTransferDone). These are
  // service-scope events (empty run_id): a transfer can serve many runs.
  Name from_se;
  Name to_se;
  double megabytes = 0.0;
  Name trigger;  // "match" (broker push) or "fanout" (background)

  // Running totals at emission time.
  std::size_t total_invocations = 0;
  std::size_t total_submissions = 0;
  std::size_t tuples_in_flight = 0;
};

const char* to_string(RunEvent::Kind kind);

}  // namespace moteur::obs
