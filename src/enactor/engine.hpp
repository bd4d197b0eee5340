#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/invocation_cache.hpp"
#include "enactor/enactor.hpp"
#include "enactor/run_request.hpp"
#include "grid/ce_health.hpp"
#include "obs/name.hpp"
#include "policy/policy.hpp"
#include "util/stats.hpp"
#include "workflow/iteration.hpp"
#include "workflow/iteration_tree.hpp"

namespace moteur::enactor {

/// One full enactment, exposed incrementally so a caller can interleave
/// several engines over one shared backend (RunService) or drive a single
/// one to completion (Enactor::run). Single-threaded: every method runs on
/// the thread driving the backend; backends funnel completions and timers
/// through drive().
///
/// Lifetime: construct via std::make_shared — every callback handed to the
/// backend (completions, watchdogs, backoff timers) holds only a weak_ptr,
/// so attempts still in backend flight when the engine dies (watchdog-clone
/// stragglers, deadlock unwinding, cancellation) are discarded instead of
/// touching a dead engine. Destroy the engine before its backend. An
/// exception a callback throws fails this run only (failure()).
///
/// Protocol: start() once, then have the backend drive until settled();
/// finish() exactly once to collect the result. A run that settles
/// unfinished is deadlocked (deadlock_error()).
class Engine : public std::enable_shared_from_this<Engine> {
 public:
  struct Options {
    /// Stamped on every emitted obs::RunEvent and on the result.
    std::string run_id;
    /// Per-CE breaker ledger the engine records every attempt outcome into;
    /// not owned. Its owner (the Enactor for one run, the RunService for all
    /// of its runs) attaches it to the backend and listens for its
    /// transitions. Null = no breakers.
    grid::CeHealth* health = nullptr;
    /// Invocation memoization cache consulted before submission when the
    /// policy enables caching. Shared across runs (and tenants, through the
    /// RunService); not owned. Null = no caching.
    data::InvocationCache* cache = nullptr;
  };

  /// Parses the policy's matchmaking and placement names, validates
  /// `workflow` and applies the grouping rewrite per `policy`. Throws
  /// ParseError on an unknown policy name, EnactmentError on an invalid
  /// workflow or binding mismatch.
  Engine(ExecutionBackend& backend, services::ServiceRegistry& registry,
         EnactmentPolicy policy, PayloadResolver resolver,
         std::vector<EventSubscriber> subscribers,
         const workflow::Workflow& workflow, data::InputDataSet inputs,
         Options options);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Emit sources and dispatch everything initially firable.
  void start();

  /// Whether every processor has finished (the run may be collected).
  bool finished() const;

  /// Whether the run can move no further: it holds no unresolved
  /// submission, or one of its callbacks threw (failure()). True once
  /// finished, and for a deadlocked run. O(1), for the drivers'
  /// done-predicates.
  bool settled() const { return tuples_in_flight_ == 0 || failure_ != nullptr; }

  /// The exception that escaped one of the run's backend callbacks, or
  /// null. Once set, the run has settled and its later callbacks are
  /// ignored.
  const std::exception_ptr& failure() const { return failure_; }

  /// The error of a run that settled unfinished: the deadlock, with the
  /// unfinished processors in name order.
  std::string deadlock_error() const;

  /// Collect sinks and return the result. Call exactly once, after
  /// finished() holds (or when abandoning a deadlocked/cancelled run — the
  /// result then reflects whatever settled).
  EnactmentResult finish();

  const std::string& run_id() const { return run_id_; }

 private:
  using Tuple = workflow::IterationBuffer::Tuple;

  /// One processor of the run, at its topological position in table_.
  /// Everything the dataflow steps need is resolved to positions and
  /// pointers here, once, by build_states(): tokens travel by outlet and
  /// slot, and no step looks a processor or input port name up.
  struct PState {
    enum class Role { kSource, kService, kBarrier, kSink };

    /// Where one outgoing link delivers: its consumer and the consumer's
    /// input slot.
    struct Outlet {
      std::size_t port = 0;  // position in proc->output_ports
      PState* consumer = nullptr;
      std::size_t slot = 0;
      bool feedback = false;
      /// SP off: the consumer waits for this producer (it is outside the
      /// consumer's loop).
      bool stage = false;
      std::size_t iterations = 0;  // feedback only: loop passes so far
    };

    /// A processor that can send tokens across a feedback inlet: one that
    /// reaches the inlet's producer (the producer included).
    struct Recirculator {
      const PState* state = nullptr;
      bool in_loop = false;  // shares the slot's loop
    };

    /// One input slot: the leaf position in a service's iteration buffer,
    /// the input port position of a barrier or sink.
    struct Input {
      std::vector<data::Token> tokens;  // barriers and sinks
      std::size_t feeders = 0;  // non-feedback inlets whose producer is unfinished
      std::vector<Recirculator> recirculators;  // empty without feedback inlets
      bool closed = false;
    };

    const workflow::Processor* proc = nullptr;
    Role role = Role::kSource;
    obs::Name name;  // proc->name, interned only while observing
    std::shared_ptr<services::Service> service;  // services and barriers
    std::unique_ptr<workflow::CompositeIterationBuffer> buffer;  // services
    std::vector<Input> inputs;    // by slot
    std::vector<Outlet> outlets;  // workflow link order
    /// Loop members only: the recirculators of a feedback slot of the loop,
    /// that is, the loop's members and the outside processors that reach it.
    const std::vector<Recirculator>* loop = nullptr;
    /// Processors a coordination constraint holds back until this one
    /// finishes.
    std::vector<PState*> constrained;
    /// Stage outlets into this processor whose producer is unfinished: with
    /// SP off, it fires nothing until they are all done.
    std::size_t stage_waits = 0;
    std::size_t constraint_waits = 0;  // unfinished `before` processors
    std::deque<Tuple> ready;
    std::size_t in_flight = 0;  // unresolved logical submissions
    std::size_t fired = 0;
    bool finished = false;
    bool sync_fired = false;

    /// Port name of each input slot.
    const std::vector<std::string>& slot_ports() const;
  };

  /// One logical unit of work handed to the backend: a (possibly batched)
  /// set of tuples plus their bindings. A submission stays unresolved while
  /// attempts — the original, transient-failure resubmissions, timeout
  /// clones — race; the first success wins, late completions are discarded.
  struct Submission {
    PState* state = nullptr;
    std::uint64_t id = 0;  // run-unique invocation id (observability)
    std::vector<workflow::IterationBuffer::Tuple> tuples;
    std::vector<services::Inputs> bindings;
    /// Invocation-cache key per tuple ("" = not memoizable: caching off,
    /// non-deterministic service, barrier aggregate, or undigested inputs).
    /// A successful completion inserts each tuple's result under its key.
    std::vector<std::string> cache_keys;
    std::size_t attempts_started = 0;
    std::size_t attempts_in_flight = 0;
    std::size_t pending_resubmits = 0;  // backoff timers not yet fired
    bool resolved = false;
    double attempt_started_at = 0.0;  // backend time of the latest attempt
    std::optional<ExecutionBackend::TimerId> watchdog;
    /// Lineage recovery (kDataLost outcomes): rounds consumed against
    /// policy_.max_recovery_depth, producer re-fires still in flight, and
    /// the files the last kDataLost attempt reported lost.
    std::size_t recovery_rounds = 0;
    std::size_t pending_recoveries = 0;
    bool recovery_failed = false;
    std::vector<std::string> lost_files;
    /// CEs earlier attempts landed on (oldest first) — the placement
    /// policy's avoid-set input for retries and timeout clones.
    std::vector<std::string> tried_ces;
  };

  /// Producer record for one logical file: the provenance chain carries no
  /// payloads, so the engine keeps the producing processor and input tuple
  /// alongside — enough to re-fire the invocation that derived the file.
  /// Feedback-recirculated tokens drop their digests, so no lineage entry
  /// ever points back into a loop: the recorded graph is acyclic.
  struct Lineage {
    PState* state = nullptr;
    workflow::IterationBuffer::Tuple tuple;
  };

  /// One in-flight re-derivation of a lost file. Recovery executions bypass
  /// the Submission bookkeeping entirely: their only purpose is the side
  /// effect of re-registering the file's replicas (the backend registers
  /// outputs of successful jobs), after which the consumer resubmits.
  struct Recovery {
    PState* state = nullptr;
    workflow::IterationBuffer::Tuple tuple;
    std::string lfn;
    std::size_t depth = 1;
    std::size_t attempts = 0;
    std::function<void(bool)> on_done;
  };

  /// Run one backend callback's work: nothing once the run has failed, and
  /// an exception it throws becomes the run's failure.
  template <typename Work>
  void contain(Work&& work);
  /// Build table_: processors in topological order, their services,
  /// buffers, inputs and outlets, and the stage and constraint waits.
  void build_states();
  void emit_sources();
  /// Deliver `token` over every outlet of output port `port`; `recirculate`
  /// false stops it at feedback outlets.
  void fan_out(PState& state, std::size_t port, data::Token token, bool recirculate = true);
  void deliver(PState::Outlet& outlet, data::Token token);
  /// Mark `state` finished and release the inputs, stage waits and
  /// constraints it held.
  void set_finished(PState& state);
  /// Close every open input slot whose non-feedback feeders have all
  /// finished and across whose feedback inlets no token can come again:
  /// every recirculator outside the slot's loop has finished, and those of
  /// the loop hold no submission and no ready tuple. Returns whether any
  /// slot closed.
  bool close_inputs(PState& state);
  /// Dispatch everything firable, then run the closure fixpoint; repeat
  /// until a full pass makes no progress.
  void pump();
  bool dispatch_pass();
  bool closure_pass();
  bool can_fire(const PState& state) const;
  /// Whether loop member `state` may fire a partial batch: no member of its
  /// loop has a submission in flight and every processor outside the loop
  /// that reaches it has finished, so no further tuple can come before one
  /// of the loop's own fires.
  bool loop_drained(const PState& state) const;
  /// Data sets batched into the next submission of this service (§5.4
  /// adaptive granularity when enabled, else the static policy value).
  std::size_t target_batch(const PState& state) const;
  /// The service inputs of one tuple: each token under its slot's port.
  services::Inputs bind(const PState& state, const Tuple& tuple) const;
  /// Submit `tuples` as one logical submission.
  void fire(PState& state, std::vector<Tuple> tuples);
  void fire_barrier(PState& state);
  void start_attempt(const std::shared_ptr<Submission>& sub);
  void arm_watchdog(const std::shared_ptr<Submission>& sub);
  /// Arm watchdogs on outstanding submissions that predate the median (a DP
  /// burst submits everything before any sample exists).
  void arm_pending_watchdogs();
  void on_watchdog(const std::shared_ptr<Submission>& sub);
  void on_attempt_complete(const std::shared_ptr<Submission>& sub, std::size_t attempt,
                           Outcome outcome);
  /// Mark the submission settled: no further attempt may deliver or fail it.
  void resolve(const std::shared_ptr<Submission>& sub);
  void resolve_failure(const std::shared_ptr<Submission>& sub, std::size_t attempt,
                       OutcomeStatus status, const std::string& error);
  /// Lineage recovery is live: the policy enables it and the backend has a
  /// replica catalog to recover against.
  bool recovery_enabled() const;
  /// Remember who derived `lfn` (and from what), for later re-derivation.
  void record_lineage(PState& state, const workflow::IterationBuffer::Tuple& tuple,
                      const data::DataRef& ref);
  /// React to a kDataLost outcome: re-derive every lost file (or, for files
  /// this run did not derive, rely on the backend re-seeding source replicas
  /// at resubmission), then re-fire the consumer. Returns false when the
  /// recovery budget is exhausted or recovery is off — the caller then fails
  /// the submission for real.
  bool try_recover(const std::shared_ptr<Submission>& sub, std::size_t attempt,
                   const Outcome& outcome);
  /// Re-derive one file (recursing into its own lost inputs, bounded by
  /// policy_.max_recovery_depth); `on_done(ok)` fires exactly once.
  void recover_file(const std::string& lfn, std::size_t depth,
                    std::function<void(bool)> on_done);
  void start_recovery(const std::shared_ptr<Recovery>& rec);
  void on_recovery_complete(const std::shared_ptr<Recovery>& rec, Outcome outcome);
  /// Emit one poisoned token per output port of `state` for the failed or
  /// skipped `tuple`, delivered over all non-feedback outgoing links (a
  /// poisoned token must not recirculate a loop).
  void poison_outputs(PState& state, const Tuple& tuple,
                      const std::shared_ptr<const data::TokenError>& error);
  /// Account for a tuple whose inputs are poisoned: it never executes.
  void skip_tuple(PState& state, const Tuple& tuple);
  /// The timeline row and event of a tuple settled without a grid job: a
  /// cache hit (kCached) or a skip (kSkipped).
  void settle_without_job(PState& state, const Tuple& tuple, OutcomeStatus status,
                          const std::string& error);
  /// Whether this processor's invocations may be memoized at all.
  bool cacheable(const PState& state) const;
  /// The tuple's (input port, content digest) pairs in slot order; empty
  /// when an input carries no digest, which defeats content addressing.
  std::vector<data::PortDigest> input_digests(const PState& state,
                                              const Tuple& tuple) const;
  /// Invocation-cache key for one tuple ("" when not memoizable).
  std::string tuple_cache_key(const PState& state, const Tuple& tuple) const;
  /// Probe the invocation cache for `tuple`; on a hit, serve the memoized
  /// outputs without any backend work and return true.
  bool try_serve_cached(PState& state, const Tuple& tuple);
  /// Whether another attempt may still be launched for this submission.
  bool attempts_left(const Submission& sub) const;
  /// Median backend latency of successful submissions so far (0 if none).
  double median_latency() const;
  void check_binding(const PState& state) const;

  // --- Observability: the structured event stream every consumer (span
  // recorder, metrics, progress monitors) subscribes to.
  // Events carry the running totals at emission time, so emission points sit
  // strictly after the corresponding stats_ updates.
  bool observing() const { return !subscribers_.empty(); }
  /// The run's one event object, reset for `kind`: build an event in it,
  /// emit it, and build no other before the emission.
  obs::RunEvent& make_event(obs::RunEvent::Kind kind);
  obs::RunEvent& make_event(obs::RunEvent::Kind kind, const Submission& sub,
                            std::size_t attempt);
  void emit(const obs::RunEvent& event) const;
  /// A CE's interned name, interned once per run on first sight.
  obs::Name ce_name(const std::string& ce);

  ExecutionBackend& backend_;
  services::ServiceRegistry& registry_;
  EnactmentPolicy policy_;
  PayloadResolver resolver_;
  std::vector<EventSubscriber> subscribers_;
  workflow::Workflow workflow_{"empty"};
  data::InputDataSet inputs_;
  std::string run_id_;
  /// A blank event carrying run_id_, and the event every emission is built
  /// in. Resetting event_ from it copies the id into a string that already
  /// has the capacity, which allocates nothing, so no event copies the id.
  obs::RunEvent blank_event_;
  obs::RunEvent event_;
  obs::Name workflow_name_;  // interned at start() while observing
  std::unordered_map<std::string, obs::Name> ce_names_;
  grid::CeHealth* health_ = nullptr;  // not owned; null = no breakers
  data::InvocationCache* cache_ = nullptr;  // not owned; null = caching off

  /// Every processor, in topological order: the per-pass visiting order.
  /// Sized once by build_states() before any pointer into it is taken, and
  /// never resized, so submissions, lineage records and outlets point into
  /// it.
  std::vector<PState> table_;
  /// Scratch buffer for median_latency(): reused so the per-watchdog median
  /// never reallocates once the sample vector stops growing.
  mutable std::vector<double> median_scratch_;
  /// Online estimate of the per-job middleware overhead (adaptive batching).
  RunningStats observed_overhead_;
  /// Latencies of successful submissions — the running-median base of the
  /// timeout-resubmission watchdog.
  std::vector<double> latency_samples_;
  /// Unresolved submissions, for late watchdog arming (pruned lazily).
  /// Recorded only while the timeout watchdog is on; nothing else reads it.
  std::vector<std::weak_ptr<Submission>> outstanding_;
  std::uint64_t next_submission_id_ = 1;
  std::size_t tuples_in_flight_ = 0;  // across all unresolved submissions
  std::exception_ptr failure_;
  /// policy_.matchmaking and policy_.placement, parsed at construction.
  /// Unset matchmaking = the backend's default; `rematch` placement = no
  /// avoidance, the historical behavior.
  std::optional<policy::Matchmaking> matchmaking_;
  policy::Placement placement_ = policy::Placement::kRematch;
  /// Lineage ledger: logical file name -> producer record, populated as
  /// ref-carrying outputs are delivered (recovery enabled only).
  std::map<std::string, Lineage> lineage_;
  EnactmentResult result_;
};

}  // namespace moteur::enactor
