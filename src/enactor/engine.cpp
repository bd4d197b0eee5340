#include "enactor/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string_view>

#include "data/replica_catalog.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace moteur::enactor {

using workflow::CompositeIterationBuffer;
using workflow::IterationBuffer;
using workflow::IterationNode;
using workflow::Link;
using workflow::Processor;
using workflow::ProcessorKind;
using workflow::Workflow;

namespace {

/// Every outcome status as an interned name, built once per process.
obs::Name status_name(OutcomeStatus status) {
  static const auto kNames = [] {
    std::array<obs::Name, static_cast<std::size_t>(OutcomeStatus::kDataLost) + 1> names;
    for (std::size_t i = 0; i < names.size(); ++i) {
      names[i] = obs::Name(to_string(static_cast<OutcomeStatus>(i)));
    }
    return names;
  }();
  return kNames[static_cast<std::size_t>(status)];
}

constexpr std::size_t kNoPort = static_cast<std::size_t>(-1);

/// Position of `port` in `ports`, or kNoPort.
std::size_t position_of(const std::vector<std::string>& ports, const std::string& port) {
  const auto it = std::find(ports.begin(), ports.end(), port);
  return it == ports.end() ? kNoPort : static_cast<std::size_t>(it - ports.begin());
}

/// Remove from `ready`, in order, every tuple `settle` settles; the others
/// keep their order. `settle` may append to `ready` (a cache hit fed back
/// into the same processor): appended tuples are visited too. The loop
/// holds positions, never iterators, across the call, and the reference
/// `settle` gets stays valid because a deque's push_back keeps references
/// to its elements.
template <typename Settle>
bool settle_in_place(std::deque<IterationBuffer::Tuple>& ready, Settle settle) {
  bool settled = false;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < ready.size(); ++i) {
    if (settle(ready[i])) {
      settled = true;
      continue;
    }
    if (kept != i) ready[kept] = std::move(ready[i]);
    ++kept;
  }
  ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(kept), ready.end());
  return settled;
}

/// A service's iteration buffer: its composed tree, or a flat dot/cross
/// over all ports as a one-combinator tree.
std::unique_ptr<CompositeIterationBuffer> iteration_buffer(const Processor& proc) {
  if (proc.iteration_tree != nullptr) {
    return std::make_unique<CompositeIterationBuffer>(*proc.iteration_tree);
  }
  std::vector<IterationNode> leaves;
  for (const auto& port : proc.input_ports) leaves.push_back(IterationNode::leaf(port));
  return std::make_unique<CompositeIterationBuffer>(
      proc.iteration == workflow::IterationStrategy::kDot
          ? IterationNode::dot(std::move(leaves))
          : IterationNode::cross(std::move(leaves)));
}

}  // namespace

const std::vector<std::string>& Engine::PState::slot_ports() const {
  return buffer != nullptr ? buffer->ports() : proc->input_ports;
}

Engine::Engine(ExecutionBackend& backend, services::ServiceRegistry& registry,
               EnactmentPolicy policy, PayloadResolver resolver,
               std::vector<EventSubscriber> subscribers,
               const workflow::Workflow& workflow, data::InputDataSet inputs,
               Options options)
    : backend_(backend),
      registry_(registry),
      policy_(std::move(policy)),
      resolver_(std::move(resolver)),
      subscribers_(std::move(subscribers)),
      inputs_(std::move(inputs)),
      run_id_(std::move(options.run_id)),
      health_(options.health),
      cache_(options.cache) {
  if (!policy_.matchmaking.empty()) {
    matchmaking_ =
        policy::parse<policy::Matchmaking>(policy_.matchmaking, "run matchmaking policy");
  }
  if (!policy_.placement.empty()) {
    placement_ =
        policy::parse<policy::Placement>(policy_.placement, "run placement policy");
  }
  workflow.validate();
  workflow_ = policy_.job_grouping
                  ? workflow::group_sequential_processors(workflow, &result_.grouping)
                  : workflow;
  result_.run_id = run_id_;
  blank_event_.run_id = run_id_;
}

template <typename Work>
void Engine::contain(Work&& work) {
  if (failure_ != nullptr) return;
  try {
    work();
  } catch (...) {
    failure_ = std::current_exception();
  }
}

obs::RunEvent& Engine::make_event(obs::RunEvent::Kind kind) {
  event_ = blank_event_;
  event_.kind = kind;
  event_.time = backend_.now();
  event_.total_invocations = result_.stats.invocations;
  event_.total_submissions = result_.stats.submissions;
  event_.tuples_in_flight = tuples_in_flight_;
  return event_;
}

obs::RunEvent& Engine::make_event(obs::RunEvent::Kind kind, const Submission& sub,
                                  std::size_t attempt) {
  obs::RunEvent& event = make_event(kind);
  event.processor = sub.state->name;
  event.invocation = sub.id;
  event.attempt = attempt;
  event.tuples = sub.tuples.size();
  return event;
}

void Engine::emit(const obs::RunEvent& event) const {
  for (const auto& subscriber : subscribers_) subscriber(event);
}

obs::Name Engine::ce_name(const std::string& ce) {
  const auto [it, inserted] = ce_names_.try_emplace(ce);
  if (inserted) it->second = obs::Name(ce);
  return it->second;
}

void Engine::build_states() {
  // The constructor validated the workflow, so the order is complete.
  const std::vector<std::size_t> order = workflow_.topological_positions();
  const std::size_t n = order.size();
  // Names sorted with their topological positions: the one name lookup,
  // used only to wire links and constraints below.
  std::vector<std::pair<std::string_view, std::size_t>> by_name;
  by_name.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    by_name.emplace_back(workflow_.processors()[order[i]].name, i);
  }
  std::sort(by_name.begin(), by_name.end());
  const auto position = [&by_name](const std::string& name) {
    return std::lower_bound(by_name.begin(), by_name.end(),
                            std::pair<std::string_view, std::size_t>(name, 0))
        ->second;
  };

  table_ = std::vector<PState>(n);
  // Declaration order, so the first unbound or mismatched processor is the
  // one reported.
  for (const Processor& proc : workflow_.processors()) {
    PState& state = table_[position(proc.name)];
    state.proc = &proc;
    if (observing()) state.name = obs::Name(proc.name);
    state.inputs.resize(proc.input_ports.size());
    switch (proc.kind) {
      case ProcessorKind::kSource: state.role = PState::Role::kSource; break;
      case ProcessorKind::kSink: state.role = PState::Role::kSink; break;
      case ProcessorKind::kService:
        // A barrier collects by input port position; a service iterates.
        state.role = proc.synchronization ? PState::Role::kBarrier : PState::Role::kService;
        state.service = registry_.resolve(proc);
        if (!proc.synchronization) state.buffer = iteration_buffer(proc);
        check_binding(state);
        break;
    }
  }

  // Loop membership: two processors share a loop when each reaches the
  // other, feedback links included (Warshall's closure over positions).
  std::vector<char> reaches(n * n, 0);
  for (const Link& link : workflow_.links()) {
    reaches[position(link.from_processor) * n + position(link.to_processor)] = 1;
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (reaches[i * n + k] == 0) continue;
      for (std::size_t j = 0; j < n; ++j) reaches[i * n + j] |= reaches[k * n + j];
    }
  }
  const auto same_loop = [&reaches, n](std::size_t a, std::size_t b) {
    return reaches[a * n + b] != 0 && reaches[b * n + a] != 0;
  };

  for (const Link& link : workflow_.links()) {
    const std::size_t from = position(link.from_processor);
    const std::size_t to = position(link.to_processor);
    PState& consumer = table_[to];
    PState::Outlet outlet;
    outlet.port = position_of(table_[from].proc->output_ports, link.from_port);
    outlet.consumer = &consumer;
    outlet.slot = position_of(consumer.slot_ports(), link.to_port);
    outlet.feedback = link.feedback;
    outlet.stage = !link.feedback && !same_loop(from, to);
    PState::Input& input = consumer.inputs[outlet.slot];
    if (!link.feedback) ++input.feeders;
    for (std::size_t p = 0; link.feedback && p < n; ++p) {
      const bool in_loop = same_loop(p, to);
      if (in_loop) table_[p].loop = &input.recirculators;
      const bool recirculates = p == from || reaches[p * n + from] != 0;
      if (recirculates && std::none_of(input.recirculators.begin(), input.recirculators.end(),
                                       [&](const auto& r) { return r.state == &table_[p]; })) {
        input.recirculators.push_back({&table_[p], in_loop});
      }
    }
    if (outlet.stage) ++consumer.stage_waits;
    table_[from].outlets.push_back(outlet);
  }
  for (const auto& constraint : workflow_.coordination_constraints()) {
    PState& after = table_[position(constraint.after)];
    table_[position(constraint.before)].constrained.push_back(&after);
    ++after.constraint_waits;
  }
}

void Engine::check_binding(const PState& state) const {
  const Processor& proc = *state.proc;
  const services::Service& service = *state.service;
  const std::vector<std::string> inputs = service.input_ports();
  const bool same_inputs =
      std::all_of(inputs.begin(), inputs.end(),
                  [&](const std::string& port) { return proc.has_input_port(port); }) &&
      std::all_of(proc.input_ports.begin(), proc.input_ports.end(),
                  [&](const std::string& port) { return position_of(inputs, port) != kNoPort; });
  MOTEUR_REQUIRE(same_inputs, EnactmentError,
                 "service '" + service.id() + "' input ports do not match processor '" +
                     proc.name + "'");
  const std::vector<std::string> outputs = service.output_ports();
  for (const auto& port : proc.output_ports) {
    MOTEUR_REQUIRE(position_of(outputs, port) != kNoPort, EnactmentError,
                   "service '" + service.id() + "' does not produce output port '" + port +
                       "' required by processor '" + proc.name + "'");
  }
}

void Engine::emit_sources() {
  // Declaration order: it decides the order tokens reach their consumers.
  for (const Processor& proc : workflow_.processors()) {
    if (proc.kind != ProcessorKind::kSource) continue;
    PState& source = *std::find_if(table_.begin(), table_.end(),
                                   [&](const PState& state) { return state.proc == &proc; });
    MOTEUR_REQUIRE(inputs_.has_input(proc.name), EnactmentError,
                   "input data set provides no items for source '" + proc.name + "'");
    const auto& items = inputs_.items(proc.name);
    for (std::size_t j = 0; j < items.size(); ++j) {
      std::any payload =
          resolver_ ? resolver_(proc.name, j, items[j]) : std::any(items[j]);
      // A source has the one output port "out".
      fan_out(source, 0,
              data::Token::from_source(proc.name, j, std::move(payload), items[j]));
    }
    set_finished(source);
    MOTEUR_LOG(kDebug, "enactor") << "source '" << proc.name << "' emitted "
                                  << items.size() << " items";
  }
}

void Engine::fan_out(PState& state, std::size_t port, data::Token token, bool recirculate) {
  // Every outlet but the last gets a copy; the last takes the token.
  PState::Outlet* pending = nullptr;
  for (PState::Outlet& outlet : state.outlets) {
    if (outlet.port != port || (outlet.feedback && !recirculate)) continue;
    if (pending != nullptr) deliver(*pending, token);
    pending = &outlet;
  }
  if (pending != nullptr) deliver(*pending, std::move(token));
}

void Engine::deliver(PState::Outlet& outlet, data::Token token) {
  if (outlet.feedback) {
    // A token crossing a feedback link opens a new loop iteration: extend
    // its index with the link's iteration counter so it cannot collide
    // with the index it carried on the previous pass (dot buffers reject
    // duplicate indices). The rebuilt token drops its content digest:
    // loop-recirculated data is never memoized.
    data::IndexVector extended = token.indices();
    extended.push_back(++outlet.iterations);
    token = data::Token(token.payload(), token.repr(), std::move(extended),
                        token.provenance());
  }
  PState& consumer = *outlet.consumer;
  if (consumer.buffer == nullptr) {  // barrier or sink
    consumer.inputs[outlet.slot].tokens.push_back(std::move(token));
    return;
  }
  consumer.buffer->push(outlet.slot, std::move(token));
  consumer.buffer->drain_ready_into(consumer.ready);
}

void Engine::set_finished(PState& state) {
  state.finished = true;
  for (const PState::Outlet& outlet : state.outlets) {
    if (outlet.feedback) continue;
    --outlet.consumer->inputs[outlet.slot].feeders;
    if (outlet.stage) --outlet.consumer->stage_waits;
  }
  for (PState* after : state.constrained) --after->constraint_waits;
}

bool Engine::close_inputs(PState& state) {
  const auto idle = [](const PState::Recirculator& r) {
    return r.in_loop ? r.state->in_flight == 0 && r.state->ready.empty() : r.state->finished;
  };
  bool progress = false;
  for (std::size_t slot = 0; slot < state.inputs.size(); ++slot) {
    PState::Input& input = state.inputs[slot];
    if (input.closed || input.feeders != 0 ||
        !std::all_of(input.recirculators.begin(), input.recirculators.end(), idle)) {
      continue;
    }
    input.closed = true;
    if (state.buffer != nullptr) state.buffer->close(slot);
    progress = true;
  }
  return progress;
}

bool Engine::cacheable(const PState& state) const {
  // Barrier aggregates are never memoized (their aggregate inputs carry no
  // content digest), nor are services declaring themselves non-deterministic.
  return cache_ != nullptr && policy_.cache && state.role == PState::Role::kService &&
         state.service->deterministic();
}

std::vector<data::PortDigest> Engine::input_digests(const PState& state,
                                                    const Tuple& tuple) const {
  // Tuple tokens are aligned with the buffer's slots, so pair each digest
  // with its port: a key must distinguish a=X,b=Y from a=Y,b=X.
  const std::vector<std::string>& ports = state.slot_ports();
  std::vector<data::PortDigest> inputs;
  inputs.reserve(tuple.tokens.size());
  for (std::size_t i = 0; i < tuple.tokens.size(); ++i) {
    // Poisoned tokens carry no digest either.
    if (tuple.tokens[i].digest() == 0) return {};
    inputs.emplace_back(ports[i], tuple.tokens[i].digest());
  }
  return inputs;
}

std::string Engine::tuple_cache_key(const PState& state, const Tuple& tuple) const {
  std::vector<data::PortDigest> inputs = input_digests(state, tuple);
  if (inputs.empty()) return {};
  return data::InvocationCache::cache_key(state.service->content_digest(),
                                          std::move(inputs));
}

bool Engine::try_serve_cached(PState& state, const Tuple& tuple) {
  if (!cacheable(state)) return false;
  const std::string key = tuple_cache_key(state, tuple);
  if (key.empty()) return false;
  // Peek first: a hit only counts once its output replicas are confirmed to
  // still resolve. An entry whose replicas were lost or evicted from the
  // catalog would hand out dangling references and bypass can_fire() for
  // work that must actually re-execute — drop it and fall through to a miss.
  if (data::ReplicaCatalog* catalog = backend_.catalog(); catalog != nullptr) {
    const auto probe = cache_->peek(key);
    if (!probe) return false;
    for (const auto& out : probe->outputs) {
      if (out.ref != nullptr && catalog->locate(out.ref->logical_name).empty()) {
        cache_->invalidate(key, run_id_);
        return false;
      }
    }
  }
  auto hit = cache_->lookup(key, run_id_);
  if (!hit) return false;

  const std::size_t codes_per_tuple =
      state.proc->is_grouped() ? state.proc->group_members.size() : 1;
  result_.stats.invocations += codes_per_tuple;
  ++result_.stats.cache_hits;
  MOTEUR_LOG(kDebug, "enactor") << "cache hit for '" << state.proc->name << "' on tuple "
                                << data::to_string(tuple.index);
  settle_without_job(state, tuple, OutcomeStatus::kCached, {});

  for (const auto& out : hit->outputs) {
    const std::size_t port = position_of(state.proc->output_ports, out.port);
    if (port == kNoPort) continue;
    if (out.ref != nullptr && recovery_enabled()) record_lineage(state, tuple, *out.ref);
    fan_out(state, port,
            data::Token::derived(state.proc->name, out.port, tuple.tokens, tuple.index,
                                 out.payload, out.repr, out.digest, out.ref));
  }
  return true;
}

bool Engine::loop_drained(const PState& state) const {
  return state.loop != nullptr &&
         std::all_of(state.loop->begin(), state.loop->end(), [](const PState::Recirculator& r) {
           return r.in_loop ? r.state->in_flight == 0 : r.state->finished;
         });
}

bool Engine::can_fire(const PState& state) const {
  std::size_t capacity = policy_.service_capacity();
  // A service may advertise a single-host concurrency limit (§3.3).
  const std::size_t service_limit = state.service->max_concurrent_invocations();
  if (service_limit != 0) capacity = std::min(capacity, service_limit);
  if (state.in_flight >= capacity) return false;
  // Stage synchronization: every data predecessor (outside this
  // processor's own loop) must be entirely done before it may process
  // anything.
  if (!policy_.service_parallelism && state.stage_waits != 0) return false;
  return state.constraint_waits == 0;
}

std::size_t Engine::target_batch(const PState& state) const {
  if (!policy_.adaptive_batching) return policy_.batch_size;
  MOTEUR_REQUIRE(policy_.overhead_fraction_target > 0.0 &&
                     policy_.overhead_fraction_target <= 1.0,
                 EnactmentError, "overhead_fraction_target must lie in (0, 1]");
  const double overhead = observed_overhead_.count() >= 3
                              ? observed_overhead_.mean()
                              : policy_.overhead_hint_seconds;
  // Estimate the per-item payload from the front tuple's profile.
  double compute = 1.0;
  if (!state.ready.empty()) {
    compute = std::max(1.0,
                       state.service->job_profile(bind(state, state.ready.front()))
                           .compute_seconds);
  }
  const double f = policy_.overhead_fraction_target;
  const double needed = overhead * (1.0 - f) / (f * compute);
  const auto batch = static_cast<std::size_t>(std::ceil(needed));
  return std::clamp<std::size_t>(batch, 1, policy_.max_batch);
}

bool Engine::dispatch_pass() {
  bool progress = false;
  for (PState& state : table_) {
    if (state.role != PState::Role::kService || state.finished) continue;
    if (policy_.failure_policy == FailurePolicy::kContinue) {
      // Peel off tuples that consumed a poisoned token: they can never
      // execute, only be skipped (which re-poisons their descendants).
      // Skipping needs no backend capacity, so it bypasses can_fire().
      progress |= settle_in_place(state.ready, [&](const Tuple& tuple) {
        if (std::none_of(tuple.tokens.begin(), tuple.tokens.end(),
                         [](const data::Token& t) { return t.poisoned(); })) {
          return false;
        }
        skip_tuple(state, tuple);
        return true;
      });
    }
    if (cacheable(state)) {
      // Serve memoized tuples before batching: a hit short-circuits the grid
      // job entirely and needs no backend capacity, so it bypasses can_fire().
      // Probing at dispatch rather than arrival lets a tuple parked behind a
      // capacity limit hit on a result that completed while it waited — the
      // within-run dedup of repeated inputs. (Misses are counted in fire(),
      // so re-probing parked tuples never inflates the stats.)
      progress |= settle_in_place(
          state.ready, [&](const Tuple& tuple) { return try_serve_cached(state, tuple); });
    }
    while (!state.ready.empty() && can_fire(state)) {
      const std::size_t batch = target_batch(state);
      if (state.ready.size() < batch && !state.buffer->all_closed() && !loop_drained(state)) {
        break;
      }
      const std::size_t take = std::min<std::size_t>(batch, state.ready.size());
      std::vector<Tuple> tuples;
      tuples.reserve(take);
      for (std::size_t i = 0; i < take; ++i) {
        tuples.push_back(std::move(state.ready.front()));
        state.ready.pop_front();
      }
      fire(state, std::move(tuples));
      progress = true;
    }
  }
  return progress;
}

services::Inputs Engine::bind(const PState& state, const Tuple& tuple) const {
  const std::vector<std::string>& ports = state.slot_ports();
  services::Inputs binding;
  for (std::size_t i = 0; i < ports.size(); ++i) binding.emplace(ports[i], tuple.tokens[i]);
  return binding;
}

void Engine::fire(PState& state, std::vector<Tuple> tuples) {
  auto sub = std::make_shared<Submission>();
  sub->state = &state;
  sub->bindings.reserve(tuples.size());
  for (const auto& tuple : tuples) sub->bindings.push_back(bind(state, tuple));
  if (cacheable(state)) {
    sub->cache_keys.reserve(tuples.size());
    for (const auto& tuple : tuples) {
      sub->cache_keys.push_back(tuple_cache_key(state, tuple));
      // The authoritative miss count: a memoizable tuple that actually
      // executes missed exactly once, however often it was probed.
      if (!sub->cache_keys.back().empty()) cache_->note_miss(run_id_);
    }
  }
  sub->tuples = std::move(tuples);
  sub->id = next_submission_id_++;

  ++state.in_flight;
  state.fired += sub->tuples.size();
  tuples_in_flight_ += sub->tuples.size();
  if (policy_.retry.timeout_enabled()) outstanding_.push_back(sub);
  MOTEUR_LOG(kDebug, "enactor") << "fire '" << state.proc->name << "' on "
                                << sub->tuples.size() << " tuple(s)";
  if (observing()) emit(make_event(obs::RunEvent::Kind::kInvocationStarted, *sub, 0));
  start_attempt(sub);
}

void Engine::fire_barrier(PState& state) {
  // One aggregate token per input port: the whole (index-sorted) stream as
  // a std::vector<data::Token> payload. The tuple of aggregates is the
  // provenance carrier for the outputs.
  Tuple aggregates;
  for (std::size_t slot = 0; slot < state.inputs.size(); ++slot) {
    const std::string& port = state.proc->input_ports[slot];
    auto tokens = std::move(state.inputs[slot].tokens);
    // A barrier aggregates over the survivors: poisoned tokens drop out of
    // the stream here (they carry no payload to aggregate).
    tokens.erase(std::remove_if(tokens.begin(), tokens.end(),
                                [](const data::Token& t) { return t.poisoned(); }),
                 tokens.end());
    std::sort(tokens.begin(), tokens.end(),
              [](const data::Token& a, const data::Token& b) {
                return a.indices() < b.indices();
              });
    aggregates.tokens.push_back(
        tokens.empty()
            ? data::Token(std::vector<data::Token>{}, "[0 items]", data::IndexVector{},
                          data::Provenance::source(state.proc->name + "." + port + ".empty", 0))
            : data::Token::derived(state.proc->name, port + ".all", tokens,
                                   data::IndexVector{}, tokens, "[" +
                                       std::to_string(tokens.size()) + " items]"));
  }
  state.sync_fired = true;
  std::vector<Tuple> tuples;
  tuples.push_back(std::move(aggregates));
  fire(state, std::move(tuples));
}

void Engine::start_attempt(const std::shared_ptr<Submission>& sub) {
  const std::size_t attempt = ++sub->attempts_started;
  ++sub->attempts_in_flight;
  sub->attempt_started_at = backend_.now();
  ++result_.stats.submissions;
  if (observing()) emit(make_event(obs::RunEvent::Kind::kAttemptStarted, *sub, attempt));
  arm_watchdog(sub);
  // Each attempt submits a fresh copy of the bindings — except when the
  // policy allows no further attempt (no retries, hence no watchdog clones
  // either) and lineage recovery cannot resubmit after a data loss: then
  // this submission is the only reader and the copy, the dominant
  // completion-path allocation on cache-cold runs, is elided.
  auto bindings = policy_.retry.max_attempts <= 1 && !recovery_enabled()
                      ? std::move(sub->bindings)
                      : sub->bindings;
  ExecOptions exec_options;
  exec_options.matchmaking = matchmaking_;
  if (placement_ != policy::Placement::kRematch && attempt > 1) {
    exec_options.avoid_ces = policy::avoid(placement_, sub->tried_ces);
    exec_options.placement = placement_;
  }
  backend_.execute(sub->state->service, std::move(bindings), std::move(exec_options),
                   [weak = weak_from_this(), sub, attempt](Outcome outcome) {
                     // The engine may be gone by the time a straggler reports
                     // (run finished with clones still in flight, deadlock
                     // unwinding, cancellation): discard, don't touch it.
                     if (auto self = weak.lock()) {
                       self->contain([&] {
                         self->on_attempt_complete(sub, attempt, std::move(outcome));
                       });
                     }
                   });
}

bool Engine::attempts_left(const Submission& sub) const {
  return sub.attempts_started + sub.pending_resubmits < policy_.retry.max_attempts;
}

double Engine::median_latency() const {
  if (latency_samples_.empty()) return 0.0;
  // nth_element reorders, so work on a scratch copy — reused across calls so
  // the per-watchdog median stops allocating once its capacity settles.
  median_scratch_.assign(latency_samples_.begin(), latency_samples_.end());
  const std::size_t mid = median_scratch_.size() / 2;
  std::nth_element(median_scratch_.begin(),
                   median_scratch_.begin() + static_cast<std::ptrdiff_t>(mid),
                   median_scratch_.end());
  return median_scratch_[mid];
}

void Engine::arm_watchdog(const std::shared_ptr<Submission>& sub) {
  const RetryPolicy& retry = policy_.retry;
  if (!retry.timeout_enabled() || !attempts_left(*sub)) return;
  if (latency_samples_.size() < retry.timeout_min_samples) return;
  if (sub->watchdog) backend_.cancel(*sub->watchdog);
  // Deadline counts from the attempt's submission, so a late-armed watchdog
  // (the median did not exist yet at submit time) fires as soon as due.
  const double deadline = sub->attempt_started_at + retry.timeout_multiplier * median_latency();
  const double remaining = std::max(0.0, deadline - backend_.now());
  sub->watchdog = backend_.schedule(remaining, [weak = weak_from_this(), sub] {
    if (auto self = weak.lock()) self->contain([&] { self->on_watchdog(sub); });
  });
}

void Engine::arm_pending_watchdogs() {
  if (!policy_.retry.timeout_enabled() ||
      latency_samples_.size() < policy_.retry.timeout_min_samples) {
    return;
  }
  std::vector<std::weak_ptr<Submission>> live;
  live.reserve(outstanding_.size());
  for (auto& weak : outstanding_) {
    auto sub = weak.lock();
    if (!sub || sub->resolved) continue;
    if (!sub->watchdog) arm_watchdog(sub);
    live.push_back(std::move(weak));
  }
  outstanding_ = std::move(live);
}

void Engine::on_watchdog(const std::shared_ptr<Submission>& sub) {
  sub->watchdog.reset();
  if (sub->resolved || !attempts_left(*sub)) return;
  ++result_.stats.timeouts;
  MOTEUR_LOG(kInfo, "enactor")
      << "submission of '" << sub->state->proc->name << "' attempt "
      << sub->attempts_started << " exceeded the resubmission deadline; racing a clone";
  if (observing()) {
    emit(make_event(obs::RunEvent::Kind::kWatchdogFired, *sub, sub->attempts_started));
  }
  start_attempt(sub);  // re-arms the watchdog for the clone
  pump();
}

void Engine::resolve(const std::shared_ptr<Submission>& sub) {
  if (sub->watchdog) {
    backend_.cancel(*sub->watchdog);
    sub->watchdog.reset();
  }
  sub->resolved = true;
  --sub->state->in_flight;
  tuples_in_flight_ -= sub->tuples.size();
}

void Engine::resolve_failure(const std::shared_ptr<Submission>& sub, std::size_t attempt,
                             OutcomeStatus status, const std::string& error) {
  resolve(sub);
  result_.stats.failures += sub->tuples.size();
  // The unrecoverable files (kDataLost only) ride on the first lost tuple of
  // the submission, so the report counts each loss exactly once even when a
  // batched submission drops several tuples.
  for (std::size_t i = 0; i < sub->tuples.size(); ++i) {
    result_.failure_report.lost.push_back(FailureReport::LostTuple{
        sub->state->proc->name, sub->tuples[i].index, to_string(status), error,
        i == 0 ? sub->lost_files : std::vector<std::string>{}});
  }
  MOTEUR_LOG(kWarn, "enactor") << "invocation of '" << sub->state->proc->name
                               << "' failed definitively after " << sub->attempts_started
                               << " attempt(s): " << error;
  if (observing()) {
    obs::RunEvent& event = make_event(obs::RunEvent::Kind::kInvocationFailed, *sub, attempt);
    event.status = status_name(status);
    event.error = error;
    emit(event);
  }
  if (policy_.failure_policy == FailurePolicy::kContinue) {
    // The lost data continues downstream as poisoned tokens, so descendants
    // are skipped (and accounted for) instead of waiting forever.
    const auto cause = std::make_shared<const data::TokenError>(
        data::TokenError{sub->state->proc->name, error, to_string(status)});
    for (const auto& tuple : sub->tuples) {
      poison_outputs(*sub->state, tuple, cause);
    }
  }
}

bool Engine::recovery_enabled() const {
  return policy_.lineage_recovery && policy_.max_recovery_depth > 0 &&
         backend_.catalog() != nullptr;
}

void Engine::record_lineage(PState& state, const IterationBuffer::Tuple& tuple,
                            const data::DataRef& ref) {
  // First producer wins: repeats of the same content derive the same lfn, so
  // any recorded producer regenerates it.
  lineage_.emplace(ref.logical_name, Lineage{&state, tuple});
}

bool Engine::try_recover(const std::shared_ptr<Submission>& sub, std::size_t attempt,
                         const Outcome& outcome) {
  if (!recovery_enabled()) return false;
  if (outcome.lost_files.empty()) return false;
  if (sub->recovery_rounds >= policy_.max_recovery_depth) return false;
  ++sub->recovery_rounds;
  sub->recovery_failed = false;
  MOTEUR_LOG(kInfo, "enactor")
      << "invocation of '" << sub->state->proc->name << "' lost "
      << outcome.lost_files.size() << " input file(s); lineage recovery round "
      << sub->recovery_rounds << " of " << policy_.max_recovery_depth;
  const std::string error = outcome.error;
  sub->pending_recoveries += outcome.lost_files.size();
  for (const auto& lfn : outcome.lost_files) {
    recover_file(lfn, 1, [weak = weak_from_this(), sub, attempt, error](bool ok) {
      auto self = weak.lock();
      if (!self) return;
      --sub->pending_recoveries;
      if (!ok) sub->recovery_failed = true;
      if (sub->pending_recoveries > 0 || sub->resolved) return;
      if (!sub->recovery_failed) {
        // The whole ancestry is restored (or re-seedable): resubmit the
        // consumer. This does not count against the retry budget.
        self->start_attempt(sub);
      } else if (sub->attempts_in_flight == 0 && sub->pending_resubmits == 0) {
        self->resolve_failure(sub, attempt, OutcomeStatus::kDataLost, error);
      }
      self->pump();
    });
  }
  return true;
}

void Engine::recover_file(const std::string& lfn, std::size_t depth,
                          std::function<void(bool)> on_done) {
  if (depth > policy_.max_recovery_depth) {
    on_done(false);
    return;
  }
  const auto it = lineage_.find(lfn);
  if (it == lineage_.end()) {
    // Not derived by this run — a source file. The backend re-seeds source
    // replicas on every submission, so resubmitting the consumer is the
    // whole recovery.
    on_done(true);
    return;
  }
  PState& producer = *it->second.state;
  // The memoized entry references the very replicas that are gone: drop it
  // so the re-fire executes for real instead of replaying dead refs.
  if (cacheable(producer)) {
    const std::string key = tuple_cache_key(producer, it->second.tuple);
    if (!key.empty()) cache_->invalidate(key, run_id_);
  }
  auto rec = std::make_shared<Recovery>();
  rec->state = &producer;
  rec->tuple = it->second.tuple;
  rec->lfn = lfn;
  rec->depth = depth;
  rec->on_done = std::move(on_done);
  MOTEUR_LOG(kInfo, "enactor") << "re-deriving lost file " << lfn << " via producer '"
                               << producer.proc->name << "' (depth " << depth << ")";
  start_recovery(rec);
}

void Engine::start_recovery(const std::shared_ptr<Recovery>& rec) {
  // Recovery executions bypass the Submission ledger: they exist for the
  // side effect of re-registering the file's replicas (the backend registers
  // every successful job's outputs under the same derived lfns), and their
  // delivered outputs are discarded — the consumer already holds the tokens.
  ++rec->attempts;
  ++result_.stats.submissions;
  PState& state = *rec->state;
  std::vector<services::Inputs> bindings;
  bindings.push_back(bind(state, rec->tuple));
  ExecOptions exec_options;
  exec_options.matchmaking = matchmaking_;
  backend_.execute(state.service, std::move(bindings), std::move(exec_options),
                   [weak = weak_from_this(), rec](Outcome outcome) {
                     if (auto self = weak.lock()) {
                       self->contain(
                           [&] { self->on_recovery_complete(rec, std::move(outcome)); });
                     }
                   });
}

void Engine::on_recovery_complete(const std::shared_ptr<Recovery>& rec, Outcome outcome) {
  if (outcome.ok()) {
    ++result_.stats.rederived;
    MOTEUR_LOG(kInfo, "enactor") << "re-derived lost file " << rec->lfn << " via '"
                                 << rec->state->proc->name << "'";
    if (observing()) {
      obs::RunEvent& event = make_event(obs::RunEvent::Kind::kReDerived);
      event.processor = rec->state->name;
      event.logical_file = rec->lfn;
      event.status = status_name(OutcomeStatus::kOk);
      emit(event);
    }
    rec->on_done(true);
    return;
  }
  if (outcome.status == OutcomeStatus::kDataLost && !outcome.lost_files.empty() &&
      rec->depth < policy_.max_recovery_depth) {
    // The producer's own inputs are gone too: recurse up the lineage, then
    // retry this re-derivation once the whole ancestry is restored. Feedback
    // links drop content digests, so the recorded lineage is acyclic; the
    // depth bound caps the walk regardless.
    auto remaining = std::make_shared<std::size_t>(outcome.lost_files.size());
    auto failed = std::make_shared<bool>(false);
    for (const auto& lfn : outcome.lost_files) {
      recover_file(lfn, rec->depth + 1,
                   [weak = weak_from_this(), rec, remaining, failed](bool ok) {
                     auto self = weak.lock();
                     if (!self) return;
                     if (!ok) *failed = true;
                     if (--*remaining > 0) return;
                     if (*failed) {
                       rec->on_done(false);
                     } else {
                       self->start_recovery(rec);
                     }
                   });
    }
    return;
  }
  if (outcome.retryable() &&
      rec->attempts < std::max<std::size_t>(policy_.retry.max_attempts, 2)) {
    // Transient grid faults must not sink a recovery: grant at least one
    // resubmission even when the run's own retries are off.
    start_recovery(rec);
    return;
  }
  MOTEUR_LOG(kWarn, "enactor") << "re-derivation of " << rec->lfn << " failed after "
                               << rec->attempts << " attempt(s): " << outcome.error;
  rec->on_done(false);
}

void Engine::poison_outputs(PState& state, const Tuple& tuple,
                            const std::shared_ptr<const data::TokenError>& error) {
  for (std::size_t port = 0; port < state.proc->output_ports.size(); ++port) {
    // Poison stops at feedback links: recirculating it would spin the loop
    // on error markers forever.
    fan_out(state, port,
            data::Token::poisoned(state.proc->name, state.proc->output_ports[port],
                                  tuple.tokens, tuple.index, error),
            /*recirculate=*/false);
  }
}

void Engine::skip_tuple(PState& state, const Tuple& tuple) {
  std::shared_ptr<const data::TokenError> cause;
  for (const auto& token : tuple.tokens) {
    if (token.poisoned()) {
      cause = token.error();
      break;
    }
  }
  ++result_.stats.skipped;
  result_.failure_report.skipped.push_back(FailureReport::SkippedInvocation{
      state.proc->name, tuple.index, cause ? cause->processor : std::string(),
      cause ? cause->cause : std::string()});
  MOTEUR_LOG(kInfo, "enactor") << "skipping invocation of '" << state.proc->name
                               << "' on poisoned tuple " << data::to_string(tuple.index)
                               << (cause ? " (root cause at '" + cause->processor + "')"
                                         : std::string());
  settle_without_job(state, tuple, OutcomeStatus::kSkipped,
                     cause ? cause->cause : std::string());
  if (cause) poison_outputs(state, tuple, cause);
}

void Engine::settle_without_job(PState& state, const Tuple& tuple, OutcomeStatus status,
                                const std::string& error) {
  const std::uint64_t id = next_submission_id_++;
  ++state.fired;
  InvocationTrace trace;
  trace.processor = state.proc->name;
  trace.indices.push_back(tuple.index);
  const double now = backend_.now();
  trace.submit_time = now;
  trace.start_time = now;
  trace.end_time = now;
  trace.status = status;
  result_.timeline.add(std::move(trace));
  if (observing()) {
    obs::RunEvent& event = make_event(status == OutcomeStatus::kSkipped
                                          ? obs::RunEvent::Kind::kInvocationSkipped
                                          : obs::RunEvent::Kind::kCacheHit);
    event.processor = state.name;
    event.invocation = id;
    event.tuples = 1;
    event.status = status_name(status);
    event.error = error;
    emit(event);
  }
}

void Engine::on_attempt_complete(const std::shared_ptr<Submission>& sub,
                                 std::size_t attempt, Outcome outcome) {
  PState& state = *sub->state;
  --sub->attempts_in_flight;

  InvocationTrace trace;
  trace.processor = state.proc->name;
  for (const auto& tuple : sub->tuples) trace.indices.push_back(tuple.index);
  trace.submit_time = outcome.submit_time;
  trace.start_time = outcome.start_time;
  trace.end_time = outcome.end_time;
  trace.status = outcome.status;
  trace.attempt = attempt;
  trace.superseded = sub->resolved;
  trace.job = outcome.job;
  result_.timeline.add(std::move(trace));

  // Feed the health ledger every attempt outcome that names a CE —
  // stragglers included (CeHealth ignores outcomes while a breaker is open,
  // so stale completions cannot flap the state).
  if (health_ != nullptr && outcome.job) {
    health_->record(outcome.job->computing_element, outcome.ok(), backend_.now());
  }

  // Remember where the attempt landed so the placement policy can steer
  // later attempts of the same submission elsewhere.
  if (placement_ != policy::Placement::kRematch && outcome.job &&
      !outcome.job->computing_element.empty()) {
    sub->tried_ces.push_back(outcome.job->computing_element);
  }

  if (observing()) {
    // Every attempt reports, stragglers included: span consumers need the
    // real timings even when a racing clone already settled the submission.
    obs::RunEvent& event = make_event(obs::RunEvent::Kind::kAttemptEnded, *sub, attempt);
    event.ok = outcome.ok();
    event.superseded = sub->resolved;
    event.status = status_name(outcome.status);
    event.error = outcome.error;
    if (outcome.job) {
      event.computing_element = ce_name(outcome.job->computing_element);
      event.stage_in_seconds = outcome.job->input_transfer_seconds;
    }
    event.submit_time = outcome.submit_time;
    event.start_time = outcome.start_time;
    event.end_time = outcome.end_time;
    emit(event);
    if (outcome.job && outcome.job->replica_failovers > 0) {
      // Stage-in silently fell through to surviving replicas at least once:
      // surface it so operators can see degraded storage before jobs fail.
      // The failover event reuses the same object, so keep the CE first.
      const obs::Name ce = event.computing_element;
      obs::RunEvent& failover =
          make_event(obs::RunEvent::Kind::kReplicaFailover, *sub, attempt);
      failover.computing_element = ce;
      failover.count = static_cast<std::size_t>(outcome.job->replica_failovers);
      emit(failover);
    }
  }

  if (sub->resolved) {
    // A straggler outlived the clone (or the definitive loss) that settled
    // its submission: nothing to deliver.
    MOTEUR_LOG(kDebug, "enactor") << "late completion of '" << state.proc->name
                                  << "' attempt " << attempt << " discarded ("
                                  << to_string(outcome.status) << ")";
    pump();
    return;
  }

  if (outcome.ok()) {
    if (outcome.job) observed_overhead_.add(outcome.job->overhead_seconds());
    latency_samples_.push_back(outcome.end_time - outcome.submit_time);
    resolve(sub);
    arm_pending_watchdogs();
    MOTEUR_REQUIRE(outcome.results.size() == sub->tuples.size(), InternalError,
                   "backend returned " + std::to_string(outcome.results.size()) +
                       " results for " + std::to_string(sub->tuples.size()) + " bindings");
    // A grouped invocation runs every member code: count logical
    // invocations, so JG changes `submissions` but never `invocations`.
    const std::size_t codes_per_tuple =
        state.proc->is_grouped() ? state.proc->group_members.size() : 1;
    result_.stats.invocations += sub->tuples.size() * codes_per_tuple;
    if (observing()) {
      emit(make_event(obs::RunEvent::Kind::kInvocationCompleted, *sub, attempt));
    }
    const bool digesting = cacheable(state);
    const std::uint64_t service_digest = digesting ? state.service->content_digest() : 0;
    for (std::size_t i = 0; i < sub->tuples.size(); ++i) {
      const auto& tuple = sub->tuples[i];
      // Content chain: output digest = H(service, port, (input port, input
      // digest) pairs). Any undigested input breaks the chain (digest 0).
      const std::vector<data::PortDigest> inputs =
          digesting ? input_digests(state, tuple) : std::vector<data::PortDigest>{};
      const bool digested = !inputs.empty();
      const std::string* key =
          i < sub->cache_keys.size() && !sub->cache_keys[i].empty() ? &sub->cache_keys[i]
                                                                   : nullptr;
      data::CachedInvocation memo;
      for (auto& [port, value] : outcome.results[i].outputs) {
        const std::size_t position = position_of(state.proc->output_ports, port);
        if (position == kNoPort) continue;  // undeclared extra
        const std::uint64_t out_digest =
            digested ? data::derived_digest(service_digest, port, inputs) : 0;
        if (digested && key != nullptr) {
          memo.outputs.push_back(data::CachedOutput{port, value.payload, value.repr,
                                                    out_digest, value.ref});
        }
        // Lineage ledger: remember which invocation derived this file, so a
        // later total replica loss can re-fire it (before the ref moves).
        if (value.ref != nullptr && recovery_enabled()) {
          record_lineage(state, tuple, *value.ref);
        }
        // The outcome is owned by this completion and each port is visited
        // once (memo copy above happens first), so the payload, repr, and
        // DataRef move into the token instead of copying — std::any copies
        // of large payloads were the hot-path cost at ~1M invocations.
        fan_out(state, position,
                data::Token::derived(state.proc->name, port, tuple.tokens, tuple.index,
                                     std::move(value.payload), std::move(value.repr),
                                     out_digest, std::move(value.ref)));
      }
      // Only complete, successful results reach this point, so a cancelled
      // run can never leave a half-written entry behind.
      if (digested && key != nullptr) cache_->insert(*key, std::move(memo), run_id_);
    }
  } else if (outcome.status == OutcomeStatus::kDataLost) {
    // Every replica of at least one input file is gone: resubmission alone
    // re-draws the broker match but stages the same dead references, so the
    // only way forward is lineage recovery — re-derive the files, then
    // resubmit. Recovery rounds do not burn retry attempts.
    sub->lost_files = outcome.lost_files;
    if (observing()) {
      for (const auto& lfn : outcome.lost_files) {
        obs::RunEvent& event = make_event(obs::RunEvent::Kind::kReplicaLost, *sub, attempt);
        event.status = status_name(outcome.status);
        event.logical_file = lfn;
        emit(event);
      }
    }
    if (!try_recover(sub, attempt, outcome) &&
        sub->attempts_in_flight == 0 && sub->pending_resubmits == 0 &&
        sub->pending_recoveries == 0) {
      resolve_failure(sub, attempt, outcome.status, outcome.error);
    }
  } else if (outcome.status == OutcomeStatus::kDefinitive) {
    // Semantic failure: retrying cannot help, racing clones are moot.
    resolve_failure(sub, attempt, outcome.status, outcome.error);
  } else if (attempts_left(*sub)) {
    ++result_.stats.retries;
    MOTEUR_LOG(kInfo, "enactor") << "invocation of '" << state.proc->name << "' attempt "
                                 << attempt << " failed transiently (" << outcome.error
                                 << "); resubmitting";
    if (observing()) {
      obs::RunEvent& event = make_event(obs::RunEvent::Kind::kRetryScheduled, *sub, attempt);
      event.error = outcome.error;
      emit(event);
    }
    const double delay =
        policy_.retry.backoff_seconds(sub->attempts_started + sub->pending_resubmits + 1);
    if (delay <= 0.0) {
      start_attempt(sub);
    } else {
      ++sub->pending_resubmits;
      backend_.schedule(delay, [weak = weak_from_this(), sub] {
        auto self = weak.lock();
        if (!self) return;
        self->contain([&] {
          --sub->pending_resubmits;
          if (sub->resolved) return;
          self->start_attempt(sub);
          self->pump();
        });
      });
    }
  } else if (sub->attempts_in_flight > 0 || sub->pending_resubmits > 0) {
    // Attempts exhausted, but a racing clone or a scheduled resubmission may
    // still deliver; stay unresolved until the last one reports.
  } else {
    resolve_failure(sub, attempt, outcome.status, outcome.error);
  }
  pump();
}

bool Engine::closure_pass() {
  bool progress = false;
  for (PState& state : table_) {
    if (state.finished) continue;  // sources finish at emission
    if (close_inputs(state)) progress = true;
    const bool inputs_closed =
        std::all_of(state.inputs.begin(), state.inputs.end(),
                    [](const PState::Input& input) { return input.closed; });

    // Fire a synchronization barrier once its whole input is in.
    if (state.role == PState::Role::kBarrier && !state.sync_fired && inputs_closed &&
        can_fire(state)) {
      fire_barrier(state);
      progress = true;
    }

    bool done = false;
    switch (state.role) {
      case PState::Role::kSource: break;
      case PState::Role::kSink: done = inputs_closed; break;
      case PState::Role::kBarrier: done = state.sync_fired && state.in_flight == 0; break;
      case PState::Role::kService:
        done = inputs_closed && state.ready.empty() && state.in_flight == 0;
        break;
    }
    if (done) {
      set_finished(state);
      progress = true;
      MOTEUR_LOG(kDebug, "enactor") << "processor '" << state.proc->name
                                    << "' finished after " << state.fired
                                    << " invocation(s)";
      if (state.service != nullptr && observing()) {  // services and barriers
        obs::RunEvent& event = make_event(obs::RunEvent::Kind::kProcessorFinished);
        event.processor = state.name;
        event.tuples = state.fired;
        emit(event);
      }
    }
  }
  return progress;
}

void Engine::pump() {
  bool progress = true;
  while (progress) {
    progress = false;
    if (dispatch_pass()) progress = true;
    if (closure_pass()) progress = true;
  }
}

bool Engine::finished() const {
  return std::all_of(table_.begin(), table_.end(),
                     [](const PState& state) { return state.finished; });
}

std::string Engine::deadlock_error() const {
  std::vector<std::string_view> stuck;
  for (const PState& state : table_) {
    if (!state.finished) stuck.push_back(state.proc->name);
  }
  std::sort(stuck.begin(), stuck.end());
  std::string names;
  for (const std::string_view name : stuck) {
    if (!names.empty()) names += ", ";
    names += name;
  }
  return "workflow deadlocked; unfinished processors: " + names;
}

void Engine::start() {
  build_states();
  result_.started_at = backend_.now();
  if (observing()) {
    workflow_name_ = obs::Name(workflow_.name());
    obs::RunEvent& event = make_event(obs::RunEvent::Kind::kRunStarted);
    event.run = workflow_name_;
    emit(event);
  }
  emit_sources();
  pump();
}

EnactmentResult Engine::finish() {
  result_.finished_at =
      result_.timeline.invocation_count() == 0 ? backend_.now()
                                               : result_.timeline.makespan();

  // Collect sinks, sorted by iteration index. Poisoned tokens never count as
  // outputs: they are tallied in the failure report instead.
  for (PState& sink : table_) {
    if (sink.role != PState::Role::kSink) continue;
    auto tokens = std::move(sink.inputs[0].tokens);
    const auto poisoned_begin =
        std::stable_partition(tokens.begin(), tokens.end(),
                              [](const data::Token& t) { return !t.poisoned(); });
    const auto poisoned_count = static_cast<std::size_t>(tokens.end() - poisoned_begin);
    if (poisoned_count > 0) {
      result_.failure_report.poisoned_at_sink[sink.proc->name] = poisoned_count;
    }
    tokens.erase(poisoned_begin, tokens.end());
    std::sort(tokens.begin(), tokens.end(),
              [](const data::Token& a, const data::Token& b) {
                return a.indices() < b.indices();
              });
    result_.sink_outputs.emplace(sink.proc->name, std::move(tokens));
  }
  result_.executed_workflow = workflow_;
  if (observing()) {
    obs::RunEvent& event = make_event(obs::RunEvent::Kind::kRunFinished);
    event.run = workflow_name_;
    emit(event);
  }
  return std::move(result_);
}

}  // namespace moteur::enactor
