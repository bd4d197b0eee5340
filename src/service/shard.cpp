#include "service/shard.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace moteur::service {

using detail::RunRecord;
using detail::ServiceCore;

namespace {

/// The error a run whose engine failed with `failure` retires with.
std::string failure_text(const std::exception_ptr& failure) {
  try {
    std::rethrow_exception(failure);
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown error";
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// ServiceCore
// ---------------------------------------------------------------------------

namespace detail {

void ServiceCore::ensure_instruments() {
  if (recorder == nullptr || instruments_ready) return;
  instruments_ready = true;
  obs::MetricsRegistry& m = recorder->metrics();
  active_gauge = &m.gauge("moteur_service_active_runs", "Runs currently enacting");
  queued_gauge = &m.gauge("moteur_service_queued_runs",
                          "Runs admitted to the service but waiting for an active slot");
  gate_depth = &m.gauge("moteur_service_gate_queue_depth",
                        "Submissions queued in the admission gates across all runs");
  admission_wait = &m.histogram(
      "moteur_service_admission_wait_seconds",
      "Backend-time a run waited in the service queue before starting",
      obs::Histogram::latency_bounds());
  gate_wait = &m.histogram(
      "moteur_service_gate_wait_seconds",
      "Backend-time a submission waited in the admission gate before launch",
      obs::Histogram::latency_bounds());
  admission_decisions =
      &m.counter("moteur_policy_decisions_total",
                 "Policy decisions by policy name and decision kind",
                 {{"policy", config.admission.policy}, {"kind", "admission"}});
}

grid::CeHealth* ServiceCore::ensure_health(const enactor::EnactmentPolicy& policy) {
  std::lock_guard<std::mutex> lock(lazy_mu);
  if (shared_health == nullptr && policy.breaker.enabled) {
    shared_health = std::make_unique<grid::CeHealth>(policy.breaker);
    shared_health->set_transition_listener(
        [this](const grid::CeHealth::Transition& t) { on_breaker_transition(t); });
    shared_health->set_reroute_listener([this](double time) {
      obs::RunEvent event;
      event.kind = obs::RunEvent::Kind::kSubmissionRerouted;
      event.time = time;
      deliver(event);
    });
    backend.add_health(shared_health.get());
  }
  return shared_health.get();
}

data::InvocationCache* ServiceCore::ensure_cache(const enactor::EnactmentPolicy& policy) {
  std::lock_guard<std::mutex> lock(lazy_mu);
  if (shared_cache == nullptr && policy.cache) {
    shared_cache = std::make_unique<data::InvocationCache>();
  }
  return shared_cache.get();
}

void ServiceCore::deliver(const obs::RunEvent& event) {
  std::lock_guard<std::mutex> lock(obs_mu);
  for (const auto& subscriber : subscribers) subscriber(event);
  if (recorder != nullptr) recorder->on_event(event);
}

void ServiceCore::deliver(const std::vector<obs::RunEvent>& batch) {
  std::lock_guard<std::mutex> lock(obs_mu);
  for (const auto& event : batch) {
    for (const auto& subscriber : subscribers) subscriber(event);
    if (recorder != nullptr) recorder->on_event(event);
  }
}

void ServiceCore::on_breaker_transition(const grid::CeHealth::Transition& t) {
  {
    std::lock_guard<std::mutex> lock(live_mu);
    for (const auto& [id, rec] : live) {
      std::lock_guard<std::mutex> rec_lock(rec->mu);
      if (rec->state == RunState::kRunning) {
        rec->breaker_transitions.push_back(enactor::breaker_row(t));
      }
    }
  }
  deliver(enactor::breaker_event(t));
}

void ServiceCore::count_terminal(RunState state) {
  if (recorder == nullptr) return;
  std::lock_guard<std::mutex> lock(obs_mu);
  obs::Counter*& counter = terminal_counters[static_cast<std::size_t>(state)];
  if (counter == nullptr) {
    counter = &recorder->metrics().counter("moteur_service_runs_total",
                                           "Runs reaching a terminal state, by state",
                                           obs::Labels{{"state", to_string(state)}});
  }
  counter->inc();
}

void ServiceCore::run_finished(std::shared_ptr<RunRecord> rec) {
  {
    std::lock_guard<std::mutex> lock(live_mu);
    live.erase(rec->id);
    rec.reset();  // under the lock: freed before wait_idle can return
  }
  idle_cv.notify_all();
  terminal_cv.notify_all();
}

}  // namespace detail

// ---------------------------------------------------------------------------
// EngineShard
// ---------------------------------------------------------------------------

EngineShard::EngineShard(std::size_t index, ServiceCore& core,
                         std::unique_ptr<enactor::ExecutionBackend> channel,
                         std::size_t max_active, std::size_t obs_batch)
    : index_(index),
      core_(core),
      channel_(std::move(channel)),
      max_active_(max_active),
      obs_batch_(obs_batch == 0 ? 1 : obs_batch) {
  if (!core_.config.telemetry.flight_recorder_path.empty()) {
    flight_ = std::make_unique<obs::FlightRecorder>(
        std::max<std::size_t>(1, core_.config.telemetry.flight_recorder_events));
  }
  AdmissionGate::Config gate_config;
  const std::size_t shards = core_.config.sharding.shards;
  const std::size_t total_inflight = core_.config.admission.max_inflight;
  // Even slice of the service-wide in-flight cap, at least 1 per shard;
  // 0 stays 0 (unbounded).
  gate_config.max_inflight =
      total_inflight == 0 ? 0 : std::max<std::size_t>(1, total_inflight / std::max<std::size_t>(1, shards));
  gate_config.policy = core_.config.admission.policy;
  gate_ = std::make_shared<AdmissionGate>(backend(), gate_config);
  gate_->set_grant_observer([this](double waited) {
    if (core_.recorder == nullptr) return;
    std::lock_guard<std::mutex> lock(core_.obs_mu);
    if (core_.gate_wait != nullptr) core_.gate_wait->observe(waited);
    if (core_.admission_decisions != nullptr) core_.admission_decisions->inc();
  });
  if (obs_batch_ > 1) batch_.reserve(obs_batch_);
}

EngineShard::~EngineShard() { join(); }

void EngineShard::start() {
  thread_ = std::thread([this] { run_worker(); });
}

void EngineShard::enqueue(std::vector<RunRecordPtr> batch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    load_.fetch_add(batch.size(), std::memory_order_relaxed);
    for (auto& rec : batch) pending_.push_back(std::move(rec));
    commands_ = true;
  }
  cv_.notify_all();
  backend().notify();
}

void EngineShard::wake() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    commands_ = true;
  }
  cv_.notify_all();
  backend().notify();
}

void EngineShard::request_stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    commands_ = true;
  }
  cv_.notify_all();
  backend().notify();
}

void EngineShard::join() {
  if (thread_.joinable()) thread_.join();
}

ShardStats EngineShard::stats() const {
  ShardStats s;
  s.shard = index_;
  std::lock_guard<std::mutex> lock(stats_mu_);
  s.runs = runs_done_;
  s.invocations = invocations_done_;
  return s;
}

void EngineShard::obs_emit(const obs::RunEvent& event) {
  if (flight_ != nullptr) flight_->record(event);
  if (obs_batch_ == 1) {
    core_.deliver(event);
    return;
  }
  batch_.push_back(event);
  if (batch_.size() >= obs_batch_) obs_flush();
}

void EngineShard::obs_flush() {
  if (batch_.empty()) return;
  core_.deliver(batch_);
  batch_.clear();
}

void EngineShard::ensure_shard_instruments() {
  if (core_.recorder == nullptr || shard_runs_ != nullptr) return;
  obs::MetricsRegistry& m = core_.recorder->metrics();
  const obs::Labels by_shard{{"shard", std::to_string(index_)}};
  shard_runs_ = &m.counter("moteur_shard_runs_total",
                           "Runs retired to a terminal state, per engine shard", by_shard);
  shard_invocations_ = &m.counter("moteur_shard_invocations_total",
                                  "Logical invocations completed, per engine shard", by_shard);
  shard_active_ =
      &m.gauge("moteur_shard_active_runs", "Runs currently enacting, per engine shard",
               by_shard);
  shard_queue_ = &m.gauge("moteur_shard_queued_runs",
                          "Runs pinned to the shard awaiting an active slot", by_shard);
}

void EngineShard::update_gauges(std::size_t active, std::size_t queued) {
  const long gate_depth = static_cast<long>(gate_->queued());
  const long d_active = static_cast<long>(active) - last_active_;
  const long d_queued = static_cast<long>(queued) - last_queued_;
  const long d_gate = gate_depth - last_gate_depth_;
  last_active_ = static_cast<long>(active);
  last_queued_ = static_cast<long>(queued);
  last_gate_depth_ = gate_depth;
  active_now_.store(last_active_, std::memory_order_relaxed);
  queued_now_.store(last_queued_, std::memory_order_relaxed);
  if (d_active != 0) core_.active_total.fetch_add(d_active, std::memory_order_relaxed);
  if (d_queued != 0) core_.queued_total.fetch_add(d_queued, std::memory_order_relaxed);
  if (d_gate != 0) core_.gate_depth_total.fetch_add(d_gate, std::memory_order_relaxed);
  if (core_.recorder == nullptr) return;
  std::lock_guard<std::mutex> lock(core_.obs_mu);
  if (core_.active_gauge != nullptr) {
    core_.active_gauge->set(static_cast<double>(core_.active_total.load()));
  }
  if (core_.queued_gauge != nullptr) {
    core_.queued_gauge->set(static_cast<double>(core_.queued_total.load()));
  }
  if (core_.gate_depth != nullptr) {
    core_.gate_depth->set(static_cast<double>(core_.gate_depth_total.load()));
  }
  if (shard_active_ != nullptr) shard_active_->set(static_cast<double>(active));
  if (shard_queue_ != nullptr) shard_queue_->set(static_cast<double>(queued));
}

void EngineShard::finish_record(RunRecordPtr rec, RunState state,
                                enactor::EnactmentResult result, std::string error) {
  obs_flush();  // the run's remaining events must precede its terminal state
  rec->request = {};
  // Dump for every abnormal outcome: explicit failure/cancellation, and runs
  // that retired kFinished but recorded failed invocations (failfast stops the
  // enactment yet the engine still completes, so the state alone misses them).
  if (flight_ != nullptr &&
      (state == RunState::kFailed || state == RunState::kCancelled ||
       result.failures() != 0)) {
    const std::string path =
        core_.config.telemetry.flight_recorder_path + rec->id + ".json";
    std::ofstream dump(path, std::ios::trunc);
    if (dump.is_open()) {
      dump << flight_->dump_json(rec->id, to_string(state), error);
      MOTEUR_LOG(kInfo, "service")
          << "flight recorder dumped " << flight_->window().size() << " event(s) to '"
          << path << "' for run '" << rec->id << "'";
    } else {
      MOTEUR_LOG(kWarn, "service") << "cannot write flight-recorder dump '" << path << "'";
    }
  }
  const std::uint64_t invocations = result.invocations();
  {
    std::lock_guard<std::mutex> lock(rec->mu);
    rec->state = state;
    rec->result = std::move(result);
    rec->error = std::move(error);
    rec->poke = nullptr;
  }
  rec->cv.notify_all();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++runs_done_;
    invocations_done_ += invocations;
  }
  core_.count_terminal(state);
  if (core_.recorder != nullptr) {
    std::lock_guard<std::mutex> lock(core_.obs_mu);
    if (shard_runs_ != nullptr) shard_runs_->inc();
    if (shard_invocations_ != nullptr) {
      shard_invocations_->inc(static_cast<double>(invocations));
    }
  }
  load_.fetch_sub(1, std::memory_order_relaxed);
  core_.run_finished(std::move(rec));
}

bool EngineShard::admit(RunRecordPtr& rec) {
  if (core_.recorder != nullptr) {
    std::lock_guard<std::mutex> lock(core_.obs_mu);
    core_.ensure_instruments();
    ensure_shard_instruments();
  }
  const enactor::EnactmentPolicy& policy = core_.effective_policy(*rec);
  grid::CeHealth* health = core_.ensure_health(policy);
  data::InvocationCache* cache = core_.ensure_cache(policy);
  double waited = 0.0;
  if (rec->queued_backend_at >= 0.0) {
    waited = backend().now() - rec->queued_backend_at;
    if (core_.recorder != nullptr) {
      std::lock_guard<std::mutex> lock(core_.obs_mu);
      if (core_.admission_wait != nullptr) core_.admission_wait->observe(waited);
    }
  }
  {
    std::lock_guard<std::mutex> lock(rec->mu);
    rec->admission_wait = waited;
    // Running from here: the shared-ledger transitions its start causes are
    // its own.
    rec->state = RunState::kRunning;
  }
  enactor::EventSubscriber subscriber;
  // The flight recorder needs the event stream even with no recorder or
  // subscriber attached (delivery is then a cheap no-op).
  if (!core_.subscribers.empty() || core_.recorder != nullptr || flight_ != nullptr) {
    subscriber = [this](const obs::RunEvent& e) { obs_emit(e); };
  }
  enactor::Engine::Options options;
  options.run_id = rec->id;
  options.health = health;
  if (policy.cache) options.cache = cache;
  rec->gated = gate_->open(rec->request.weight);
  try {
    rec->engine = std::make_shared<enactor::Engine>(
        *rec->gated, core_.registry, policy, rec->request.resolver, std::move(subscriber),
        rec->request.workflow, rec->request.inputs, std::move(options));
    rec->engine->start();
  } catch (const Error& e) {
    // Construction/start failures (unknown policy name, invalid workflow,
    // binding mismatch). start() may have pushed submissions into the gate
    // already: flush them (the engine's weak-guarded callbacks discard the
    // deliveries).
    rec->engine.reset();
    rec->gated->cancel();
    rec->gated.reset();
    finish_record(std::move(rec), RunState::kFailed, {}, e.what());
    return false;
  }
  MOTEUR_LOG(kInfo, "service") << "run '" << rec->id << "' started (workflow '"
                               << rec->request.workflow.name() << "') on shard " << index_;
  return true;
}

void EngineShard::retire(RunRecordPtr rec, RunState state, std::string error) {
  enactor::EnactmentResult result = rec->engine->finish();
  rec->engine.reset();
  rec->gated->cancel();  // flush any leftovers (no-op when drained)
  rec->gated.reset();
  {
    std::lock_guard<std::mutex> lock(rec->mu);
    for (auto& transition : rec->breaker_transitions) {
      result.timeline.add_breaker(std::move(transition));
    }
  }
  MOTEUR_LOG(kInfo, "service") << "run '" << rec->id << "' " << to_string(state)
                               << " makespan=" << result.makespan()
                               << "s invocations=" << result.invocations()
                               << " failures=" << result.failures();
  finish_record(std::move(rec), state, std::move(result), std::move(error));
}

void EngineShard::run_worker() {
  std::vector<RunRecordPtr> active;
  for (;;) {
    // Nothing lingers in the obs batch while the shard blocks.
    obs_flush();

    // --- Intake: wait for work, then admit up to the active-run slice.
    std::deque<RunRecordPtr> snapshot;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] {
        return stop_ || commands_.load() || !pending_.empty() || !active.empty();
      });
      commands_ = false;
      if (stop_ && pending_.empty() && active.empty()) return;
      snapshot.swap(pending_);
    }
    // Outside mu_ (lock order: a canceller holds rec->mu before taking mu_,
    // so the worker must never nest them the other way).
    std::deque<RunRecordPtr> keep;
    for (auto& rec : snapshot) {
      bool cancelled = false;
      {
        std::lock_guard<std::mutex> lock(rec->mu);
        cancelled = rec->cancel_requested;
      }
      if (cancelled) {
        finish_record(std::move(rec), RunState::kCancelled, {}, "cancelled before start");
      } else if (active.size() < max_active_) {
        if (admit(rec)) active.push_back(std::move(rec));
      } else {
        if (rec->queued_backend_at < 0.0) rec->queued_backend_at = backend().now();
        keep.push_back(std::move(rec));
      }
    }
    std::size_t queued_count = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.insert(pending_.begin(), keep.begin(), keep.end());
      queued_count = pending_.size();
    }
    update_gauges(active.size(), queued_count);
    if (active.empty()) {
      core_.idle_cv.notify_all();  // belt-and-braces; waiters re-check live
      continue;
    }

    // --- Drive this shard's event loop until a run settles or a command
    // (submit/cancel/shutdown) needs servicing. A stall settles every run:
    // the backend has no work left for any of them.
    const bool stalled = !backend().drive([&] {
      if (commands_.load(std::memory_order_relaxed)) return true;
      for (const auto& rec : active) {
        if (rec->engine->settled()) return true;
      }
      return false;
    });
    update_gauges(active.size(), queued_count);

    // --- Harvest every settled run, deadlocked if unfinished. The post-harvest
    // occupancy is published BEFORE retiring: retire() completes the run's
    // handle, after which a waiter may read the registry the moment wait()
    // returns, so the gauge write must happen-before that completion —
    // otherwise the active-run gauges (and telemetry frames) would keep
    // showing retired runs until the next submission wakes the shard.
    std::vector<RunRecordPtr> done;
    for (auto it = active.begin(); it != active.end();) {
      if (stalled || (*it)->engine->settled()) {
        done.push_back(*it);
        it = active.erase(it);
      } else {
        ++it;
      }
    }
    if (!done.empty()) update_gauges(active.size(), queued_count);
    for (auto& rec : done) {
      RunState state = RunState::kFinished;
      std::string error;
      if (rec->engine->failure() != nullptr) {
        state = RunState::kFailed;
        error = failure_text(rec->engine->failure());
      } else if (!rec->engine->finished()) {
        state = RunState::kFailed;
        error = rec->engine->deadlock_error();
      } else {
        std::lock_guard<std::mutex> lock(rec->mu);
        if (rec->cancel_requested) state = RunState::kCancelled;
      }
      retire(std::move(rec), state, std::move(error));
    }

    // --- Deliver cancellations into still-active runs exactly once.
    for (const auto& rec : active) {
      if (rec->cancel_applied) continue;
      bool wanted = false;
      {
        std::lock_guard<std::mutex> lock(rec->mu);
        wanted = rec->cancel_requested;
      }
      if (wanted) {
        rec->gated->cancel();
        rec->cancel_applied = true;
      }
    }
  }
}

}  // namespace moteur::service
