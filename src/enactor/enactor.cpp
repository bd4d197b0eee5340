#include "enactor/enactor.hpp"

#include <exception>
#include <memory>
#include <utility>

#include "enactor/engine.hpp"
#include "obs/recorder.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace moteur::enactor {

obs::RunEvent breaker_event(const grid::CeHealth::Transition& t) {
  obs::RunEvent event;
  switch (t.to) {
    case grid::BreakerState::kOpen:
      event.kind = obs::RunEvent::Kind::kBreakerOpened;
      break;
    case grid::BreakerState::kHalfOpen:
      event.kind = obs::RunEvent::Kind::kBreakerHalfOpen;
      break;
    case grid::BreakerState::kClosed:
      event.kind = obs::RunEvent::Kind::kBreakerClosed;
      break;
  }
  event.time = t.time;
  // Breaker transitions are rare control events: the CE is interned here.
  event.computing_element = obs::Name(t.computing_element);
  return event;
}

Enactor::Enactor(ExecutionBackend& backend, services::ServiceRegistry& registry,
                 EnactmentPolicy policy)
    : backend_(backend), registry_(registry), policy_(policy) {}

Enactor::~Enactor() = default;

EnactmentResult Enactor::run(const RunRequest& request) {
  // One subscriber list per run, built once: explicit subscribers, then the
  // recorder. The engine, the backend sink (SE→SE transfers) and the ledger
  // listeners all publish through it.
  auto subscribers = std::make_shared<std::vector<EventSubscriber>>(subscribers_);
  if (recorder_ != nullptr) {
    subscribers->push_back(
        [recorder = recorder_](const obs::RunEvent& e) { recorder->on_event(e); });
  }
  const bool observed = !subscribers->empty();
  const auto publish = [subscribers](const obs::RunEvent& e) {
    for (const auto& subscriber : *subscribers) subscriber(e);
  };

  const EnactmentPolicy& effective = request.policy ? *request.policy : policy_;
  Engine::Options options;
  options.run_id = request.name.empty() ? request.workflow.name() : request.name;
  if (effective.cache) {
    // The memoization store outlives the run: sequential runs through one
    // enactor share it, so content-identical repeats hit.
    if (!cache_) cache_ = std::make_unique<data::InvocationCache>();
    options.cache = cache_.get();
  }

  // With breakers on, every run gets a fresh ledger of its own: routing
  // consults it while the run drives, and its transitions land in the
  // result's timeline and the event stream.
  std::vector<BreakerTransitionTrace> transitions;
  std::unique_ptr<grid::CeHealth> health;
  if (effective.breaker.enabled) {
    health = std::make_unique<grid::CeHealth>(effective.breaker);
    health->set_transition_listener([&transitions, publish, run_id = options.run_id](
                                        const grid::CeHealth::Transition& t) {
      transitions.push_back(breaker_row(t));
      obs::RunEvent event = breaker_event(t);
      event.run_id = run_id;
      publish(event);
    });
    health->set_reroute_listener([publish, run_id = options.run_id](double time) {
      obs::RunEvent event;
      event.kind = obs::RunEvent::Kind::kSubmissionRerouted;
      event.time = time;
      event.run_id = run_id;
      publish(event);
    });
    options.health = health.get();
  }

  // Engines hold shared ownership internally: every callback handed to the
  // backend guards a weak_ptr, so stragglers completing after this run
  // cannot touch a dead engine (see engine.hpp).
  const auto engine = std::make_shared<Engine>(
      backend_, registry_, effective, request.resolver,
      observed ? EventSubscriber(publish) : EventSubscriber{}, request.workflow,
      request.inputs, std::move(options));
  // The sink and the ledger are the run's only while it drives: both are
  // detached on every exit path, the deadlock throw included. With nobody
  // reading events, no sink is installed, so the backend builds none.
  if (observed) backend_.set_event_sink(publish);
  if (health != nullptr) backend_.add_health(health.get());
  const auto detach = [&] {
    if (health != nullptr) backend_.remove_health(health.get());
    backend_.set_event_sink(nullptr);
  };
  try {
    engine->start();
    backend_.drive([&engine] { return engine->settled(); });
    if (engine->failure() != nullptr) std::rethrow_exception(engine->failure());
    if (!engine->finished()) throw EnactmentError(engine->deadlock_error());
  } catch (...) {
    detach();
    throw;
  }
  detach();

  EnactmentResult result = engine->finish();
  for (auto& transition : transitions) result.timeline.add_breaker(std::move(transition));
  MOTEUR_LOG(kInfo, "enactor") << "run '" << request.workflow.name() << "' policy="
                               << effective.name()
                               << " makespan=" << result.makespan()
                               << "s invocations=" << result.invocations()
                               << " submissions=" << result.submissions()
                               << " retries=" << result.retries()
                               << " timeouts=" << result.timeouts()
                               << " failures=" << result.failures()
                               << " skipped=" << result.skipped()
                               << " cache_hits=" << result.cache_hits();
  return result;
}

}  // namespace moteur::enactor
