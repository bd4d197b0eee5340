#include "enactor/enactor.hpp"

#include <memory>
#include <utility>

#include "enactor/engine.hpp"
#include "obs/recorder.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace moteur::enactor {

Enactor::Enactor(ExecutionBackend& backend, services::ServiceRegistry& registry,
                 EnactmentPolicy policy)
    : backend_(backend), registry_(registry), policy_(policy) {}

Enactor::~Enactor() = default;

EnactmentResult Enactor::run(const RunRequest& request) {
  // Assemble this run's subscriber set: explicit subscribers, then the
  // recorder — all fed from one stream.
  std::vector<EventSubscriber> subscribers = subscribers_;
  if (recorder_ != nullptr) {
    subscribers.push_back(
        [recorder = recorder_](const obs::RunEvent& e) { recorder->on_event(e); });
  }

  // Service-scope backend events (SE→SE transfers) feed the same stream as
  // run events for the duration of this run; detached before returning.
  auto sink_subscribers = std::make_shared<std::vector<EventSubscriber>>(subscribers);
  backend_.set_event_sink([sink_subscribers](const obs::RunEvent& e) {
    for (const auto& subscriber : *sink_subscribers) subscriber(e);
  });

  const EnactmentPolicy& effective = request.policy ? *request.policy : policy_;
  Engine::Options options;
  options.run_id = request.name.empty() ? request.workflow.name() : request.name;
  if (effective.cache) {
    // The memoization store outlives the run: sequential runs through one
    // enactor share it, so content-identical repeats hit.
    if (!cache_) cache_ = std::make_unique<data::InvocationCache>();
    options.cache = cache_.get();
  }

  std::shared_ptr<Engine> engine;
  try {
    // Engines hold shared ownership internally: every callback handed to the
    // backend guards a weak_ptr, so stragglers completing after this run
    // cannot touch a dead engine (see engine.hpp).
    engine = std::make_shared<Engine>(backend_, registry_, effective, request.resolver,
                                      std::move(subscribers), request.workflow,
                                      request.inputs, std::move(options));
    engine->start();
    while (!engine->finished()) {
      const bool reached = backend_.drive([&engine] { return engine->finished(); });
      if (reached) break;
      if (!engine->try_unstall() && !engine->finished()) {
        throw EnactmentError("workflow deadlocked; unfinished processors: " +
                             engine->stuck_processors());
      }
    }
  } catch (...) {
    backend_.set_event_sink(nullptr);
    throw;
  }
  backend_.set_event_sink(nullptr);

  EnactmentResult result = engine->finish();
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
