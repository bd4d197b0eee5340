// An ExecutionBackend that does nothing by itself: every execution and timer
// stays pending until the test completes or fires it, in the order and with
// the outcome the test picks.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "enactor/backend.hpp"
#include "services/service.hpp"

namespace moteur::testkit {

class ScriptedBackend final : public enactor::ExecutionBackend {
 public:
  struct Execution {
    std::shared_ptr<services::Service> service;
    std::vector<services::Inputs> bindings;
    Callback on_complete;
  };
  struct Timer {
    TimerId id = 0;
    std::function<void()> fn;
  };

  /// Room for `capacity` executions is reserved up front, so recording that
  /// many allocates nothing.
  explicit ScriptedBackend(std::size_t capacity = 0) { executions_.reserve(capacity); }

  using enactor::ExecutionBackend::execute;
  void execute(std::shared_ptr<services::Service> service,
               std::vector<services::Inputs> bindings, Callback on_complete) override {
    executions_.push_back({std::move(service), std::move(bindings), std::move(on_complete)});
  }
  double now() const override { return 0.0; }
  TimerId schedule(double, std::function<void()> fn) override {
    timers_.push_back({++last_timer_, std::move(fn)});
    return last_timer_;
  }
  void cancel(TimerId id) override {
    std::erase_if(timers_, [id](const Timer& timer) { return timer.id == id; });
  }
  /// Dispatches nothing: a run waiting on this backend has stalled unless
  /// done() already holds.
  bool drive(const std::function<bool()>& done) override { return done(); }

  /// Pending executions, oldest first.
  const std::vector<Execution>& executions() const { return executions_; }
  /// Live timers, oldest first.
  const std::vector<Timer>& timers() const { return timers_; }

  /// Complete pending execution `i` with `outcome`.
  void complete(std::size_t i, enactor::Outcome outcome) {
    Execution execution = std::move(executions_.at(i));
    executions_.erase(executions_.begin() + static_cast<std::ptrdiff_t>(i));
    execution.on_complete(std::move(outcome));
  }
  /// Complete pending execution `i` with the service body's result for each
  /// of its bindings.
  void succeed(std::size_t i) {
    const Execution& execution = executions_.at(i);
    std::vector<services::Result> results;
    for (const auto& binding : execution.bindings) {
      results.push_back(execution.service->invoke(binding));
    }
    complete(i, enactor::Outcome::success(std::move(results)));
  }
  /// Fire live timer `i`.
  void fire(std::size_t i) {
    std::function<void()> fn = std::move(timers_.at(i).fn);
    timers_.erase(timers_.begin() + static_cast<std::ptrdiff_t>(i));
    fn();
  }

 private:
  std::vector<Execution> executions_;
  std::vector<Timer> timers_;
  TimerId last_timer_ = 0;
};

}  // namespace moteur::testkit
