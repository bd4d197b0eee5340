// Every completion order of small loop workflows, chosen at the engine's
// backend boundary: a scripted backend holds each execution until the
// explorer completes it, and a depth-first search replays the run once per
// order. Every order must end with the run finished and the expected sink
// tokens, under each policy.
#include <gtest/gtest.h>

#include <cstddef>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "enactor/engine.hpp"
#include "scripted_backend.hpp"
#include "services/registry.hpp"
#include "test_workflows.hpp"
#include "workflow/patterns.hpp"

namespace moteur::enactor {
namespace {

using testkit::ScriptedBackend;

/// `count` items on each source named.
data::InputDataSet items(std::initializer_list<std::pair<const char*, std::size_t>> sources) {
  data::InputDataSet ds;
  for (const auto& [source, count] : sources) {
    ds.declare_input(source);
    for (std::size_t j = 0; j < count; ++j) ds.add_item(source, "item" + std::to_string(j));
  }
  return ds;
}

struct Scope {
  workflow::Workflow workflow;
  data::InputDataSet inputs;
  std::size_t sink_tokens = 0;
  int sink_value = 0;  // carried by every sink token
};

/// Replays the run once per completion order, depth first: at each step the
/// explorer picks one of the pending executions. Returns the number of
/// orders; every order must finish with the scope's sink tokens.
std::size_t explore(const Scope& scope, const EnactmentPolicy& policy) {
  services::ServiceRegistry registry;
  testkit::add_loop_services(registry);
  std::vector<std::size_t> choice;  // the execution picked at each step
  std::vector<std::size_t> width;   // how many were pending at that step
  std::size_t orders = 0;
  for (;;) {
    ScriptedBackend backend;
    const auto engine = std::make_shared<Engine>(
        backend, registry, policy, PayloadResolver{}, EventSubscriber{},
        scope.workflow, scope.inputs, Engine::Options{.run_id = scope.workflow.name()});
    engine->start();
    for (std::size_t step = 0; !backend.executions().empty(); ++step) {
      if (step == choice.size()) {
        choice.push_back(0);
        width.push_back(backend.executions().size());
      }
      backend.succeed(choice[step]);
    }
    ++orders;
    // An engine error ends the test with its own text.
    if (engine->failure() != nullptr) std::rethrow_exception(engine->failure());
    EXPECT_TRUE(backend.timers().empty());
    EXPECT_TRUE(engine->settled());
    if (!engine->finished()) {
      ADD_FAILURE() << policy.name() << " order #" << orders << ": "
                    << engine->deadlock_error();
      return orders;
    }
    const EnactmentResult result = engine->finish();
    const auto& tokens = result.sink_outputs.at("Sink");
    EXPECT_EQ(tokens.size(), scope.sink_tokens) << policy.name() << " order #" << orders;
    for (const auto& token : tokens) {
      EXPECT_EQ(token.as<int>(), scope.sink_value) << policy.name() << " order #" << orders;
    }
    if (::testing::Test::HasFailure()) return orders;
    // Backtrack to the deepest step with an untried choice.
    while (!choice.empty() && choice.back() + 1 == width.back()) {
      choice.pop_back();
      width.pop_back();
    }
    if (choice.empty()) return orders;
    ++choice.back();
  }
}

/// Orders explored under NOP, DP, SP and SP+DP, in that order.
std::vector<std::size_t> explore_policies(const Scope& scope) {
  std::vector<std::size_t> counts;
  for (const auto& policy : {EnactmentPolicy::nop(), EnactmentPolicy::dp(),
                             EnactmentPolicy::sp(), EnactmentPolicy::sp_dp()}) {
    counts.push_back(explore(scope, policy));
  }
  return counts;
}

TEST(CompletionOrders, OptimizationLoop) {
  const Scope scope{workflow::make_optimization_loop(), items({{"Source", 2}}), 2, 2};
  EXPECT_EQ(explore_policies(scope), (std::vector<std::size_t>{8, 140, 21, 252}));
}

TEST(CompletionOrders, OptimizationLoopInBatchesOfTwo) {
  // Three items in batches of 2: P1 fires a full batch and flushes the
  // third item; inside the loop a member fires its partial batch once
  // nothing of the loop is in flight and P1 has finished.
  const Scope scope{workflow::make_optimization_loop(), items({{"Source", 3}}), 3, 2};
  std::vector<std::size_t> counts;
  for (EnactmentPolicy policy : {EnactmentPolicy::dp(), EnactmentPolicy::sp_dp()}) {
    policy.batch_size = 2;
    counts.push_back(explore(scope, policy));
  }
  EXPECT_EQ(counts, (std::vector<std::size_t>{8, 14}));
}

TEST(CompletionOrders, LoopsJoinedDirectly) {
  const Scope scope{testkit::loops_in_series(/*barrier=*/false), items({{"Source", 2}}), 2,
                    3};
  EXPECT_EQ(explore_policies(scope), (std::vector<std::size_t>{16, 840, 207, 3432}));
}

TEST(CompletionOrders, LoopFedByABarrier) {
  const Scope scope{testkit::loop_fed_by_barrier(), items({{"S0", 2}, {"S2", 1}}), 1, 2};
  EXPECT_EQ(explore_policies(scope), (std::vector<std::size_t>{96, 1680, 252, 3024}));
}

TEST(CompletionOrders, ARunWaitingForItsBackoffHasNotSettled) {
  // A transient failure keeps its submission unresolved until the backoff
  // timer resubmits it, so a driver keeps driving the run meanwhile.
  services::ServiceRegistry registry;
  testkit::add_loop_services(registry);
  EnactmentPolicy policy = EnactmentPolicy::sp_dp();
  policy.retry.max_attempts = 2;
  policy.retry.backoff_initial_seconds = 1.0;
  ScriptedBackend backend;
  const auto engine = std::make_shared<Engine>(
      backend, registry, policy, PayloadResolver{}, EventSubscriber{},
      workflow::make_optimization_loop(), items({{"Source", 1}}),
      Engine::Options{.run_id = "backoff"});
  engine->start();
  ASSERT_EQ(backend.executions().size(), 1u);  // P1
  backend.complete(0, Outcome::failure(OutcomeStatus::kTransient, "site down"));
  EXPECT_TRUE(backend.executions().empty());
  ASSERT_EQ(backend.timers().size(), 1u);
  EXPECT_FALSE(engine->settled());
  backend.fire(0);
  while (!backend.executions().empty()) backend.succeed(0);
  ASSERT_TRUE(engine->finished());
  const EnactmentResult result = engine->finish();
  EXPECT_EQ(result.retries(), 1u);
  ASSERT_EQ(result.sink_outputs.at("Sink").size(), 1u);
  EXPECT_EQ(result.sink_outputs.at("Sink")[0].as<int>(), 2);
}

}  // namespace
}  // namespace moteur::enactor
