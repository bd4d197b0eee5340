// Deterministic allocation budgets. Wall time is noisy; heap allocation
// counts of single-threaded work are not, so these budgets fail tier-1 when
// a change puts the allocator back on the per-token or per-invocation path.
// Each budget is the count measured when it was set; a failure prints the
// measured count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "app/bronze_standard.hpp"
#include "data/token.hpp"
#include "enactor/enactor.hpp"
#include "enactor/engine.hpp"
#include "enactor/sim_backend.hpp"
#include "grid/computing_element.hpp"
#include "grid/grid.hpp"
#include "grid/overhead_model.hpp"
#include "grid/resource_broker.hpp"
#include "obs/recorder.hpp"
#include "scripted_backend.hpp"
#include "service/admission.hpp"
#include "services/functional_service.hpp"
#include "services/wrapper_service.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workflow/grouping.hpp"
#include "workflow/iteration_tree.hpp"
#include "workflow/patterns.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace moteur {
namespace {

/// Heap allocations made by `work`, on this thread or any other.
template <typename Work>
std::size_t allocations_in(Work&& work) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  work();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// A Bronze-sized grid file name: long enough to live on the heap in a
// std::string and in a std::any.
const std::string kGridFile =
    "gfn://grid/bronze/patient07/pair0042/reference_0001.hdr";

TEST(AllocBudget, TokenCopyAllocatesNothing) {
  ASSERT_EQ(kGridFile.size(), 55u);
  const data::Token token = data::Token::from_source("ref", 42, kGridFile, kGridFile);
  std::vector<data::Token> copies;
  copies.reserve(4);
  const std::size_t measured = allocations_in([&] {
    for (int i = 0; i < 4; ++i) copies.push_back(token);
  });
  EXPECT_EQ(measured, 0u) << "measured " << measured << " allocations for 4 token copies";
  EXPECT_EQ(copies.back().repr(), kGridFile);
  EXPECT_EQ(copies.back().as<std::string>(), kGridFile);
}

TEST(AllocBudget, DerivedTokenCostsTwoAllocations) {
  // Deriving a token makes its shared body and its provenance node, whose
  // control block and parents live in the same block; the one-entry index
  // lives in the body. The key is rendered only when first asked for: the
  // first id() call makes the key string, too long for a string's inline
  // buffer.
  constexpr std::size_t kBudget = 2;
  const data::Token a = data::Token::from_source("A", 0, 1, "1");
  const data::Token b = data::Token::from_source("B", 1, 2, "2");
  const std::vector<data::Token> one_parent{a};
  const std::vector<data::Token> two_parents{a, b};
  for (const auto* inputs : {&one_parent, &two_parents}) {
    data::Token token;
    const std::size_t measured = allocations_in([&] {
      token = data::Token::derived("register", "out", *inputs, data::IndexVector{0}, 3, "3");
    });
    EXPECT_EQ(measured, kBudget) << "measured " << measured << " allocations for a token of "
                                 << inputs->size() << " parent(s)";
    std::size_t key_length = 0;
    const std::size_t rendering = allocations_in([&] { key_length = token.id().size(); });
    EXPECT_EQ(rendering, 1u) << "the key was rendered before it was asked for";
    EXPECT_GT(key_length, std::string().capacity());
  }
  EXPECT_EQ(data::Token::derived("register", "out", two_parents, {0}, 3, "3").id(),
            "register.out(A[0],B[1])");
}

TEST(AllocBudget, OnePortBufferPushAndDrain) {
  // The engine's buffer for a one-port service: each token is its own tuple.
  constexpr std::size_t kTokens = 100;
  // One per token (the tuple's token vector; its index lives inline), plus
  // four vectors that grow once. 204 while an index was a std::vector.
  constexpr std::size_t kBudgetPerHundredTokens = 104;
  std::vector<data::Token> tokens;
  for (std::size_t i = 0; i < kTokens; ++i) {
    tokens.push_back(data::Token::from_source("src", i, kGridFile, kGridFile));
  }
  workflow::CompositeIterationBuffer buffer(
      workflow::IterationNode::dot({workflow::IterationNode::leaf("in")}));
  std::vector<workflow::CompositeIterationBuffer::Tuple> ready;
  std::size_t fired = 0;
  const std::size_t measured = allocations_in([&] {
    for (auto& token : tokens) {
      buffer.push("in", std::move(token));
      buffer.drain_ready_into(ready);
      fired += ready.size();
      ready.clear();
    }
  });
  EXPECT_EQ(fired, kTokens);
  EXPECT_LE(measured, kBudgetPerHundredTokens)
      << "measured " << measured << " allocations for " << kTokens
      << " tokens pushed and drained one at a time";
}

/// Schedules a chain of events, each capturing `[this, shared_ptr]` the way
/// the grid's continuations capture `[this, attempt]`.
class EventChain {
 public:
  explicit EventChain(sim::Simulator& simulator) : simulator_(simulator) {}

  /// Schedule `count` events, `width` of them pending at a time.
  void run(std::size_t count, std::size_t width) {
    remaining_ = count;
    for (std::size_t i = 0; i < width && remaining_ > 0; ++i) next();
    simulator_.run();
  }
  std::size_t fired() const { return fired_; }

 private:
  void next() {
    --remaining_;
    simulator_.schedule(1.0, [this, payload = payload_] {
      fired_ += payload.use_count() > 1 ? 1 : 0;
      if (remaining_ > 0) next();
    });
  }

  sim::Simulator& simulator_;
  std::shared_ptr<int> payload_ = std::make_shared<int>(0);
  std::size_t remaining_ = 0;
  std::size_t fired_ = 0;
};

TEST(AllocBudget, SimulatorEventsAllocateNothing) {
  // Once the callback slab and the heap have grown to the peak number of
  // pending events, an event whose callback fits the inline buffer costs no
  // allocation: not for its callback, its slot or its heap entry.
  constexpr std::size_t kEvents = 1000;
  constexpr std::size_t kBudget = 0;
  sim::Simulator simulator;
  EventChain chain(simulator);
  chain.run(kEvents, 64);  // warm-up
  const std::size_t measured = allocations_in([&] { chain.run(kEvents, 64); });
  EXPECT_EQ(chain.fired(), 2 * kEvents);
  EXPECT_EQ(simulator.executed_events(), 2 * kEvents);
  EXPECT_LE(measured, kBudget) << "measured " << measured << " allocations for " << kEvents
                               << " events scheduled and run";
}

TEST(AllocBudget, BrokerMatchAllocatesNothing) {
  // The broker's candidate pool and ranks are member scratch, and the tie
  // break counts and rescans rather than collecting the tied CEs.
  constexpr std::size_t kMatches = 100;
  constexpr std::size_t kBudget = 0;
  const grid::GridConfig config = grid::GridConfig::egee2006(7);
  sim::Simulator simulator;
  Rng rng(config.seed);
  grid::OverheadModel overhead(config, rng);
  grid::ResourceBroker broker(simulator, overhead, config.broker_concurrency,
                              config.broker_occupancy_fraction, rng,
                              policy::Matchmaking::kQueueRank);
  for (const auto& ce : config.computing_elements) {
    broker.add_computing_element(std::make_unique<grid::ComputingElement>(simulator, ce, rng));
  }
  broker.match();  // warm-up
  std::size_t matched = 0;
  const std::size_t measured = allocations_in([&] {
    for (std::size_t i = 0; i < kMatches; ++i) matched += broker.match().slots() > 0 ? 1 : 0;
  });
  EXPECT_EQ(matched, kMatches);
  EXPECT_LE(measured, kBudget) << "measured " << measured << " allocations for " << kMatches
                               << " matches over " << config.computing_elements.size()
                               << " CEs";
}

struct RunCount {
  std::size_t allocations = 0;
  std::size_t invocations = 0;
};

/// Bronze Standard at `pairs` pairs on a seeded egee2006 grid through
/// Enactor: one thread, the sim kernel, the grid and the engine. The second
/// of two identical runs is measured, so one-time initialisation stays out
/// of the count.
RunCount bronze_run(std::size_t pairs, const enactor::EnactmentPolicy& policy) {
  const workflow::Workflow workflow = app::bronze_standard_workflow();
  const data::InputDataSet inputs = app::bronze_standard_dataset(pairs);
  services::ServiceRegistry registry;
  app::register_simulated_services(registry);
  RunCount count;
  for (int pass = 0; pass < 2; ++pass) {
    sim::Simulator simulator;
    grid::Grid grid(simulator, grid::GridConfig::egee2006(7));
    enactor::SimGridBackend backend(grid);
    enactor::Enactor enactor(backend, registry, policy);
    enactor::EnactmentResult result;
    count.allocations = allocations_in([&] {
      result = enactor.run({.workflow = workflow, .inputs = inputs});
    });
    EXPECT_EQ(result.failures(), 0u);
    count.invocations = result.invocations();
  }
  return count;
}

TEST(AllocBudget, BronzeRunPerInvocation) {
  // 4 pairs under the manifest policy (SP+DP+JG).
  constexpr std::size_t kPairs = 4;
  // 1541 while simulated output names were built through temporaries,
  // 1804 while indices were std::vectors and provenance nodes three
  // allocations with their keys built eagerly, 3772 while the JG merge rule
  // walked name-keyed maps and sets, 4237 while validate() and
  // topological_order() each ran a name-keyed Kahn pass.
  constexpr std::size_t kBudget = 1417;  // 56.68 per invocation
  const RunCount run = bronze_run(kPairs, enactor::EnactmentPolicy::sp_dp_jg());
  ASSERT_EQ(run.invocations, 6 * kPairs + 1);
  EXPECT_LE(run.allocations, kBudget)
      << "measured " << run.allocations << " allocations over " << run.invocations
      << " invocations (" << static_cast<double>(run.allocations) / run.invocations
      << " per invocation)";
}

TEST(AllocBudget, GroupingRewrite) {
  // The JG rewrite of the Bronze Standard alone, which the Engine of every
  // run under JG makes: the workflow copy, two merges and the validation.
  // 2180 while the merge rule walked name-keyed maps and sets through
  // ancestors() and descendants() for every candidate pair.
  constexpr std::size_t kBudget = 212;
  const workflow::Workflow workflow = app::bronze_standard_workflow();
  workflow::GroupingReport report;
  workflow::Workflow grouped;
  const std::size_t measured = allocations_in([&] {
    grouped = workflow::group_sequential_processors(workflow, &report);
  });
  ASSERT_EQ(report.merges, 2u);
  EXPECT_LE(measured, kBudget) << "measured " << measured
                               << " allocations for the Bronze grouping rewrite";
}

TEST(AllocBudget, ContinuePolicyCostsNothingWithoutFaults) {
  // On a fault-free run no token is poisoned, so containing failures must
  // cost nothing: the kContinue run allocates no more than the kFailFast one.
  constexpr std::size_t kPairs = 4;
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp_jg();
  const RunCount fail_fast = bronze_run(kPairs, policy);
  policy.failure_policy = enactor::FailurePolicy::kContinue;
  const RunCount contained = bronze_run(kPairs, policy);
  ASSERT_EQ(contained.invocations, fail_fast.invocations);
  EXPECT_LE(contained.allocations, fail_fast.allocations)
      << "measured " << contained.allocations << " allocations under kContinue, "
      << fail_fast.allocations << " under kFailFast";
}

TEST(AllocBudget, RecorderPerInvocation) {
  // The event stream of one 64-invocation chain run (4 stages over 16 items,
  // a constant simulated grid, so the stream is deterministic) fed to a
  // warmed recorder 16 times under distinct run ids. Records and cached
  // instruments cost copies; what remains is per run (the labelled per-run
  // series and the run's metric context), the amortized record chunks and
  // the latency histograms' sample growth. No span is built until the
  // tracer is read, after the count.
  constexpr std::size_t kRuns = 16;
  constexpr std::size_t kBudget = 370;  // 0.36 per invocation
  services::ServiceRegistry registry;
  for (const char* name : {"P0", "P1", "P2", "P3"}) {
    registry.add(services::make_simulated_service(name, {"in"}, {"out"},
                                                  services::JobProfile{60.0, 0.0, 0.0}));
  }
  data::InputDataSet inputs;
  inputs.declare_input("src");
  for (int i = 0; i < 16; ++i) inputs.add_item("src", "item" + std::to_string(i));
  sim::Simulator simulator;
  grid::Grid grid(simulator, grid::GridConfig::constant(30.0, 4096, 42));
  enactor::SimGridBackend backend(grid);
  enactor::Enactor enactor(backend, registry, enactor::EnactmentPolicy::sp_dp());
  std::vector<obs::RunEvent> stream;
  enactor.add_event_subscriber(
      [&stream](const obs::RunEvent& e) { stream.push_back(e); });
  const enactor::EnactmentResult result =
      enactor.run({.workflow = workflow::make_chain(4), .inputs = inputs});
  ASSERT_EQ(result.invocations(), 64u);

  // Every copy of the stream is made before the count starts.
  std::vector<std::vector<obs::RunEvent>> runs(kRuns + 1, stream);
  for (std::size_t r = 0; r <= kRuns; ++r) {
    for (obs::RunEvent& event : runs[r]) event.run_id = "chain-" + std::to_string(r);
  }
  obs::RunRecorder recorder;
  for (const obs::RunEvent& event : runs[0]) recorder.on_event(event);  // warm-up
  const std::size_t measured = allocations_in([&] {
    for (std::size_t r = 1; r <= kRuns; ++r) {
      for (const obs::RunEvent& event : runs[r]) recorder.on_event(event);
    }
  });
  EXPECT_EQ(recorder.tracer().open_count(), 0u);
  EXPECT_LE(measured, kBudget) << "measured " << measured << " allocations for " << kRuns
                               << " recorded runs of " << result.invocations()
                               << " invocations ("
                               << static_cast<double>(measured) / (kRuns * 64)
                               << " per invocation)";
}

TEST(AllocBudget, LongRunIdCostsNothingPerEvent) {
  // Every event carries the run id. The engine builds each event in one
  // object whose id is set once, so an id too long for a string's inline
  // buffer costs a few copies per run and none per event. A 64-invocation
  // chain run with one subscriber (262 events) made 264 more allocations
  // under a 40-character id than under a 5-character one while each event
  // copied the id.
  // The id's copies in the engine's options, the result, the blank event
  // and the event object.
  constexpr std::size_t kBudget = 4;
  services::ServiceRegistry registry;
  for (const char* name : {"P0", "P1", "P2", "P3"}) {
    registry.add(services::make_simulated_service(name, {"in"}, {"out"},
                                                  services::JobProfile{60.0, 0.0, 0.0}));
  }
  data::InputDataSet inputs;
  inputs.declare_input("src");
  for (int i = 0; i < 16; ++i) inputs.add_item("src", "item" + std::to_string(i));
  std::size_t events = 0;
  const auto run = [&](const std::string& id) {
    events = 0;
    sim::Simulator simulator;
    grid::Grid grid(simulator, grid::GridConfig::constant(30.0, 4096, 42));
    enactor::SimGridBackend backend(grid);
    enactor::Enactor enactor(backend, registry, enactor::EnactmentPolicy::sp_dp());
    enactor.add_event_subscriber([&events](const obs::RunEvent&) { ++events; });
    const enactor::RunRequest request{
        .name = id, .workflow = workflow::make_chain(4), .inputs = inputs};
    enactor::EnactmentResult result;
    const std::size_t measured = allocations_in([&] { result = enactor.run(request); });
    EXPECT_EQ(result.invocations(), 64u);
    return measured;
  };
  run("warm-up");  // one-time set-up, such as interning names, stays out
  const std::size_t short_id = run("short");
  const std::size_t long_id = run(std::string(40, 'r'));
  EXPECT_EQ(events, 262u);
  EXPECT_LE(long_id, short_id + kBudget)
      << "measured " << long_id << " allocations under a 40-character id, " << short_id
      << " under a 5-character one, for " << events << " events";
}

TEST(AllocBudget, UngatedSubmissionAddsNothing) {
  // With no in-flight cap, a run's gated backend hands each submission
  // straight to the gate's backend: no queue entry, no wrapping callback.
  constexpr std::size_t kSubmissions = 100;
  constexpr std::size_t kBudgetPerSubmission = 0;  // extra over a direct submission
  const auto service = std::make_shared<services::FunctionalService>(
      "P0", std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
      [](const services::Inputs&) { return services::Result{}; });
  const auto submit_all = [&](enactor::ExecutionBackend& backend) {
    return allocations_in([&] {
      for (std::size_t i = 0; i < kSubmissions; ++i) {
        backend.execute(service, {services::Inputs{}}, [](enactor::Outcome) {});
      }
    });
  };

  testkit::ScriptedBackend direct(kSubmissions);
  const std::size_t baseline = submit_all(direct);

  testkit::ScriptedBackend behind_gate(kSubmissions);
  const auto gate = std::make_shared<service::AdmissionGate>(
      behind_gate, service::AdmissionGate::Config{0, "weighted"});
  std::size_t grants = 0;
  double waited = 0.0;
  gate->set_grant_observer([&](double wait) {
    ++grants;
    waited += wait;
  });
  const auto run = gate->open(1);
  const std::size_t measured = submit_all(*run);

  EXPECT_EQ(behind_gate.executions().size(), kSubmissions);
  EXPECT_EQ(grants, kSubmissions);  // every launch is still observed
  EXPECT_EQ(waited, 0.0);
  EXPECT_LE(measured, baseline + kBudgetPerSubmission * kSubmissions)
      << "measured " << measured << " allocations for " << kSubmissions
      << " gated submissions, " << baseline << " made directly";
}

TEST(AllocBudget, EngineSetUp) {
  // Engine construction plus start() for a 4-stage chain over 16 items on a
  // backend that records submissions and never completes them: the per-run
  // set-up (validation, the workflow copy, the processor table) plus each
  // item's source token and first-stage submission.
  constexpr std::size_t kItems = 16;
  // 314 while indices were std::vectors and provenance nodes three
  // allocations, 351 while validate() and topological_order() each ran a
  // name-keyed Kahn pass, 371 while iteration trees were validated with a
  // port walk per level, 494 with the name-keyed state map.
  constexpr std::size_t kBudget = 267;
  services::ServiceRegistry registry;
  for (const char* name : {"P0", "P1", "P2", "P3"}) {
    registry.add(services::make_simulated_service(name, {"in"}, {"out"},
                                                  services::JobProfile{60.0}));
  }
  const workflow::Workflow workflow = workflow::make_chain(4);
  data::InputDataSet inputs;
  inputs.declare_input("src");
  for (std::size_t i = 0; i < kItems; ++i) inputs.add_item("src", "item" + std::to_string(i));
  testkit::ScriptedBackend backend(kItems);
  std::shared_ptr<enactor::Engine> engine;
  const std::size_t measured = allocations_in([&] {
    engine = std::make_shared<enactor::Engine>(
        backend, registry, enactor::EnactmentPolicy::sp_dp(), enactor::PayloadResolver{},
        enactor::EventSubscriber{}, workflow, inputs,
        enactor::Engine::Options{.run_id = "chain"});
    engine->start();
  });
  EXPECT_EQ(backend.executions().size(), kItems);
  EXPECT_LE(measured, kBudget) << "measured " << measured
                               << " allocations for Engine construction and start()";
}

TEST(AllocBudget, WrapperInvocation) {
  // One invocation of a wrapped code with two derived inputs and two
  // unnamed outputs, whose destinations name the input lineage. No executor
  // is bound, as in a simulated run, so no input value is copied. The input
  // keys are rendered beforehand, as the engine's first read of them would.
  // 41 while every invocation composed and logged its argv and rebuilt the
  // lineage for each output; 15 while it copied every input's repr.
  constexpr std::size_t kBudget = 11;
  const services::Access gfn{services::AccessType::kGfn, ""};
  services::Descriptor descriptor;
  descriptor.executable_name = "CrestLines.pl";
  descriptor.inputs.push_back({"floating_image", "-im1", gfn});
  descriptor.inputs.push_back({"reference_image", "-im2", gfn});
  descriptor.outputs.push_back({"crest_reference", "-c1", gfn});
  descriptor.outputs.push_back({"crest_floating", "-c2", gfn});
  services::WrapperService service("crestLines", descriptor, {});
  const data::Token floating =
      data::Token::from_source("floating", 0, kGridFile, kGridFile);
  const data::Token reference =
      data::Token::from_source("reference", 0, kGridFile, kGridFile);
  services::Inputs inputs;
  inputs.emplace("floating_image", data::Token::derived("convert", "out", {floating},
                                                        {0}, kGridFile, kGridFile));
  inputs.emplace("reference_image", data::Token::derived("convert", "out", {reference},
                                                         {0}, kGridFile, kGridFile));
  for (const auto& [port, token] : inputs) ASSERT_FALSE(token.id().empty());
  services::Result result;
  const std::size_t measured = allocations_in([&] { result = service.invoke(inputs); });
  EXPECT_LE(measured, kBudget) << "measured " << measured
                               << " allocations for one wrapper invocation";
  EXPECT_EQ(
      result.outputs.at("crest_floating").repr,
      "crestLines.crest_floating(convert.out(floating[0]),convert.out(reference[0]))");
}

}  // namespace
}  // namespace moteur
