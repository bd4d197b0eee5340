#include <gtest/gtest.h>

#include <thread>

#include "data/dataset.hpp"
#include "enactor/enactor.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/timeline_csv.hpp"
#include "grid/grid.hpp"
#include "services/async.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "util/strings.hpp"
#include "workflow/analysis.hpp"
#include "workflow/grouping.hpp"
#include "workflow/patterns.hpp"

namespace moteur {
namespace {

// ---------------------------------------------------------------------------
// Pattern builders
// ---------------------------------------------------------------------------

TEST(Patterns, ChainShape) {
  const auto wf = workflow::make_chain(4);
  EXPECT_EQ(wf.services().size(), 4u);
  EXPECT_EQ(workflow::critical_path_length(wf), 4u);
}

TEST(Patterns, FanOutShape) {
  const auto wf = workflow::make_fan_out(3);
  EXPECT_EQ(wf.services().size(), 4u);  // P0 + 3 branches
  EXPECT_EQ(std::count_if(wf.links().begin(), wf.links().end(),
                          [](const workflow::Link& l) { return l.from_processor == "P0"; }),
            3);
  EXPECT_EQ(workflow::critical_path_length(wf), 2u);
}

TEST(Patterns, FanInBarrierShape) {
  const auto wf = workflow::make_fan_in_barrier(3);
  EXPECT_TRUE(wf.processor("barrier").synchronization);
  EXPECT_EQ(wf.processor("barrier").input_ports.size(), 3u);
  // Only the sink follows the barrier, so every service sits in layer 0.
  EXPECT_EQ(workflow::synchronization_layers(wf).size(), 1u);
}

TEST(Patterns, CrossShape) {
  const auto wf = workflow::make_cross();
  EXPECT_EQ(wf.processor("P0").iteration, workflow::IterationStrategy::kCross);
  EXPECT_EQ(wf.sources().size(), 2u);
}

TEST(Patterns, LoopShape) {
  const auto wf = workflow::make_optimization_loop();
  bool has_feedback = false;
  for (const auto& link : wf.links()) has_feedback |= link.feedback;
  EXPECT_TRUE(has_feedback);
}

TEST(Patterns, GroupablePairGroups) {
  workflow::GroupingReport report;
  workflow::group_sequential_processors(workflow::make_groupable_pair(), &report);
  EXPECT_EQ(report.merges, 1u);
}

TEST(Patterns, FanInBarrierEnactsEndToEnd) {
  const auto wf = workflow::make_fan_in_barrier(3);
  sim::Simulator simulator;
  grid::Grid grid(simulator, grid::GridConfig::constant(10.0));
  enactor::SimGridBackend backend(grid);
  services::ServiceRegistry registry;
  for (int b = 0; b < 3; ++b) {
    registry.add(services::make_simulated_service("P" + std::to_string(b), {"in"},
                                                  {"out"}, services::JobProfile{5.0}));
  }
  registry.add(services::make_simulated_service(
      "barrier", {"from0", "from1", "from2"}, {"out"}, services::JobProfile{5.0}));
  data::InputDataSet ds;
  for (int j = 0; j < 4; ++j) ds.add_item("src", "d" + std::to_string(j));
  enactor::Enactor moteur(backend, registry, enactor::EnactmentPolicy::sp_dp());
  const auto result = moteur.run({.workflow = wf, .inputs = ds});
  EXPECT_EQ(result.invocations(), 3u * 4u + 1u);
  EXPECT_EQ(result.sink_outputs.at("sink").size(), 1u);
}

// ---------------------------------------------------------------------------
// Timeline CSV
// ---------------------------------------------------------------------------

TEST(TimelineCsv, HeaderRowsAndEscaping) {
  enactor::Timeline timeline;
  enactor::InvocationTrace trace;
  trace.processor = "crest,Lines\"x\"";  // needs escaping
  trace.indices = {{0}};
  trace.submit_time = 1.0;
  trace.start_time = 2.0;
  trace.end_time = 5.0;
  grid::JobRecord job;
  job.submit_time = 1.0;
  job.run_start_time = 2.0;
  job.run_end_time = 5.0;
  job.completion_time = 5.0;
  job.computing_element = "ce3";
  trace.job = job;
  timeline.add(trace);

  const std::string csv = enactor::timeline_to_csv(timeline);
  const auto lines = split(csv, '\n');
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0],
            "processor,data,submit_s,start_s,end_s,span_s,overhead_s,site,failed,attempt,"
            "superseded,status,skipped");
  EXPECT_NE(lines[1].find(",Ok,"), std::string::npos);  // status never empty
  EXPECT_NE(lines[1].find("\"crest,Lines\"\"x\"\"\""), std::string::npos);
  EXPECT_NE(lines[1].find("ce3"), std::string::npos);
  EXPECT_NE(lines[1].find(",0"), std::string::npos);  // failed flag
}

TEST(TimelineCsv, SortedBySubmitTime) {
  enactor::Timeline timeline;
  for (const double t : {5.0, 1.0, 3.0}) {
    enactor::InvocationTrace trace;
    trace.processor = "P" + std::to_string(static_cast<int>(t));
    trace.submit_time = t;
    trace.start_time = t;
    trace.end_time = t + 1;
    timeline.add(trace);
  }
  const auto lines = split(enactor::timeline_to_csv(timeline), '\n');
  EXPECT_NE(lines[1].find("P1"), std::string::npos);
  EXPECT_NE(lines[2].find("P3"), std::string::npos);
  EXPECT_NE(lines[3].find("P5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// AsyncInvoker (GridRPC-style client calls, §3.1)
// ---------------------------------------------------------------------------

std::shared_ptr<services::FunctionalService> slow_doubler() {
  return std::make_shared<services::FunctionalService>(
      "double", std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
      [](const services::Inputs& in) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        services::Result r;
        const int v = in.at("in").as<int>();
        r.outputs["out"] = services::OutputValue{2 * v, std::to_string(2 * v)};
        return r;
      });
}

TEST(AsyncInvoker, AsyncCallsOverlap) {
  services::AsyncInvoker invoker(4);
  auto service = slow_doubler();
  std::vector<services::AsyncInvoker::Handle> handles;
  const auto begin = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) {
    services::Inputs in;
    in.emplace("in", data::Token::from_source("s", static_cast<std::size_t>(i), i,
                                              std::to_string(i)));
    handles.push_back(invoker.call_async(service, std::move(in)));
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(std::any_cast<int>(handles[static_cast<std::size_t>(i)]
                                     .wait()
                                     .outputs.at("out")
                                     .payload),
              2 * i);
  }
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  // 4 overlapped 20 ms calls finish well before 4 x 20 ms.
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 0.06);
}

TEST(AsyncInvoker, BlockingCallAndReadiness) {
  services::AsyncInvoker invoker(2);
  auto service = slow_doubler();
  services::Inputs in;
  in.emplace("in", data::Token::from_source("s", 0, 21, "21"));
  const services::Result direct = invoker.call(*service, in);
  EXPECT_EQ(std::any_cast<int>(direct.outputs.at("out").payload), 42);

  auto handle = invoker.call_async(service, in);
  handle.wait();
  EXPECT_TRUE(handle.ready());
}

TEST(AsyncInvoker, ExceptionsSurfaceAtWait) {
  services::AsyncInvoker invoker(2);
  auto failing = std::make_shared<services::FunctionalService>(
      "boom", std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
      [](const services::Inputs&) -> services::Result {
        throw std::runtime_error("remote fault");
      });
  services::Inputs in;
  in.emplace("in", data::Token::from_source("s", 0, 1, "1"));
  auto handle = invoker.call_async(failing, in);
  EXPECT_THROW(handle.wait(), std::runtime_error);
}

}  // namespace
}  // namespace moteur
