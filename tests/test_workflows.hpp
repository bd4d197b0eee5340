// Small workflows shared by the enactor tests, with the services that drive
// them. In the loops, each loop head counts its passes and each loop tail
// routes its count out of the loop once it reaches 2.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "services/functional_service.hpp"
#include "services/registry.hpp"
#include "workflow/graph.hpp"

namespace moteur::testkit {

/// Outputs its input count plus one on "out"; a non-int input counts 0.
inline std::shared_ptr<services::Service> counter(const std::string& id) {
  return std::make_shared<services::FunctionalService>(
      id, std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
      [](const services::Inputs& in) {
        const int count = in.at("in").holds<int>() ? in.at("in").as<int>() : 0;
        services::Result r;
        r.outputs["out"] = services::OutputValue{count + 1, "n"};
        return r;
      });
}

/// Routes the count on its first input port to "exit" once it reaches 2,
/// to "loop" before.
inline std::shared_ptr<services::Service> router(const std::string& id,
                                                 std::vector<std::string> inputs = {"in"}) {
  const std::string port = inputs.front();
  return std::make_shared<services::FunctionalService>(
      id, std::move(inputs), std::vector<std::string>{"loop", "exit"},
      [port](const services::Inputs& in) {
        const int count = in.at(port).as<int>();
        services::Result r;
        r.outputs[count >= 2 ? "exit" : "loop"] = services::OutputValue{count, "n"};
        return r;
      });
}

/// Every service of the workflows below and of workflow::make_optimization_loop.
inline void add_loop_services(services::ServiceRegistry& registry) {
  for (const char* id : {"P1", "A1"}) {
    registry.add(services::make_simulated_service(id, {"in"}, {"out"},
                                                  services::JobProfile{1.0}));
  }
  for (const char* id : {"B", "Bar"}) {
    registry.add(services::make_simulated_service(id, {"all"}, {"out"},
                                                  services::JobProfile{1.0}));
  }
  for (const char* id : {"P2", "Q2", "A2", "H"}) registry.add(counter(id));
  for (const char* id : {"P3", "Q3", "A3"}) registry.add(router(id));
  registry.add(router("T", {"x", "y"}));
}

/// Source -> P1 -> loop(P2 <-> P3) -> loop(Q2 <-> Q3) -> Sink. P3's exit
/// feeds Q2 directly, or through the barrier B when `barrier` is set. Each
/// item leaves the first loop with 2 and, without the barrier, reaches the
/// sink with 3.
inline workflow::Workflow loops_in_series(bool barrier) {
  workflow::Workflow wf(barrier ? "two-loops-barrier" : "two-loops");
  wf.add_source("Source");
  wf.add_processor("P1", {"in"}, {"out"});
  wf.add_processor("P2", {"in"}, {"out"});
  wf.add_processor("P3", {"in"}, {"loop", "exit"});
  wf.add_processor("Q2", {"in"}, {"out"});
  wf.add_processor("Q3", {"in"}, {"loop", "exit"});
  wf.add_sink("Sink");
  wf.link("Source", "out", "P1", "in");
  wf.link("P1", "out", "P2", "in");
  wf.link("P2", "out", "P3", "in");
  wf.link("P3", "loop", "P2", "in", /*feedback=*/true);
  if (barrier) {
    wf.add_processor("B", {"all"}, {"out"}).synchronization = true;
    wf.link("P3", "exit", "B", "all");
    wf.link("B", "out", "Q2", "in");
  } else {
    wf.link("P3", "exit", "Q2", "in");
  }
  wf.link("Q2", "out", "Q3", "in");
  wf.link("Q3", "loop", "Q2", "in", /*feedback=*/true);
  wf.link("Q3", "exit", "Sink", "in");
  wf.validate();
  return wf;
}

/// S0 -> A1 -> loop(A2 <-> A3) -> barrier Bar, and S2 -> H -> loop(H <-> T)
/// -> Sink, where T = cross(x from H, y from Bar): the second loop is fed
/// mid-loop by a barrier that waits for the first loop. One S2 item leaves
/// the second loop with 2.
inline workflow::Workflow loop_fed_by_barrier() {
  workflow::Workflow wf("barrier-fed-loop");
  wf.add_source("S0");
  wf.add_source("S2");
  wf.add_processor("A1", {"in"}, {"out"});
  wf.add_processor("A2", {"in"}, {"out"});
  wf.add_processor("A3", {"in"}, {"loop", "exit"});
  wf.add_processor("Bar", {"all"}, {"out"}).synchronization = true;
  wf.add_processor("H", {"in"}, {"out"});
  wf.add_processor("T", {"x", "y"}, {"loop", "exit"}).iteration =
      workflow::IterationStrategy::kCross;
  wf.add_sink("Sink");
  wf.link("S0", "out", "A1", "in");
  wf.link("A1", "out", "A2", "in");
  wf.link("A2", "out", "A3", "in");
  wf.link("A3", "loop", "A2", "in", /*feedback=*/true);
  wf.link("A3", "exit", "Bar", "all");
  wf.link("S2", "out", "H", "in");
  wf.link("H", "out", "T", "x");
  wf.link("Bar", "out", "T", "y");
  wf.link("T", "loop", "H", "in", /*feedback=*/true);
  wf.link("T", "exit", "Sink", "in");
  wf.validate();
  return wf;
}

/// C = dot(a, b), where port a is fed by source S2 at start and by service
/// X, which also feeds b, once X completes. Both tokens on a carry index
/// [0], so X's completion pushes a duplicate and the engine throws.
struct ConflictingFeeds {
  static constexpr const char* kError =
      "enactment error: duplicate token with index [0] on port 'a'";

  workflow::Workflow workflow{"conflicting-feeds"};
  services::ServiceRegistry registry;

  ConflictingFeeds() {
    workflow.add_source("S1");
    workflow.add_source("S2");
    workflow.add_processor("X", {"in"}, {"out"});
    workflow.add_processor("C", {"a", "b"}, {"out"});
    workflow.add_sink("sink");
    workflow.link("S1", "out", "X", "in");
    workflow.link("S2", "out", "C", "a");
    workflow.link("X", "out", "C", "a");
    workflow.link("X", "out", "C", "b");
    workflow.link("C", "out", "sink", "in");
    workflow.validate();
    registry.add(services::make_simulated_service("X", {"in"}, {"out"},
                                                  services::JobProfile{1.0}));
    registry.add(services::make_simulated_service("C", {"a", "b"}, {"out"},
                                                  services::JobProfile{1.0}));
  }

  static data::InputDataSet inputs() {
    data::InputDataSet ds;
    for (const char* source : {"S1", "S2"}) {
      ds.declare_input(source);
      ds.add_item(source, "item0");
    }
    return ds;
  }
};

}  // namespace moteur::testkit
