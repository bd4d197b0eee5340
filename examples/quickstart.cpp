// Quickstart: compose three services into a workflow, run it over a data
// set on the simulated EGEE grid under the fully-optimized policy, and
// inspect the results, the timeline and the execution diagram.
//
//   $ ./quickstart
#include <cstdio>
#include <memory>

#include "data/dataset.hpp"
#include "enactor/diagram.hpp"
#include "enactor/enactor.hpp"
#include "enactor/sim_backend.hpp"
#include "grid/grid.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "util/strings.hpp"

int main() {
  using namespace moteur;

  // 1. The application workflow: source -> prepare -> analyze -> sink
  //    (the Figure-1 shape), described port by port.
  workflow::Workflow wf("quickstart");
  wf.add_source("images");
  wf.add_processor("prepare", {"img"}, {"clean"});
  wf.add_processor("analyze", {"img"}, {"report"});
  wf.add_sink("reports");
  wf.link("images", "out", "prepare", "img");
  wf.link("prepare", "clean", "analyze", "img");
  wf.link("analyze", "report", "reports", "in");

  // 2. Service implementations. Here: pure simulation services that only
  //    describe the grid job each invocation submits (see the
  //    bronze_standard example for services that really compute).
  services::ServiceRegistry registry;
  registry.add(services::make_simulated_service(
      "prepare", {"img"}, {"clean"},
      services::JobProfile{/*compute=*/120.0, /*in MB=*/7.8, /*out MB=*/7.8}));
  registry.add(services::make_simulated_service(
      "analyze", {"img"}, {"report"},
      services::JobProfile{/*compute=*/300.0, /*in MB=*/7.8, /*out MB=*/0.1}));

  // 3. The input data set: ten images, declared dynamically (the defining
  //    convenience of the service-based approach).
  data::InputDataSet inputs;
  for (int j = 0; j < 10; ++j) {
    inputs.add_item("images", "gfn://images/img" + std::to_string(j) + ".mhd");
  }

  // 4. An execution backend: the simulated EGEE-like production grid.
  sim::Simulator simulator;
  grid::Grid grid(simulator, grid::GridConfig::egee2006());
  enactor::SimGridBackend backend(grid);

  // 5. Enact with every optimization on: workflow + data + service
  //    parallelism and job grouping. A subscriber streams progress events.
  enactor::Enactor moteur(backend, registry, enactor::EnactmentPolicy::sp_dp_jg());
  moteur.add_event_subscriber([](const obs::RunEvent& event) {
    if (event.kind == obs::RunEvent::Kind::kProcessorFinished) {
      std::printf("  [t=%6.0fs] %s finished (%zu invocations so far)\n", event.time,
                  event.processor.str().c_str(), event.total_invocations);
    }
  });
  const enactor::EnactmentResult result = moteur.run({.workflow = wf, .inputs = inputs});

  std::printf("makespan:     %s (%.0f s)\n", format_duration(result.makespan()).c_str(),
              result.makespan());
  std::printf("invocations:  %zu logical, %zu grid jobs (grouping fused %zu chains)\n",
              result.invocations(), result.submissions(), result.grouping.groups.size());
  std::printf("results:      %zu tokens on sink 'reports'\n",
              result.sink_outputs.at("reports").size());
  for (const auto& token : result.sink_outputs.at("reports")) {
    std::printf("  %s  %s\n", data::to_string(token.indices()).c_str(),
                token.repr().c_str());
  }

  std::puts("\nexecution diagram (rows = processors, columns = time):");
  enactor::DiagramOptions options;
  options.seconds_per_column = 600.0;
  std::fputs(enactor::render_execution_diagram(
                 result.timeline, {"prepare+analyze", "prepare", "analyze"}, options)
                 .c_str(),
             stdout);
  return 0;
}
