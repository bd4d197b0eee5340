// Randomized cross-module properties: random layered workflows over random
// data sets, enacted under every policy on the simulated grid. Whatever the
// optimization level, the *science* must be identical — same result
// multiset, same provenance identities — and the §3.5 dominance relations
// must hold on a deterministic grid.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "app/bronze_standard.hpp"
#include "data/dataset.hpp"
#include "enactor/enactor.hpp"
#include "enactor/sim_backend.hpp"
#include "grid/grid.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workflow/analysis.hpp"
#include "workflow/grouping.hpp"
#include "workflow/scufl.hpp"

namespace moteur {
namespace {

struct RandomApplication {
  workflow::Workflow workflow{"random"};
  data::InputDataSet inputs;
  std::vector<std::pair<std::string, services::JobProfile>> profiles;
};

/// Layered random DAG: sources feed layer 0; each service picks 1-2 feeds
/// from strictly earlier outputs; every terminal output reaches a sink.
RandomApplication make_random_application(Rng& rng) {
  RandomApplication app;

  struct Output {
    std::string processor;
    std::string port;
  };
  std::vector<Output> available;

  const std::size_t n_sources = 1 + static_cast<std::size_t>(rng.uniform_int(0, 1));
  for (std::size_t s = 0; s < n_sources; ++s) {
    const std::string name = "src" + std::to_string(s);
    app.workflow.add_source(name);
    available.push_back(Output{name, "out"});
    const std::size_t items = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
    for (std::size_t j = 0; j < items; ++j) {
      app.inputs.add_item(name, name + "-item" + std::to_string(j));
    }
  }

  const std::size_t layers = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  std::set<std::string> consumed;  // "proc.port" keys with a consumer
  int counter = 0;
  for (std::size_t layer = 0; layer < layers; ++layer) {
    const std::size_t width = 1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
    std::vector<Output> produced;
    for (std::size_t w = 0; w < width; ++w) {
      const std::string name = "P" + std::to_string(counter++);
      const std::size_t n_inputs =
          1 + static_cast<std::size_t>(rng.uniform_int(0, 1));
      std::vector<std::string> input_ports;
      for (std::size_t i = 0; i < n_inputs; ++i) {
        input_ports.push_back("in" + std::to_string(i));
      }
      // Occasionally a cross product (only meaningful with 2 ports).
      const auto iteration = n_inputs == 2 && rng.bernoulli(0.3)
                                 ? workflow::IterationStrategy::kCross
                                 : workflow::IterationStrategy::kDot;
      app.workflow.add_processor(name, input_ports, {"out"}, iteration);
      for (std::size_t i = 0; i < n_inputs; ++i) {
        const Output& feed = available[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(available.size()) - 1))];
        app.workflow.link(feed.processor, feed.port, name, input_ports[i]);
        consumed.insert(feed.processor + "." + feed.port);
      }
      produced.push_back(Output{name, "out"});
      app.profiles.emplace_back(
          name, services::JobProfile{std::floor(rng.uniform(5.0, 60.0)), 0.0, 0.0});
    }
    available.insert(available.end(), produced.begin(), produced.end());
  }

  // Terminal outputs flow into sinks.
  int sink_counter = 0;
  for (const Output& output : available) {
    if (output.port == "out" && consumed.count(output.processor + ".out") == 0) {
      const std::string sink = "sink" + std::to_string(sink_counter++);
      app.workflow.add_sink(sink);
      app.workflow.link(output.processor, output.port, sink, "in");
    }
  }
  app.workflow.validate();
  return app;
}

enactor::EnactmentResult enact(const RandomApplication& app,
                               enactor::EnactmentPolicy policy) {
  sim::Simulator simulator;
  grid::Grid grid(simulator, grid::GridConfig::constant(30.0));
  enactor::SimGridBackend backend(grid);
  services::ServiceRegistry registry;
  for (const auto& proc : app.workflow.processors()) {
    if (proc.kind != workflow::ProcessorKind::kService) continue;
    for (const auto& [name, profile] : app.profiles) {
      if (name == proc.name) {
        registry.add(services::make_simulated_service(name, proc.input_ports,
                                                      proc.output_ports, profile));
      }
    }
  }
  enactor::Enactor moteur(backend, registry, policy);
  return moteur.run({.workflow = app.workflow, .inputs = app.inputs});
}

/// Signature of a run's science: per sink, the multiset of result indices.
std::map<std::string, std::multiset<data::IndexVector>> science_of(
    const enactor::EnactmentResult& result) {
  std::map<std::string, std::multiset<data::IndexVector>> out;
  for (const auto& [sink, tokens] : result.sink_outputs) {
    for (const auto& token : tokens) out[sink].insert(token.indices());
  }
  return out;
}

class RandomWorkflows : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWorkflows, AllPoliciesProduceTheSameScience) {
  Rng rng(GetParam());
  const RandomApplication app = make_random_application(rng);

  const auto reference = enact(app, enactor::EnactmentPolicy::sp_dp());
  const auto reference_science = science_of(reference);
  EXPECT_EQ(reference.failures(), 0u);

  for (const auto* config : {"NOP", "JG", "SP", "DP", "SP+DP+JG"}) {
    const auto result = enact(app, enactor::EnactmentPolicy::parse(config));
    EXPECT_EQ(science_of(result), reference_science) << "policy " << config;
    EXPECT_EQ(result.invocations(), reference.invocations()) << "policy " << config;
  }
}

TEST_P(RandomWorkflows, DominanceRelationsOnDeterministicGrid) {
  Rng rng(GetParam() * 31 + 7);
  const RandomApplication app = make_random_application(rng);

  const double nop = enact(app, enactor::EnactmentPolicy::nop()).makespan();
  const double sp = enact(app, enactor::EnactmentPolicy::sp()).makespan();
  const double dp = enact(app, enactor::EnactmentPolicy::dp()).makespan();
  const double dsp = enact(app, enactor::EnactmentPolicy::sp_dp()).makespan();

  const double eps = 1e-9;
  EXPECT_LE(sp, nop + eps);   // adding SP never hurts
  EXPECT_LE(dp, nop + eps);   // adding DP never hurts
  EXPECT_LE(dsp, sp + eps);   // DP on top of SP never hurts
  EXPECT_LE(dsp, dp + eps);   // SP on top of DP never hurts
}

TEST_P(RandomWorkflows, GroupingRewriteIsSemanticallyTransparent) {
  Rng rng(GetParam() * 131 + 3);
  const RandomApplication app = make_random_application(rng);

  workflow::GroupingReport report;
  const workflow::Workflow grouped =
      workflow::group_sequential_processors(app.workflow, &report);
  EXPECT_NO_THROW(grouped.validate());

  // Members never disappear, never duplicate.
  std::multiset<std::string> original_services, grouped_members;
  for (const auto* proc : app.workflow.services()) {
    original_services.insert(proc->name);
  }
  for (const auto* proc : grouped.services()) {
    if (proc->is_grouped()) {
      for (const auto& member : proc->group_members) grouped_members.insert(member);
    } else {
      grouped_members.insert(proc->name);
    }
  }
  EXPECT_EQ(original_services, grouped_members);

  // Scufl round-trip of the rewritten workflow (grouped processors incl.
  // member lists and internal links survive serialization).
  const workflow::Workflow reparsed = workflow::from_scufl(workflow::to_scufl(grouped));
  EXPECT_EQ(reparsed.processors().size(), grouped.processors().size());
  for (const auto* proc : grouped.services()) {
    EXPECT_EQ(reparsed.processor(proc->name).group_members, proc->group_members);
    EXPECT_EQ(reparsed.processor(proc->name).internal_links.size(),
              proc->internal_links.size());
  }
}

TEST_P(RandomWorkflows, TimelineInvariants) {
  Rng rng(GetParam() * 17 + 11);
  const RandomApplication app = make_random_application(rng);
  const auto result = enact(app, enactor::EnactmentPolicy::sp_dp());

  for (const auto& trace : result.timeline.traces()) {
    EXPECT_LE(trace.submit_time, trace.start_time + 1e-9);
    EXPECT_LE(trace.start_time, trace.end_time + 1e-9);
    ASSERT_TRUE(trace.job.has_value());
    EXPECT_GE(trace.job->overhead_seconds(), -1e-9);
    EXPECT_EQ(trace.job->state, grid::JobState::kDone);
  }
  EXPECT_DOUBLE_EQ(result.timeline.makespan(), result.finished_at);
}

TEST_P(RandomWorkflows, CapacityCapIsRespected) {
  Rng rng(GetParam() * 57 + 23);
  const RandomApplication app = make_random_application(rng);
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.data_parallelism_cap = 2;
  const auto result = enact(app, policy);

  // Per processor, no instant may carry more than 2 overlapping invocations.
  for (const auto* proc : app.workflow.services()) {
    const auto traces = result.timeline.for_processor(proc->name);
    for (const auto* a : traces) {
      std::size_t overlapping = 0;
      for (const auto* b : traces) {
        if (b->submit_time <= a->submit_time && a->submit_time < b->end_time) {
          ++overlapping;
        }
      }
      EXPECT_LE(overlapping, 2u) << proc->name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkflows,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

/// The static analyses of `wf`, one fact a line: the topological order, the
/// ancestors and descendants of every processor, the critical path (under
/// `weights` too, when given), the synchronization layers and the merge rule
/// on every data link.
void describe_analyses(std::ostream& out, const workflow::Workflow& wf,
                       const std::map<std::string, double>* weights) {
  const auto names = [](const auto& list) {
    std::string joined;
    for (const auto& name : list) joined += " " + name;
    return joined;
  };
  out << "topological_order:" << names(workflow::topological_order(wf)) << "\n";
  for (const auto& p : wf.processors()) {
    out << "ancestors " << p.name << ":" << names(workflow::ancestors(wf, p.name)) << "\n";
    out << "descendants " << p.name << ":" << names(workflow::descendants(wf, p.name))
        << "\n";
  }
  const workflow::Path path = workflow::critical_path(wf);
  out << "critical_path " << path.weight << ":" << names(path.services) << "\n";
  if (weights != nullptr) {
    const workflow::Path weighted = workflow::critical_path(wf, weights);
    out << "weighted_critical_path " << weighted.weight << ":" << names(weighted.services)
        << "\n";
  }
  out << "synchronization_layers:";
  for (const auto& layer : workflow::synchronization_layers(wf)) {
    out << " [" << names(layer) << " ]";
  }
  out << "\n";
  for (const auto& l : wf.links()) {
    out << "can_group " << l.from_processor << " " << l.to_processor << ": "
        << workflow::can_group(wf, l.from_processor, l.to_processor) << "\n";
  }
}

/// `describe_analyses` of `wf`, then its grouping rewrite (report and Scufl
/// text) and the analyses of the rewritten workflow.
std::string describe(const std::string& title, const workflow::Workflow& wf,
                     const std::map<std::string, double>* weights) {
  std::ostringstream out;
  out << "== " << title << "\n";
  describe_analyses(out, wf, weights);
  workflow::GroupingReport report;
  const workflow::Workflow grouped = workflow::group_sequential_processors(wf, &report);
  out << "== " << title << " grouped: " << report.merges << " merge(s)\n";
  for (const auto& group : report.groups) {
    out << "group:";
    for (const auto& member : group) out << " " << member;
    out << "\n";
  }
  out << workflow::to_scufl(grouped);
  describe_analyses(out, grouped, nullptr);
  return out.str();
}

TEST(WorkflowAnalyses, BronzeAndRandomWorkflowsMatchTheGolden) {
  // The Bronze Standard and the 12 workflows the grouping property rewrites.
  std::string text = describe("bronze", app::bronze_standard_workflow(), nullptr);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 131 + 3);
    const RandomApplication app = make_random_application(rng);
    std::map<std::string, double> weights;
    for (const auto& [name, profile] : app.profiles) weights[name] = profile.compute_seconds;
    text += describe("random " + std::to_string(seed), app.workflow, &weights);
  }
  std::ifstream in(std::string(MOTEUR_GOLDEN_DIR) + "/workflow_analyses.txt");
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(text, golden.str());
}

}  // namespace
}  // namespace moteur
