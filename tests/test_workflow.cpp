#include <gtest/gtest.h>

#include <algorithm>

#include "app/bronze_standard.hpp"
#include "util/error.hpp"
#include "workflow/analysis.hpp"
#include "workflow/graph.hpp"
#include "workflow/scufl.hpp"

namespace moteur::workflow {
namespace {

/// The paper's Figure 1: source -> P1 -> {P2, P3} -> sink.
Workflow figure1() {
  Workflow wf("figure1");
  wf.add_source("src");
  wf.add_processor("P1", {"in"}, {"out"});
  wf.add_processor("P2", {"in"}, {"out"});
  wf.add_processor("P3", {"in"}, {"out"});
  wf.add_sink("sink");
  wf.link("src", "out", "P1", "in");
  wf.link("P1", "out", "P2", "in");
  wf.link("P1", "out", "P3", "in");
  wf.link("P2", "out", "sink", "in");
  wf.link("P3", "out", "sink", "in");
  return wf;
}

/// The paper's Figure 2: an optimization loop (P3 feeds back into P2).
Workflow figure2() {
  Workflow wf("figure2");
  wf.add_source("Source");
  wf.add_processor("P1", {"in"}, {"out"});
  wf.add_processor("P2", {"in"}, {"out"});
  wf.add_processor("P3", {"in"}, {"loop", "exit"});
  wf.add_sink("Sink");
  wf.link("Source", "out", "P1", "in");
  wf.link("P1", "out", "P2", "in");
  wf.link("P2", "out", "P3", "in");
  wf.link("P3", "loop", "P2", "in", /*feedback=*/true);
  wf.link("P3", "exit", "Sink", "in");
  return wf;
}

TEST(Workflow, ValidatesFigure1) {
  EXPECT_NO_THROW(figure1().validate());
}

TEST(Workflow, FeedbackLoopIsLegalOnlyWhenMarked) {
  EXPECT_NO_THROW(figure2().validate());

  Workflow bad("bad");
  bad.add_source("s");
  bad.add_processor("A", {"in", "back"}, {"out"});
  bad.add_processor("B", {"in"}, {"out"});
  bad.link("s", "out", "A", "in");
  bad.link("A", "out", "B", "in");
  bad.link("B", "out", "A", "back");  // unmarked cycle
  EXPECT_THROW(bad.validate(), GraphError);
}

TEST(Workflow, TopologicalPositionsStopShortOfACycle) {
  // Positions in processors(): s=0, A=1, B=2, C=3, sink=4. Seeds in name
  // order, successors in link order; the feedback link is no edge.
  Workflow wf("cycle");
  wf.add_source("s");
  wf.add_processor("A", {"in", "back"}, {"out"});
  wf.add_processor("B", {"in"}, {"out"});
  wf.add_processor("C", {"in"}, {"out"});
  wf.add_sink("sink");
  wf.link("s", "out", "A", "in");
  wf.link("A", "out", "B", "in");
  wf.link("s", "out", "C", "in");
  wf.link("C", "out", "sink", "in");
  wf.link("B", "out", "A", "back", /*feedback=*/true);
  EXPECT_EQ(wf.topology().order, (std::vector<std::size_t>{0, 1, 3, 2, 4}));

  wf.remove_processor("B");
  wf.add_processor("B", {"in"}, {"out"});
  wf.link("A", "out", "B", "in");
  // The same loop unmarked (B is now position 4): the pass stops short of
  // the cycle.
  wf.link("B", "out", "A", "back");
  EXPECT_EQ(wf.topology().order, (std::vector<std::size_t>{0, 2, 3}));
  try {
    wf.validate();
    FAIL() << "a non-feedback cycle validated";
  } catch (const GraphError& e) {
    EXPECT_STREQ(e.what(), "graph error: workflow contains a cycle not marked as feedback");
  }
  EXPECT_THROW(topological_order(wf), GraphError);
}

TEST(Workflow, RejectsStructuralErrors) {
  Workflow wf("w");
  wf.add_source("s");
  EXPECT_THROW(wf.add_source("s"), GraphError);  // duplicate name

  wf.add_processor("P", {"a"}, {"b"});
  EXPECT_THROW(wf.link("s", "nope", "P", "a"), GraphError);   // bad from port
  EXPECT_THROW(wf.link("s", "out", "P", "nope"), GraphError);  // bad to port
  EXPECT_THROW(wf.link("s", "out", "Q", "a"), GraphError);     // unknown processor
  EXPECT_THROW(wf.validate(), GraphError);  // P.a unconnected
}

TEST(Workflow, SourceAndSinkShape) {
  Workflow wf("w");
  Processor bad_source;
  bad_source.name = "s";
  bad_source.kind = ProcessorKind::kSource;
  bad_source.input_ports = {"x"};  // sources must not have inputs
  bad_source.output_ports = {"out"};
  wf.add_processor(bad_source);
  EXPECT_THROW(wf.validate(), GraphError);
}

TEST(Workflow, AccessorsAndRemoval) {
  Workflow wf = figure1();
  EXPECT_EQ(wf.sources().size(), 1u);
  EXPECT_EQ(wf.sinks().size(), 1u);
  EXPECT_EQ(wf.services().size(), 3u);
  const auto links_where = [&](auto touches) {
    return std::count_if(wf.links().begin(), wf.links().end(), touches);
  };
  EXPECT_EQ(links_where([](const Link& l) { return l.from_processor == "P1"; }), 2);
  EXPECT_EQ(links_where([](const Link& l) { return l.to_processor == "sink"; }), 2);
  EXPECT_EQ(wf.links_into_port("P2", "in").size(), 1u);

  wf.remove_processor("P3");
  EXPECT_FALSE(wf.has_processor("P3"));
  EXPECT_EQ(links_where([](const Link& l) { return l.to_processor == "sink"; }), 1);
}

TEST(Analysis, TopologicalOrderRespectsEdges) {
  const Workflow wf = figure1();
  const auto order = topological_order(wf);
  const auto pos = [&](const std::string& name) {
    return std::find(order.begin(), order.end(), name) - order.begin();
  };
  EXPECT_LT(pos("src"), pos("P1"));
  EXPECT_LT(pos("P1"), pos("P2"));
  EXPECT_LT(pos("P1"), pos("P3"));
  EXPECT_LT(pos("P2"), pos("sink"));
}

TEST(Analysis, TopologicalOrderIgnoresFeedback) {
  EXPECT_NO_THROW(topological_order(figure2()));
}

TEST(Analysis, AncestorsAndDescendants) {
  const Workflow wf = figure1();
  EXPECT_EQ(ancestors(wf, "P2"), (std::set<std::string>{"src", "P1"}));
  EXPECT_EQ(descendants(wf, "P1"), (std::set<std::string>{"P2", "P3", "sink"}));
  EXPECT_TRUE(ancestors(wf, "src").empty());
  EXPECT_THROW(ancestors(wf, "nope"), GraphError);
}

TEST(Analysis, CoordinationConstraintsActAsEdges) {
  Workflow wf = figure1();
  wf.add_coordination_constraint("P2", "P3");
  EXPECT_TRUE(ancestors(wf, "P3").count("P2"));
  const auto order = topological_order(wf);
  const auto pos = [&](const std::string& name) {
    return std::find(order.begin(), order.end(), name) - order.begin();
  };
  EXPECT_LT(pos("P2"), pos("P3"));
}

TEST(Analysis, CriticalPathOfFigure1) {
  const Workflow wf = figure1();
  EXPECT_EQ(critical_path_length(wf), 2u);  // P1 -> {P2 or P3}
  const Path path = critical_path(wf);
  EXPECT_EQ(path.services.size(), 2u);
  EXPECT_EQ(path.services.front(), "P1");
}

TEST(Analysis, CriticalPathWithWeights) {
  const Workflow wf = figure1();
  std::map<std::string, double> weights{{"P1", 1.0}, {"P2", 10.0}, {"P3", 1.0}};
  const Path path = critical_path(wf, &weights);
  EXPECT_EQ(path.services, (std::vector<std::string>{"P1", "P2"}));
  EXPECT_DOUBLE_EQ(path.weight, 11.0);
}

TEST(Analysis, CriticalPathTieGoesToTheSmallerName) {
  // Two equal branches: s -> Zeta -> Omega and s -> Beta -> Alpha, both into
  // the sink. Omega, Alpha and the sink all weigh 2; the path ends at the
  // smallest name, not at the first declared.
  Workflow wf("tie");
  wf.add_source("s");
  for (const char* name : {"Zeta", "Omega", "Beta", "Alpha"}) {
    wf.add_processor(name, {"in"}, {"out"});
  }
  wf.add_sink("sink");
  wf.link("s", "out", "Zeta", "in");
  wf.link("Zeta", "out", "Omega", "in");
  wf.link("Omega", "out", "sink", "in");
  wf.link("s", "out", "Beta", "in");
  wf.link("Beta", "out", "Alpha", "in");
  wf.link("Alpha", "out", "sink", "in");
  Path path = critical_path(wf);
  EXPECT_EQ(path.services, (std::vector<std::string>{"Beta", "Alpha"}));
  EXPECT_DOUBLE_EQ(path.weight, 2.0);

  // Joined instead of sunk, the branches tie at the join: its predecessor is
  // the first strict improvement in topological order, Omega before Alpha.
  Workflow joined("join");
  joined.add_source("s");
  for (const char* name : {"Zeta", "Omega", "Beta", "Alpha"}) {
    joined.add_processor(name, {"in"}, {"out"});
  }
  joined.add_processor("Join", {"x", "y"}, {"out"});
  joined.add_sink("sink");
  joined.link("s", "out", "Zeta", "in");
  joined.link("Zeta", "out", "Omega", "in");
  joined.link("s", "out", "Beta", "in");
  joined.link("Beta", "out", "Alpha", "in");
  joined.link("Alpha", "out", "Join", "y");
  joined.link("Omega", "out", "Join", "x");
  joined.link("Join", "out", "sink", "in");
  path = critical_path(joined);
  EXPECT_EQ(path.services, (std::vector<std::string>{"Zeta", "Omega", "Join"}));
  EXPECT_DOUBLE_EQ(path.weight, 3.0);
}

TEST(Analysis, ReachabilitySkipsFeedbackAndFollowsConstraints) {
  // s -> A -> B -> C -> sink with the feedback link C -> A, and s -> D ->
  // sink with the constraint "D before B".
  Workflow wf("loop");
  wf.add_source("s");
  wf.add_processor("A", {"in", "back"}, {"out"});
  wf.add_processor("B", {"in"}, {"out"});
  wf.add_processor("C", {"in"}, {"loop", "exit"});
  wf.add_processor("D", {"in"}, {"out"});
  wf.add_sink("sink");
  wf.link("s", "out", "A", "in");
  wf.link("A", "out", "B", "in");
  wf.link("B", "out", "C", "in");
  wf.link("C", "loop", "A", "back", /*feedback=*/true);
  wf.link("C", "exit", "sink", "in");
  wf.link("s", "out", "D", "in");
  wf.link("D", "out", "sink", "in");
  wf.add_coordination_constraint("D", "B");
  ASSERT_NO_THROW(wf.validate());

  const Reachability reach = reachability(wf, wf.topology());
  ASSERT_EQ(reach.n, 6u);
  // Rows and columns in declaration order: s, A, B, C, D, sink.
  const std::vector<std::string> expected = {
      "011111",  // s
      "001101",  // A
      "000101",  // B
      "000001",  // C: the feedback link to A is no edge
      "001101",  // D: B by the constraint, then C
      "000000",  // sink
  };
  for (std::size_t from = 0; from < reach.n; ++from) {
    std::string row;
    for (std::size_t to = 0; to < reach.n; ++to) row += reach.reaches(from, to) ? '1' : '0';
    EXPECT_EQ(row, expected[from]) << wf.processors()[from].name;
  }
  EXPECT_EQ(ancestors(wf, "C"), (std::set<std::string>{"s", "A", "B", "D"}));
  EXPECT_EQ(descendants(wf, "D"), (std::set<std::string>{"B", "C", "sink"}));

  // Around a cycle not marked as feedback, a processor reaches itself.
  Workflow cycle("cycle");
  cycle.add_processor("X", {"in"}, {"out"});
  cycle.add_processor("Y", {"in"}, {"out"});
  cycle.link("X", "out", "Y", "in");
  cycle.link("Y", "out", "X", "in");
  const Reachability around = reachability(cycle, cycle.topology());
  EXPECT_TRUE(around.reaches(0, 0));
  EXPECT_TRUE(around.reaches(1, 0));
  EXPECT_EQ(ancestors(cycle, "X"), (std::set<std::string>{"X", "Y"}));
}

TEST(Analysis, BronzeStandardCriticalPathIs5) {
  // The paper states nW = 5 for the Bronze-Standard workflow (§5.1).
  EXPECT_EQ(critical_path_length(app::bronze_standard_workflow()), 5u);
}

TEST(Analysis, SynchronizationLayers) {
  Workflow wf("w");
  wf.add_source("s");
  wf.add_processor("A", {"in"}, {"out"});
  auto& barrier = wf.add_processor("B", {"in"}, {"out"});
  barrier.synchronization = true;
  wf.add_processor("C", {"in"}, {"out"});
  wf.add_sink("k");
  wf.link("s", "out", "A", "in");
  wf.link("A", "out", "B", "in");
  wf.link("B", "out", "C", "in");
  wf.link("C", "out", "k", "in");

  const auto layers = synchronization_layers(wf);
  ASSERT_EQ(layers.size(), 2u);
  EXPECT_EQ(layers[0], (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(layers[1], (std::vector<std::string>{"C"}));
}

TEST(Analysis, DotRendering) {
  const std::string dot = to_dot(figure2());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // feedback link
}

TEST(Scufl, RoundTripPreservesEverything) {
  Workflow wf = figure2();
  wf.processor("P2").service_id = "svc-p2";
  wf.processor("P3").synchronization = false;
  wf.processor("P1").iteration = IterationStrategy::kCross;
  wf.add_coordination_constraint("P1", "P3");

  const Workflow parsed = from_scufl(to_scufl(wf));
  EXPECT_EQ(parsed.name(), "figure2");
  EXPECT_EQ(parsed.processors().size(), wf.processors().size());
  EXPECT_EQ(parsed.processor("P2").service_id, "svc-p2");
  EXPECT_EQ(parsed.processor("P1").iteration, IterationStrategy::kCross);
  EXPECT_EQ(parsed.links().size(), wf.links().size());
  ASSERT_EQ(parsed.coordination_constraints().size(), 1u);
  EXPECT_EQ(parsed.coordination_constraints()[0].before, "P1");

  // The feedback flag survives.
  bool found_feedback = false;
  for (const auto& link : parsed.links()) {
    if (link.feedback) {
      found_feedback = true;
      EXPECT_EQ(link.from_processor, "P3");
      EXPECT_EQ(link.to_processor, "P2");
    }
  }
  EXPECT_TRUE(found_feedback);
}

TEST(Scufl, BronzeStandardRoundTrip) {
  const Workflow wf = app::bronze_standard_workflow();
  const Workflow parsed = from_scufl(to_scufl(wf));
  EXPECT_EQ(parsed.processors().size(), wf.processors().size());
  EXPECT_EQ(parsed.links().size(), wf.links().size());
  EXPECT_TRUE(parsed.processor("MultiTransfoTest").synchronization);
  EXPECT_EQ(critical_path_length(parsed), 5u);
}

TEST(Scufl, RejectsMalformedDocuments) {
  EXPECT_THROW(from_scufl("<notaworkflow/>"), ParseError);
  EXPECT_THROW(from_scufl("<workflow><mystery/></workflow>"), ParseError);
  EXPECT_THROW(from_scufl("<workflow><processor name=\"p\">"
                          "<input name=\"a\"/></processor></workflow>"),
               GraphError);  // validation: unconnected input
}

}  // namespace
}  // namespace moteur::workflow
