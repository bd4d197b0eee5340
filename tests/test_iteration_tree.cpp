// Composed iteration strategies (the (a·b)×c trees extending the paper's
// two base strategies): unit semantics, order invariance, Scufl round-trip
// and end-to-end enactment.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <utility>

#include "data/dataset.hpp"
#include "enactor/enactor.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/threaded_backend.hpp"
#include "grid/grid.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workflow/iteration_tree.hpp"
#include "workflow/scufl.hpp"

namespace moteur::workflow {
namespace {

using data::IndexVector;
using data::Token;

Token tok(const std::string& source, std::size_t index) {
  return Token::from_source(source, index, static_cast<int>(index),
                            std::to_string(index));
}

IterationNode abc_tree() {
  return IterationNode::cross(
      {IterationNode::dot({IterationNode::leaf("a"), IterationNode::leaf("b")}),
       IterationNode::leaf("c")});
}

TEST(IterationNodeTest, PortsValidateToString) {
  const IterationNode tree = abc_tree();
  EXPECT_EQ(tree.ports(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_NO_THROW(tree.validate());
  EXPECT_EQ(tree.to_string(), "cross(dot(a,b),c)");
}

TEST(IterationNodeTest, RejectsMalformedTrees) {
  EXPECT_THROW(IterationNode::dot({}).validate(), GraphError);
  EXPECT_THROW(IterationNode::leaf("").validate(), GraphError);
  // Duplicate port.
  EXPECT_THROW(
      IterationNode::dot({IterationNode::leaf("a"), IterationNode::leaf("a")}).validate(),
      GraphError);
}

TEST(CompositeBuffer, DotOverCrossGroupsComparesWholeGroups) {
  // dot(cross(a,b), cross(c,d)): each dot member is a whole cross group, so
  // the causality check compares a group's items of a source — the union
  // over its leaves — never leaf against leaf.
  const IterationNode tree = IterationNode::dot(
      {IterationNode::cross({IterationNode::leaf("a"), IterationNode::leaf("b")}),
       IterationNode::cross({IterationNode::leaf("c"), IterationNode::leaf("d")})});
  {
    // a = S[0] and b = S[1] differ leaf by leaf, but both groups carry
    // items {0,1} of S: one 4-token tuple fires.
    CompositeIterationBuffer buffer(tree);
    buffer.push("a", tok("S", 0));
    buffer.push("b", tok("S", 1));
    buffer.push("c", tok("S", 0));
    buffer.push("d", tok("S", 1));
    const auto ready = buffer.drain_ready();
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0].index, (IndexVector{0, 1}));
    std::vector<std::string> ids;
    for (const auto& token : ready[0].tokens) ids.push_back(token.id());
    EXPECT_EQ(ids, (std::vector<std::string>{"S[0]", "S[1]", "S[0]", "S[1]"}));
  }
  {
    // c claims index {0} but descends from S[2]: the group (c, d) carries
    // items {1,2} of S where (a, b) carries {0,1}.
    CompositeIterationBuffer buffer(tree);
    buffer.push("a", tok("S", 0));
    buffer.push("b", tok("S", 1));
    buffer.push("d", tok("S", 1));
    const Token forged =
        Token::derived("p", "out", {tok("S", 2)}, IndexVector{0}, 2, "forged");
    try {
      buffer.push("c", forged);
      FAIL() << "a dot over contradictory groups fired";
    } catch (const EnactmentError& e) {
      EXPECT_EQ(std::string(e.what()),
                "enactment error: causality violation: tuple mixes items [1,2] and [0,1] "
                "of source 'S'");
    }
  }
}

TEST(CompositeBuffer, FlatDotMatchesPlainBuffer) {
  CompositeIterationBuffer buffer(
      IterationNode::dot({IterationNode::leaf("a"), IterationNode::leaf("b")}));
  buffer.push("a", tok("A", 0));
  buffer.push("b", tok("B", 1));
  buffer.push("b", tok("B", 0));
  const auto ready = buffer.drain_ready();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].index, (IndexVector{0}));
  EXPECT_EQ(ready[0].tokens.size(), 2u);
  EXPECT_EQ(ready[0].tokens[0].id(), "A[0]");
}

TEST(CompositeBuffer, DotCrossComposition) {
  // (a . b) x c with |a|=3, |b|=2, |c|=2: min(3,2) * 2 = 4 tuples.
  CompositeIterationBuffer buffer(abc_tree());
  for (std::size_t i = 0; i < 3; ++i) buffer.push("a", tok("A", i));
  for (std::size_t i = 0; i < 2; ++i) buffer.push("b", tok("B", i));
  for (std::size_t i = 0; i < 2; ++i) buffer.push("c", tok("C", i));
  const auto ready = buffer.drain_ready();
  EXPECT_EQ(ready.size(), 4u);

  std::set<IndexVector> indices;
  for (const auto& tuple : ready) {
    ASSERT_EQ(tuple.tokens.size(), 3u);       // flattened leaves a, b, c
    ASSERT_EQ(tuple.index.size(), 2u);        // (pair rank, c rank)
    indices.insert(tuple.index);
    // a and b leaves share the rank (dot), c is free (cross).
    EXPECT_EQ(tuple.tokens[0].indices(), tuple.tokens[1].indices());
  }
  EXPECT_EQ(indices.size(), 4u);
  EXPECT_TRUE(indices.count(IndexVector{1, 1}));
}

TEST(CompositeBuffer, ThreeLevelTree) {
  // cross(dot(a,b), cross(c,d)): min(2,2) * (2*2) = 8 tuples, index length 3.
  const IterationNode tree = IterationNode::cross(
      {IterationNode::dot({IterationNode::leaf("a"), IterationNode::leaf("b")}),
       IterationNode::cross({IterationNode::leaf("c"), IterationNode::leaf("d")})});
  CompositeIterationBuffer buffer(tree);
  for (const char* port : {"a", "b", "c", "d"}) {
    buffer.push(port, tok(port, 0));
    buffer.push(port, tok(port, 1));
  }
  const auto ready = buffer.drain_ready();
  EXPECT_EQ(ready.size(), 8u);
  for (const auto& tuple : ready) {
    EXPECT_EQ(tuple.tokens.size(), 4u);
    EXPECT_EQ(tuple.index.size(), 3u);
  }
}

TEST(CompositeBuffer, MismatchedIndexShapesProduceNothing) {
  // dot(cross(a,b), c): the left side has composite indices of length 2,
  // c has length 1 — nothing can match (a legal but empty strategy).
  const IterationNode tree = IterationNode::dot(
      {IterationNode::cross({IterationNode::leaf("a"), IterationNode::leaf("b")}),
       IterationNode::leaf("c")});
  CompositeIterationBuffer buffer(tree);
  buffer.push("a", tok("A", 0));
  buffer.push("b", tok("B", 0));
  buffer.push("c", tok("C", 0));
  EXPECT_TRUE(buffer.drain_ready().empty());
  EXPECT_GT(buffer.pending_tokens(), 0u);
}

TEST(CompositeBuffer, ClosureTracksLeavesAndPropagates) {
  CompositeIterationBuffer buffer(abc_tree());
  EXPECT_FALSE(buffer.all_closed());
  buffer.close("a");
  buffer.close("b");
  EXPECT_TRUE(buffer.is_closed("a"));
  EXPECT_FALSE(buffer.all_closed());
  buffer.close("c");
  EXPECT_TRUE(buffer.all_closed());
  EXPECT_THROW(buffer.push("a", tok("A", 0)), EnactmentError);
  EXPECT_THROW(buffer.push("zz", tok("Z", 0)), EnactmentError);
}

TEST(CompositeBuffer, SlotsAreLeafPositions) {
  // cross(dot(r, f), v): leaf positions 0, 1, 2 are r, f, v.
  CompositeIterationBuffer buffer(IterationNode::cross(
      {IterationNode::dot({IterationNode::leaf("r"), IterationNode::leaf("f")}),
       IterationNode::leaf("v")}));
  ASSERT_EQ(buffer.ports(), (std::vector<std::string>{"r", "f", "v"}));
  buffer.push(std::size_t{2}, tok("V", 0));
  buffer.push(std::size_t{0}, tok("R", 0));
  buffer.push("f", tok("F", 0));
  const auto ready = buffer.drain_ready();
  ASSERT_EQ(ready.size(), 1u);
  EXPECT_EQ(ready[0].tokens[0].provenance()->source_indices().count("R"), 1u);
  EXPECT_EQ(ready[0].tokens[1].provenance()->source_indices().count("F"), 1u);
  EXPECT_EQ(ready[0].tokens[2].provenance()->source_indices().count("V"), 1u);
  buffer.close(std::size_t{2});
  EXPECT_TRUE(buffer.is_closed("v"));
  EXPECT_TRUE(buffer.is_closed(std::size_t{2}));
  EXPECT_FALSE(buffer.is_closed(std::size_t{0}));
  EXPECT_THROW(buffer.push(std::size_t{2}, tok("V", 1)), EnactmentError);
  EXPECT_THROW(buffer.push(std::size_t{3}, tok("V", 1)), InternalError);
  EXPECT_THROW(buffer.close(std::size_t{3}), InternalError);
  EXPECT_THROW((void)buffer.is_closed(std::size_t{3}), InternalError);
}

TEST(CompositeBuffer, OrderInvariantUnderShuffle) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    std::vector<std::pair<std::string, Token>> pushes;
    for (std::size_t i = 0; i < 4; ++i) pushes.emplace_back("a", tok("A", i));
    for (std::size_t i = 0; i < 4; ++i) pushes.emplace_back("b", tok("B", i));
    for (std::size_t i = 0; i < 3; ++i) pushes.emplace_back("c", tok("C", i));
    Rng rng(seed);
    rng.shuffle(pushes);

    CompositeIterationBuffer buffer(abc_tree());
    std::set<IndexVector> fired;
    for (auto& [port, token] : pushes) {
      buffer.push(port, std::move(token));
      for (const auto& tuple : buffer.drain_ready()) {
        EXPECT_TRUE(fired.insert(tuple.index).second);
      }
    }
    EXPECT_EQ(fired.size(), 4u * 3u) << "seed " << seed;
  }
}

TEST(IterationTreeScufl, RoundTrip) {
  Workflow wf("tree");
  wf.add_source("A");
  wf.add_source("B");
  wf.add_source("C");
  auto& proc = wf.add_processor("P", {"a", "b", "c"}, {"out"});
  proc.iteration_tree = std::make_shared<const IterationNode>(abc_tree());
  wf.add_sink("k");
  wf.link("A", "out", "P", "a");
  wf.link("B", "out", "P", "b");
  wf.link("C", "out", "P", "c");
  wf.link("P", "out", "k", "in");
  wf.validate();

  const Workflow parsed = from_scufl(to_scufl(wf));
  ASSERT_NE(parsed.processor("P").iteration_tree, nullptr);
  EXPECT_EQ(parsed.processor("P").iteration_tree->to_string(), "cross(dot(a,b),c)");
}

TEST(IterationTreeScufl, ValidationRequiresFullPortCoverage) {
  Workflow wf("bad");
  wf.add_source("A");
  wf.add_source("B");
  auto& proc = wf.add_processor("P", {"a", "b"}, {"out"});
  proc.iteration_tree = std::make_shared<const IterationNode>(
      IterationNode::dot({IterationNode::leaf("a")}));  // misses "b"
  wf.add_sink("k");
  wf.link("A", "out", "P", "a");
  wf.link("B", "out", "P", "b");
  wf.link("P", "out", "k", "in");
  EXPECT_THROW(wf.validate(), GraphError);
}

TEST(IterationTreeEnactment, EndToEndCounts) {
  // Register pairs of images (dot) against every algorithm variant (cross):
  // min(3,3) pairs x 2 variants = 6 invocations.
  Workflow wf("sweep");
  wf.add_source("ref");
  wf.add_source("flo");
  wf.add_source("variant");
  auto& proc = wf.add_processor("reg", {"r", "f", "v"}, {"t"});
  proc.iteration_tree = std::make_shared<const IterationNode>(IterationNode::cross(
      {IterationNode::dot({IterationNode::leaf("r"), IterationNode::leaf("f")}),
       IterationNode::leaf("v")}));
  wf.add_sink("out");
  wf.link("ref", "out", "reg", "r");
  wf.link("flo", "out", "reg", "f");
  wf.link("variant", "out", "reg", "v");
  wf.link("reg", "t", "out", "in");

  sim::Simulator simulator;
  grid::Grid grid(simulator, grid::GridConfig::constant(10.0));
  enactor::SimGridBackend backend(grid);
  services::ServiceRegistry registry;
  registry.add(services::make_simulated_service("reg", {"r", "f", "v"}, {"t"},
                                                services::JobProfile{30.0}));

  data::InputDataSet ds;
  for (int j = 0; j < 3; ++j) {
    ds.add_item("ref", "r" + std::to_string(j));
    ds.add_item("flo", "f" + std::to_string(j));
  }
  ds.add_item("variant", "rigid");
  ds.add_item("variant", "robust");

  enactor::Enactor moteur(backend, registry, enactor::EnactmentPolicy::sp_dp());
  const auto result = moteur.run({.workflow = wf, .inputs = ds});
  EXPECT_EQ(result.invocations(), 6u);
  const auto& tokens = result.sink_outputs.at("out");
  ASSERT_EQ(tokens.size(), 6u);
  for (const auto& token : tokens) {
    EXPECT_EQ(token.indices().size(), 2u);
    // Each result descends from a matched (ref, flo) pair and one variant.
    const auto sources = token.provenance()->source_indices();
    EXPECT_EQ(sources.at("ref"), sources.at("flo"));
    EXPECT_EQ(sources.at("variant").size(), 1u);
  }
}

TEST(IterationTreeEnactment, EachPortReceivesItsOwnSourceWhenLeafOrderDiffers) {
  // Ports declared {v, r, f}, tree cross(dot(r, f), v): the leaf order r, f,
  // v differs from the declared order, so a token routed by its port's
  // declared position would land on another port.
  Workflow wf("sweep-reordered");
  wf.add_source("ref");
  wf.add_source("flo");
  wf.add_source("variant");
  auto& proc = wf.add_processor("reg", {"v", "r", "f"}, {"t"});
  proc.iteration_tree = std::make_shared<const IterationNode>(IterationNode::cross(
      {IterationNode::dot({IterationNode::leaf("r"), IterationNode::leaf("f")}),
       IterationNode::leaf("v")}));
  wf.add_sink("out");
  wf.link("ref", "out", "reg", "r");
  wf.link("flo", "out", "reg", "f");
  wf.link("variant", "out", "reg", "v");
  wf.link("reg", "t", "out", "in");

  std::atomic<int> misrouted{0};
  services::ServiceRegistry registry;
  registry.add(std::make_shared<services::FunctionalService>(
      "reg", std::vector<std::string>{"v", "r", "f"}, std::vector<std::string>{"t"},
      [&misrouted](const services::Inputs& in) {
        for (const auto& [port, prefix] :
             {std::pair{"r", "ref-"}, std::pair{"f", "flo-"}, std::pair{"v", "var-"}}) {
          if (in.at(port).repr().rfind(prefix, 0) != 0) ++misrouted;
        }
        services::Result result;
        result.outputs["t"] = services::OutputValue{0, "t"};
        return result;
      }));

  data::InputDataSet ds;
  for (int j = 0; j < 3; ++j) {
    ds.add_item("ref", "ref-" + std::to_string(j));
    ds.add_item("flo", "flo-" + std::to_string(j));
  }
  ds.add_item("variant", "var-rigid");
  ds.add_item("variant", "var-robust");

  enactor::ThreadedBackend backend(2);
  enactor::Enactor moteur(backend, registry, enactor::EnactmentPolicy::sp_dp());
  const auto result = moteur.run({.workflow = wf, .inputs = ds});
  EXPECT_EQ(result.invocations(), 6u);
  EXPECT_EQ(misrouted.load(), 0);
  ASSERT_EQ(result.sink_outputs.at("out").size(), 6u);
  for (const auto& token : result.sink_outputs.at("out")) {
    const auto sources = token.provenance()->source_indices();
    EXPECT_EQ(sources.at("ref"), sources.at("flo"));
    EXPECT_EQ(sources.at("variant").size(), 1u);
  }
}

}  // namespace
}  // namespace moteur::workflow
