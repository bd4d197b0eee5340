#include <gtest/gtest.h>

#include "app/bronze_standard.hpp"
#include "data/provenance_xml.hpp"
#include "enactor/enactor.hpp"
#include "enactor/manifest.hpp"
#include "enactor/sim_backend.hpp"
#include "grid/grid.hpp"
#include "services/catalog.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "xml/xml.hpp"

namespace moteur {
namespace {

// ---------------------------------------------------------------------------
// Service catalog
// ---------------------------------------------------------------------------

const char* kCatalog = R"(<services>
  <service id="prepare" compute="120" inputMB="7.8" outputMB="7.8">
    <input name="img"/><output name="clean"/>
  </service>
  <service id="analyze" compute="300" inputMB="7.8">
    <input name="img"/><output name="report"/>
  </service>
</services>)";

TEST(Catalog, ParsesEntries) {
  const auto entries = services::parse_catalog(kCatalog);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].id, "prepare");
  EXPECT_DOUBLE_EQ(entries[0].profile.compute_seconds, 120.0);
  EXPECT_DOUBLE_EQ(entries[0].profile.input_megabytes, 7.8);
  EXPECT_DOUBLE_EQ(entries[1].profile.output_megabytes, 0.0);  // default
  EXPECT_EQ(entries[1].input_ports, (std::vector<std::string>{"img"}));
}

TEST(Catalog, RoundTripThroughXml) {
  const auto entries = services::parse_catalog(kCatalog);
  const auto again = services::parse_catalog(services::to_catalog_xml(entries));
  ASSERT_EQ(again.size(), entries.size());
  EXPECT_EQ(again[0].id, entries[0].id);
  EXPECT_DOUBLE_EQ(again[1].profile.compute_seconds, entries[1].profile.compute_seconds);
  EXPECT_EQ(again[0].output_ports, entries[0].output_ports);
}

TEST(Catalog, LoadRegistersSimulatedServices) {
  services::ServiceRegistry registry;
  EXPECT_EQ(services::load_catalog(kCatalog, registry), 2u);
  EXPECT_TRUE(registry.has("prepare"));
  const auto service = registry.get("analyze");
  services::Inputs inputs;
  inputs.emplace("img", data::Token::from_source("s", 0, std::string("x"), "x"));
  EXPECT_DOUBLE_EQ(service->job_profile(inputs).compute_seconds, 300.0);
}

TEST(Catalog, RejectsMalformedDocuments) {
  EXPECT_THROW(services::parse_catalog("<nope/>"), ParseError);
  EXPECT_THROW(services::parse_catalog(
                   "<services><service id=\"a\" compute=\"x\">"
                   "<input name=\"i\"/></service></services>"),
               ParseError);  // non-numeric compute
  EXPECT_THROW(services::parse_catalog(
                   "<services><service id=\"a\" compute=\"1\"/></services>"),
               ParseError);  // no input ports
  EXPECT_THROW(services::parse_catalog(
                   "<services>"
                   "<service id=\"a\" compute=\"1\"><input name=\"i\"/></service>"
                   "<service id=\"a\" compute=\"2\"><input name=\"i\"/></service>"
                   "</services>"),
               ParseError);  // duplicate id
  EXPECT_THROW(services::parse_catalog(
                   "<services><service id=\"a\" compute=\"-5\">"
                   "<input name=\"i\"/></service></services>"),
               ParseError);  // negative cost
}

// ---------------------------------------------------------------------------
// Policy element
// ---------------------------------------------------------------------------

TEST(PolicyXml, RoundTrip) {
  enactor::RunManifest manifest;
  manifest.workflow = app::bronze_standard_workflow();
  manifest.inputs = app::bronze_standard_dataset(1);
  manifest.policy = enactor::EnactmentPolicy::sp_dp_jg();
  manifest.policy.data_parallelism_cap = 8;
  manifest.policy.batch_size = 4;
  manifest.policy.adaptive_batching = true;
  manifest.policy.overhead_fraction_target = 0.25;
  manifest.policy.max_batch = 32;

  const enactor::EnactmentPolicy parsed =
      enactor::RunManifest::from_xml(manifest.to_xml()).policy;
  EXPECT_EQ(parsed.name(), "SP+DP+JG");
  EXPECT_EQ(parsed.data_parallelism_cap, 8u);
  EXPECT_EQ(parsed.batch_size, 4u);
  EXPECT_TRUE(parsed.adaptive_batching);
  EXPECT_DOUBLE_EQ(parsed.overhead_fraction_target, 0.25);
  EXPECT_EQ(parsed.max_batch, 32u);
}

// ---------------------------------------------------------------------------
// Run manifest
// ---------------------------------------------------------------------------

TEST(Manifest, RoundTripPreservesEverything) {
  enactor::RunManifest manifest;
  manifest.workflow = app::bronze_standard_workflow();
  manifest.inputs = app::bronze_standard_dataset(5);
  manifest.policy = enactor::EnactmentPolicy::sp_dp();
  manifest.policy.batch_size = 2;
  manifest.grid_preset = "constant";
  manifest.constant_overhead_seconds = 450.0;
  manifest.seed = 77;

  const auto parsed = enactor::RunManifest::from_xml(manifest.to_xml());
  EXPECT_EQ(parsed.workflow.name(), "bronzeStandard");
  EXPECT_EQ(parsed.workflow.processors().size(), manifest.workflow.processors().size());
  EXPECT_EQ(parsed.inputs.item_count("referenceImage"), 5u);
  EXPECT_EQ(parsed.policy.name(), "SP+DP");
  EXPECT_EQ(parsed.policy.batch_size, 2u);
  EXPECT_EQ(parsed.grid_preset, "constant");
  EXPECT_DOUBLE_EQ(parsed.constant_overhead_seconds, 450.0);
  EXPECT_EQ(parsed.seed, 77u);
  EXPECT_DOUBLE_EQ(parsed.make_grid_config().submission_latency.constant, 450.0);
}

TEST(Manifest, RejectsBadPresetAndMissingParts) {
  enactor::RunManifest manifest;
  manifest.workflow = app::bronze_standard_workflow();
  manifest.inputs = app::bronze_standard_dataset(1);
  manifest.grid_preset = "mainframe";
  EXPECT_THROW(manifest.make_grid_config(), ParseError);
  EXPECT_THROW(enactor::RunManifest::from_xml("<run/>"), ParseError);
}

TEST(Manifest, LoadedManifestEnactsIdentically) {
  // Serialize a run and replay it: same makespan, same results.
  enactor::RunManifest manifest;
  manifest.workflow = app::bronze_standard_workflow();
  manifest.inputs = app::bronze_standard_dataset(4);
  manifest.policy = enactor::EnactmentPolicy::sp_dp_jg();
  manifest.grid_preset = "egee2006";
  manifest.seed = 3;

  const auto run_it = [](const enactor::RunManifest& m) {
    sim::Simulator simulator;
    grid::Grid grid(simulator, m.make_grid_config());
    enactor::SimGridBackend backend(grid);
    services::ServiceRegistry registry;
    app::register_simulated_services(registry);
    enactor::Enactor moteur(backend, registry, m.policy);
    return moteur.run({.workflow = m.workflow, .inputs = m.inputs}).makespan();
  };
  const double original = run_it(manifest);
  const double replayed = run_it(enactor::RunManifest::from_xml(manifest.to_xml()));
  EXPECT_DOUBLE_EQ(original, replayed);
}

// ---------------------------------------------------------------------------
// Provenance export
// ---------------------------------------------------------------------------

TEST(ProvenanceExport, TreeSerialization) {
  const auto tree = data::Provenance::derived(
      "crestMatch", "t",
      {data::Provenance::derived("crestLines", "c1",
                                 {data::Provenance::source("referenceImage", 2)})});
  const std::string doc = data::provenance_to_xml(*tree);
  const xml::Document parsed = xml::parse(doc);
  const xml::Node& derivation = parsed.root().required_child("derivation");
  EXPECT_EQ(derivation.attribute("producer"), "crestMatch");
  const xml::Node& inner = derivation.required_child("derivation");
  EXPECT_EQ(inner.attribute("producer"), "crestLines");
  EXPECT_EQ(inner.required_child("item").attribute("index"), "2");
}

TEST(ProvenanceExport, RunLevelExportCoversEverySinkToken) {
  std::map<std::string, std::vector<data::Token>> sinks;
  for (std::size_t j = 0; j < 3; ++j) {
    const auto base = data::Token::from_source("src", j, static_cast<int>(j), "x");
    sinks["out"].push_back(
        data::Token::derived("P", "o", {base}, base.indices(), 0, "r"));
  }
  const xml::Document parsed = xml::parse(data::export_provenance(sinks));
  EXPECT_EQ(parsed.root().children_named("result").size(), 3u);
  EXPECT_EQ(parsed.root().children_named("result")[1]->attribute("index"), "[1]");
}

TEST(ProvenanceExport, SummaryStats) {
  const auto a = data::Provenance::source("A", 0);
  const auto b = data::Provenance::source("B", 1);
  const auto mid = data::Provenance::derived("P", "o", {a, b});
  const auto top = data::Provenance::derived("Q", "o", {mid, a});
  const auto stats = data::summarize(*top);
  EXPECT_EQ(stats.nodes, 4u);         // Q, P, A, B (A shared)
  EXPECT_EQ(stats.depth, 2u);
  EXPECT_EQ(stats.source_items, 2u);  // A[0], B[1]
}

}  // namespace
}  // namespace moteur
