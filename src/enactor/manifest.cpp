#include "enactor/manifest.hpp"

#include <algorithm>
#include <memory>

#include "enactor/options.hpp"
#include "policy/policy.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "workflow/scufl.hpp"

namespace moteur::enactor {

namespace {

/// Write `element`'s run options that differ from their defaults.
void write_options(xml::Node& node, Element element, const RunManifest& manifest) {
  for (const RunOption& option : run_options()) {
    if (option.element != element) continue;
    std::string value = option.get(manifest);
    if (value != option.default_text ||
        (option.written_at_default && option.written_at_default(manifest))) {
      node.set_attribute(option.attribute, std::move(value));
    }
  }
}

/// Read `element`'s run options in table order; an attribute the table does
/// not declare, or a required one missing, is an error.
void read_options(const xml::Node& node, Element element, RunManifest& manifest) {
  const std::string tag = std::string("<") + to_string(element) + ">";
  for (const auto& [attribute, value] : node.attributes()) {
    if (find_run_option(element, attribute) == nullptr) {
      throw ParseError("unknown attribute '" + attribute + "' on " + tag);
    }
  }
  for (const RunOption& option : run_options()) {
    if (option.element != element) continue;
    if (const auto value = node.attribute(option.attribute)) {
      option.set(manifest, *value, tag + " attribute " + option.attribute);
    } else if (option.required) {
      throw ParseError(tag + " lacks the required attribute " + option.attribute);
    }
  }
}

}  // namespace

grid::GridConfig RunManifest::make_grid_config() const {
  grid::GridConfig config;
  if (grid_preset == "egee2006") {
    config = grid::GridConfig::egee2006(seed);
  } else if (grid_preset == "cluster") {
    config = grid::GridConfig::dedicated_cluster(cluster_nodes, seed);
  } else if (grid_preset == "constant") {
    config = grid::GridConfig::constant(constant_overhead_seconds, 4096, seed);
  } else {
    throw ParseError("unknown grid preset '" + grid_preset +
                     "' (expected egee2006 | cluster | constant)");
  }
  config.orchestrator_bandwidth_mbps = orchestrator_bandwidth_mbps;
  if (!policy.matchmaking.empty()) config.matchmaking_policy = policy.matchmaking;
  config.replica_policy = replica_policy;
  config.replication_policy = replication;

  if (failure_probability) config.failure_probability = *failure_probability;
  config.stuck_job_probability = stuck_probability;
  if (grid_attempts) config.max_attempts = static_cast<int>(*grid_attempts);
  config.replica_loss_probability = replica_loss;
  config.replica_corruption_probability = replica_corruption;
  config.default_se_capacity_mb = se_capacity_mb;
  config.replica_eviction_policy = eviction;
  if (se_outages.empty()) return config;
  // "se0" is the implicit default SE; any other name must be declared.
  for (const SeOutageSpec& outage : parse_se_outages(se_outages, "seOutages")) {
    const grid::StorageOutageWindow window{outage.start_seconds, outage.duration_seconds};
    const std::string& name = outage.storage_element;
    const auto se = std::find_if(
        config.storage_elements.begin(), config.storage_elements.end(),
        [&](const grid::StorageElementConfig& e) { return e.name == name; });
    if (se != config.storage_elements.end()) {
      se->outages.push_back(window);
    } else if (name == "se0") {
      config.default_se_outages.push_back(window);
    } else {
      throw ParseError("seOutages names unknown storage element '" + name + "'");
    }
  }
  return config;
}

bool needs_replica_catalog(const grid::GridConfig& grid, const EnactmentPolicy& policy) {
  bool storage = grid.replica_loss_probability > 0.0 ||
                 grid.replica_corruption_probability > 0.0 ||
                 !grid.default_se_outages.empty() || grid.default_se_capacity_mb > 0.0;
  for (const grid::StorageElementConfig& se : grid.storage_elements) {
    storage = storage || !se.outages.empty() || se.replica_loss_probability > 0.0 ||
              se.replica_corruption_probability > 0.0 || se.capacity_mb > 0.0;
  }
  const policy::Matchmaking matchmaking =
      policy.matchmaking.empty()
          ? policy::parse<policy::Matchmaking>(grid.matchmaking_policy,
                                               "grid matchmaking policy")
          : policy::parse<policy::Matchmaking>(policy.matchmaking,
                                               "run matchmaking policy");
  return policy.cache || storage || policy::wants_stage_in(matchmaking) ||
         policy::parse<policy::Replication>(grid.replication_policy,
                                            "grid replication policy") !=
             policy::Replication::kNone;
}

std::string RunManifest::to_xml() const {
  auto root = std::make_unique<xml::Node>("run");
  write_options(root->add_child("policy"), Element::kPolicy, *this);
  write_options(root->add_child("grid"), Element::kGrid, *this);
  auto service = std::make_unique<xml::Node>("service");
  write_options(*service, Element::kService, *this);
  if (!service->attributes().empty()) root->adopt(std::move(service));

  // Embed the workflow and data-set documents (their roots become children).
  root->adopt(xml::parse(workflow::to_scufl(workflow)).take_root());
  root->adopt(xml::parse(inputs.to_xml()).take_root());
  return xml::Document(std::move(root)).to_string();
}

RunManifest RunManifest::from_xml(const std::string& text) {
  const xml::Document doc = xml::parse(text);
  MOTEUR_REQUIRE(doc.root().name() == "run", ParseError,
                 "expected <run> root, got <" + doc.root().name() + ">");
  RunManifest manifest;
  for (const Element element : {Element::kPolicy, Element::kGrid, Element::kService}) {
    if (const xml::Node* node = doc.root().child(to_string(element))) {
      read_options(*node, element, manifest);
    }
  }
  const xml::Node& wf_node = doc.root().required_child("workflow");
  manifest.workflow = workflow::from_scufl(wf_node.to_string());
  const xml::Node& ds_node = doc.root().required_child("dataset");
  manifest.inputs = data::InputDataSet::from_xml(ds_node.to_string());
  return manifest;
}

}  // namespace moteur::enactor
