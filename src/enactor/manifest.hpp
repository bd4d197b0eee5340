#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "data/dataset.hpp"
#include "enactor/policy.hpp"
#include "grid/config.hpp"
#include "workflow/graph.hpp"
#include "xml/xml.hpp"

namespace moteur::enactor {

/// A complete, re-executable description of one enactment: workflow,
/// input data set, policy and grid preset — the paper's motivation for its
/// data-set format ("to be able to re-execute workflows on the same data
/// set", §4.1) extended to the whole run. Serializes to a single XML
/// document consumed by moteur_cli; its attributes are the run-option table
/// (enactor/options.hpp).
struct RunManifest {
  workflow::Workflow workflow{"empty"};
  data::InputDataSet inputs;
  EnactmentPolicy policy;

  /// One of "egee2006", "cluster", "constant".
  std::string grid_preset = "egee2006";
  /// Parameters of the presets.
  std::uint64_t seed = 20060619;
  double constant_overhead_seconds = 600.0;  // preset "constant"
  std::size_t cluster_nodes = 64;            // preset "cluster"
  /// Finite orchestrator/UI link capacity every centralized stage shares
  /// (<grid orchestratorBw="..."/>); 0 keeps the link unlimited (bypassed).
  double orchestrator_bandwidth_mbps = 0.0;
  /// Grid-wide replica and replication policy names (src/policy/).
  std::string replica_policy = "close-se";
  std::string replication = "none";

  /// Injected faults and storage limits. Unset failure_probability and
  /// grid_attempts keep the preset's values (egee2006: 0.04 and 5).
  std::optional<double> failure_probability;
  double stuck_probability = 0.0;
  std::optional<std::size_t> grid_attempts;
  double replica_loss = 0.0;
  double replica_corruption = 0.0;
  /// "SE:START:DUR[,...]" (util/flags parse_se_outages); empty = none.
  std::string se_outages;
  double se_capacity_mb = 0.0;  // default SE; 0 = unbounded
  std::string eviction = "lru";

  /// Enactment-core sharding and admission for services replaying this
  /// manifest (<service shards=".." pinPolicy="hash|least-loaded"
  /// admissionPolicy=".." maxActive=".." maxInflight=".."/>). Kept as plain
  /// data here — the service layer (which sits above the enactor) parses
  /// pin_policy into its PinPolicy enum and admission_policy (a
  /// policy::Admission name) in its gates. max_inflight 0 leaves the
  /// admission gate open.
  std::size_t shards = 1;
  std::string pin_policy = "hash";
  std::string admission_policy = "weighted";
  std::size_t max_active = 4;
  std::size_t max_inflight = 0;

  /// Build the configured grid, with the run's matchmaking (if set) as the
  /// grid default and the fault and storage knobs applied. Throws ParseError
  /// when se_outages names an SE other than se0 or a declared one.
  grid::GridConfig make_grid_config() const;

  std::string to_xml() const;
  /// Throws ParseError naming any unknown attribute or malformed value.
  static RunManifest from_xml(const std::string& text);
};

/// Whether runs under `policy` on `grid` need a data::ReplicaCatalog: the
/// cache, stage-in-aware matchmaking, SE→SE replication, storage faults and
/// bounded SEs all work on replicas. Throws ParseError on an unknown
/// matchmaking or replication name.
bool needs_replica_catalog(const grid::GridConfig& grid, const EnactmentPolicy& policy);

}  // namespace moteur::enactor
