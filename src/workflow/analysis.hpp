#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "workflow/graph.hpp"

namespace moteur::workflow {

/// Static graph analyses used by the enactor, the grouping optimizer and the
/// §3.5 performance model. Feedback links are excluded everywhere (analyses
/// operate on the acyclic skeleton).

/// Processor names in a topological order (sources first). Coordination
/// constraints are honored as edges.
std::vector<std::string> topological_order(const Workflow& workflow);

/// Reachability over positions in processors(): `reaches(a, b)` when a path
/// of edges leads from a to b. A processor reaches itself only around a cycle.
struct Reachability {
  std::size_t n = 0;
  std::vector<char> cells;  // row-major, from * n + to: the edges, then the paths

  bool reaches(std::size_t from, std::size_t to) const { return cells[from * n + to] != 0; }
  void close();  // Warshall's closure: the edges in `cells` become the paths
};

/// Forward reachability of `workflow` (non-feedback links and coordination
/// constraints), from its `topology()`.
Reachability reachability(const Workflow& workflow, const Topology& topology);

/// Strict ancestors of a processor (everything with a forward path to it,
/// data links and coordination constraints included).
std::set<std::string> ancestors(const Workflow& workflow, const std::string& processor);

/// Strict descendants (everything reachable from it).
std::set<std::string> descendants(const Workflow& workflow, const std::string& processor);

/// A path through the workflow linking an input to an output (§3.5.1).
struct Path {
  std::vector<std::string> services;  // service processors only, in order
  double weight = 0.0;                // sum of per-service weights
};

/// The critical path: the longest source-to-sink path, in number of services
/// (each service weighs 1) or by explicit per-service weights. Grouped
/// processors weigh the size of their member list under unit weights, so
/// grouping does not change the nominal nW of the original graph.
Path critical_path(const Workflow& workflow,
                   const std::map<std::string, double>* service_weights = nullptr);

/// nW: number of services on the critical path (paper §3.5.1).
std::size_t critical_path_length(const Workflow& workflow);

/// Split the workflow into layers separated by synchronization processors:
/// layer k holds every service whose ancestor set contains exactly k
/// synchronization barriers. Workflows containing barriers "may be analyzed
/// as two sub workflows" (§3.5.2); the model applies per layer.
std::vector<std::vector<std::string>> synchronization_layers(const Workflow& workflow);

/// Render the workflow as a GraphViz dot document (debugging/documentation).
std::string to_dot(const Workflow& workflow);

}  // namespace moteur::workflow
