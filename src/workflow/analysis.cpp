#include "workflow/analysis.hpp"

#include <algorithm>
#include <deque>

#include "util/error.hpp"

namespace moteur::workflow {

namespace {

/// Forward adjacency over data links (minus feedback) plus coordination
/// constraints.
std::map<std::string, std::vector<std::string>> forward_edges(const Workflow& workflow) {
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& p : workflow.processors()) adj[p.name];
  for (const auto& l : workflow.links()) {
    if (!l.feedback) adj[l.from_processor].push_back(l.to_processor);
  }
  for (const auto& c : workflow.coordination_constraints()) {
    adj[c.before].push_back(c.after);
  }
  return adj;
}

std::set<std::string> reach(const std::map<std::string, std::vector<std::string>>& adj,
                            const std::string& start) {
  std::set<std::string> seen;
  std::deque<std::string> frontier{start};
  while (!frontier.empty()) {
    const std::string current = frontier.front();
    frontier.pop_front();
    const auto it = adj.find(current);
    if (it == adj.end()) continue;
    for (const auto& next : it->second) {
      if (seen.insert(next).second) frontier.push_back(next);
    }
  }
  return seen;
}

}  // namespace

std::vector<std::string> topological_order(const Workflow& workflow) {
  const std::vector<std::size_t> positions = workflow.topological_positions();
  MOTEUR_REQUIRE(positions.size() == workflow.processors().size(), GraphError,
                 "topological_order: workflow has a non-feedback cycle");
  std::vector<std::string> order;
  order.reserve(positions.size());
  for (const std::size_t p : positions) order.push_back(workflow.processors()[p].name);
  return order;
}

std::set<std::string> ancestors(const Workflow& workflow, const std::string& processor) {
  // Reverse reachability.
  std::map<std::string, std::vector<std::string>> reverse;
  for (const auto& p : workflow.processors()) reverse[p.name];
  for (const auto& l : workflow.links()) {
    if (!l.feedback) reverse[l.to_processor].push_back(l.from_processor);
  }
  for (const auto& c : workflow.coordination_constraints()) {
    reverse[c.after].push_back(c.before);
  }
  MOTEUR_REQUIRE(reverse.count(processor) != 0, GraphError,
                 "ancestors: unknown processor '" + processor + "'");
  return reach(reverse, processor);
}

std::set<std::string> descendants(const Workflow& workflow, const std::string& processor) {
  const auto adj = forward_edges(workflow);
  MOTEUR_REQUIRE(adj.count(processor) != 0, GraphError,
                 "descendants: unknown processor '" + processor + "'");
  return reach(adj, processor);
}

Path critical_path(const Workflow& workflow,
                   const std::map<std::string, double>* service_weights) {
  const auto order = topological_order(workflow);
  const auto adj = forward_edges(workflow);

  const auto weight_of = [&](const std::string& name) -> double {
    const Processor& p = workflow.processor(name);
    if (p.kind != ProcessorKind::kService) return 0.0;
    if (service_weights != nullptr) {
      const auto it = service_weights->find(name);
      if (it != service_weights->end()) return it->second;
    }
    // Unit weights; a grouped processor stands for its members.
    return p.is_grouped() ? static_cast<double>(p.group_members.size()) : 1.0;
  };

  // Longest path by dynamic programming over the topological order.
  std::map<std::string, double> best;
  std::map<std::string, std::string> predecessor;
  for (const auto& name : order) {
    best.emplace(name, weight_of(name));
  }
  for (const auto& name : order) {
    for (const auto& next : adj.at(name)) {
      const double via = best[name] + weight_of(next);
      if (via > best[next]) {
        best[next] = via;
        predecessor[next] = name;
      }
    }
  }

  std::string tail;
  double tail_weight = -1.0;
  for (const auto& [name, weight] : best) {
    if (weight > tail_weight) {
      tail_weight = weight;
      tail = name;
    }
  }

  Path path;
  path.weight = tail_weight < 0.0 ? 0.0 : tail_weight;
  for (std::string current = tail; !current.empty();) {
    if (workflow.processor(current).kind == ProcessorKind::kService) {
      path.services.push_back(current);
    }
    const auto it = predecessor.find(current);
    current = it == predecessor.end() ? std::string() : it->second;
  }
  std::reverse(path.services.begin(), path.services.end());
  return path;
}

std::size_t critical_path_length(const Workflow& workflow) {
  return static_cast<std::size_t>(critical_path(workflow).weight);
}

std::vector<std::vector<std::string>> synchronization_layers(const Workflow& workflow) {
  std::map<std::string, std::size_t> barrier_depth;
  for (const auto& p : workflow.processors()) {
    if (p.kind != ProcessorKind::kService) continue;
    std::size_t barriers = 0;
    for (const auto& ancestor : ancestors(workflow, p.name)) {
      const Processor& a = workflow.processor(ancestor);
      if (a.kind == ProcessorKind::kService && a.synchronization) ++barriers;
    }
    barrier_depth[p.name] = barriers;
  }
  std::size_t max_depth = 0;
  for (const auto& [name, depth] : barrier_depth) max_depth = std::max(max_depth, depth);

  std::vector<std::vector<std::string>> layers(max_depth + 1);
  for (const auto& name : topological_order(workflow)) {
    const auto it = barrier_depth.find(name);
    if (it != barrier_depth.end()) layers[it->second].push_back(name);
  }
  return layers;
}

std::string to_dot(const Workflow& workflow) {
  std::string out = "digraph \"" + workflow.name() + "\" {\n  rankdir=TB;\n";
  for (const auto& p : workflow.processors()) {
    out += "  \"" + p.name + "\"";
    switch (p.kind) {
      case ProcessorKind::kSource:
        out += " [shape=invtriangle]";
        break;
      case ProcessorKind::kSink:
        out += " [shape=triangle]";
        break;
      case ProcessorKind::kService:
        out += p.synchronization ? " [shape=doubleoctagon]" : " [shape=box]";
        break;
    }
    out += ";\n";
  }
  for (const auto& l : workflow.links()) {
    out += "  \"" + l.from_processor + "\" -> \"" + l.to_processor + "\" [label=\"" +
           l.from_port + "->" + l.to_port + "\"";
    if (l.feedback) out += ", style=dashed";
    out += "];\n";
  }
  for (const auto& c : workflow.coordination_constraints()) {
    out += "  \"" + c.before + "\" -> \"" + c.after + "\" [style=dotted];\n";
  }
  out += "}\n";
  return out;
}

}  // namespace moteur::workflow
