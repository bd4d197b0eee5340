#include "workflow/analysis.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace moteur::workflow {

namespace {

/// `topology.order`, which must cover every processor.
const std::vector<std::size_t>& complete_order(const Workflow& workflow,
                                               const Topology& topology) {
  MOTEUR_REQUIRE(topology.order.size() == workflow.processors().size(), GraphError,
                 "topological_order: workflow has a non-feedback cycle");
  return topology.order;
}

/// The processors that reach `processor` (`upstream`) or that it reaches.
std::set<std::string> reachable(const Workflow& workflow, const std::string& processor,
                                bool upstream) {
  const auto& all = workflow.processors();
  const auto it = std::find_if(all.begin(), all.end(),
                               [&](const Processor& p) { return p.name == processor; });
  MOTEUR_REQUIRE(it != all.end(), GraphError,
                 std::string(upstream ? "ancestors" : "descendants") +
                     ": unknown processor '" + processor + "'");
  const auto self = static_cast<std::size_t>(it - all.begin());
  const Reachability reach = reachability(workflow, workflow.topology());
  std::set<std::string> names;
  for (std::size_t p = 0; p < all.size(); ++p) {
    if (upstream ? reach.reaches(p, self) : reach.reaches(self, p)) names.insert(all[p].name);
  }
  return names;
}

}  // namespace

std::vector<std::string> topological_order(const Workflow& workflow) {
  const Topology topology = workflow.topology();
  std::vector<std::string> order;
  order.reserve(topology.order.size());
  for (const std::size_t p : complete_order(workflow, topology)) {
    order.push_back(workflow.processors()[p].name);
  }
  return order;
}

void Reachability::close() {
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (cells[i * n + k] == 0) continue;
      for (std::size_t j = 0; j < n; ++j) cells[i * n + j] |= cells[k * n + j];
    }
  }
}

Reachability reachability(const Workflow& workflow, const Topology& topology) {
  const std::size_t n = workflow.processors().size();
  Reachability reach{n, std::vector<char>(n * n, 0)};
  topology.for_each_edge(
      [&](const Topology::Edge& edge) { reach.cells[edge.from * n + edge.to] = 1; });
  reach.close();
  return reach;
}

std::set<std::string> ancestors(const Workflow& workflow, const std::string& processor) {
  return reachable(workflow, processor, true);
}

std::set<std::string> descendants(const Workflow& workflow, const std::string& processor) {
  return reachable(workflow, processor, false);
}

Path critical_path(const Workflow& workflow,
                   const std::map<std::string, double>* service_weights) {
  const auto& processors = workflow.processors();
  const Topology topology = workflow.topology();
  const auto& order = complete_order(workflow, topology);

  // Unit weights unless given; a grouped processor stands for its members.
  std::vector<double> weight(processors.size(), 0.0);
  for (std::size_t p = 0; p < processors.size(); ++p) {
    const Processor& proc = processors[p];
    if (proc.kind != ProcessorKind::kService) continue;
    weight[p] = proc.is_grouped() ? static_cast<double>(proc.group_members.size()) : 1.0;
    if (service_weights == nullptr) continue;
    const auto it = service_weights->find(proc.name);
    if (it != service_weights->end()) weight[p] = it->second;
  }

  // Longest path by dynamic programming over the topological order; the
  // predecessor is the first strict improvement, successors in edge order.
  std::vector<double> best = weight;
  std::vector<std::size_t> predecessor(processors.size(), processors.size());  // none
  for (const std::size_t from : order) {
    topology.for_each_edge([&](const Topology::Edge& edge) {
      const double via = best[from] + weight[edge.to];
      if (edge.from == from && via > best[edge.to]) {
        best[edge.to] = via;
        predecessor[edge.to] = from;
      }
    });
  }

  // The heaviest processor ends the path; ties go to the smallest name.
  std::size_t tail = processors.size();
  double tail_weight = -1.0;
  for (std::size_t p = 0; p < processors.size(); ++p) {
    if (best[p] > tail_weight || (best[p] == tail_weight && tail != processors.size() &&
                                  processors[p].name < processors[tail].name)) {
      tail = p;
      tail_weight = best[p];
    }
  }

  Path path;
  path.weight = tail_weight < 0.0 ? 0.0 : tail_weight;
  for (std::size_t p = tail; p != processors.size(); p = predecessor[p]) {
    if (processors[p].kind == ProcessorKind::kService) path.services.push_back(processors[p].name);
  }
  std::reverse(path.services.begin(), path.services.end());
  return path;
}

std::size_t critical_path_length(const Workflow& workflow) {
  return static_cast<std::size_t>(critical_path(workflow).weight);
}

std::vector<std::vector<std::string>> synchronization_layers(const Workflow& workflow) {
  const auto& processors = workflow.processors();
  const Topology topology = workflow.topology();
  const auto& order = complete_order(workflow, topology);
  const Reachability reach = reachability(workflow, topology);
  const auto is_service = [&](std::size_t p) {
    return processors[p].kind == ProcessorKind::kService;
  };

  // Per service, the synchronization barriers among its ancestors.
  std::vector<std::size_t> barriers(processors.size(), 0);
  std::size_t deepest = 0;
  for (std::size_t p = 0; p < processors.size(); ++p) {
    for (std::size_t a = 0; a < processors.size() && is_service(p); ++a) {
      if (is_service(a) && processors[a].synchronization && reach.reaches(a, p)) ++barriers[p];
    }
    deepest = std::max(deepest, barriers[p]);
  }
  std::vector<std::vector<std::string>> layers(deepest + 1);
  for (const std::size_t p : order) {
    if (is_service(p)) layers[barriers[p]].push_back(processors[p].name);
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
