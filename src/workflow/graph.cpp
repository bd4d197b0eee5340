#include "workflow/graph.hpp"

#include <algorithm>
#include <numeric>
#include <set>

#include "util/error.hpp"
#include "workflow/iteration_tree.hpp"

namespace moteur::workflow {

const char* to_string(IterationStrategy s) {
  switch (s) {
    case IterationStrategy::kDot: return "dot";
    case IterationStrategy::kCross: return "cross";
  }
  return "?";
}

bool Processor::has_input_port(const std::string& port) const {
  return std::find(input_ports.begin(), input_ports.end(), port) != input_ports.end();
}

bool Processor::has_output_port(const std::string& port) const {
  return std::find(output_ports.begin(), output_ports.end(), port) != output_ports.end();
}

Processor& Workflow::insert(Processor processor) {
  MOTEUR_REQUIRE(!has_processor(processor.name), GraphError,
                 "duplicate processor name '" + processor.name + "'");
  processors_.push_back(std::move(processor));
  return processors_.back();
}

Processor& Workflow::add_source(const std::string& name) {
  Processor p;
  p.name = name;
  p.kind = ProcessorKind::kSource;
  p.output_ports = {"out"};
  return insert(std::move(p));
}

Processor& Workflow::add_sink(const std::string& name) {
  Processor p;
  p.name = name;
  p.kind = ProcessorKind::kSink;
  p.input_ports = {"in"};
  return insert(std::move(p));
}

Processor& Workflow::add_processor(const std::string& name,
                                   std::vector<std::string> input_ports,
                                   std::vector<std::string> output_ports,
                                   IterationStrategy iteration) {
  Processor p;
  p.name = name;
  p.kind = ProcessorKind::kService;
  p.input_ports = std::move(input_ports);
  p.output_ports = std::move(output_ports);
  p.iteration = iteration;
  return insert(std::move(p));
}

Processor& Workflow::add_processor(Processor processor) { return insert(std::move(processor)); }

void Workflow::remove_processor(const std::string& name) {
  MOTEUR_REQUIRE(has_processor(name), GraphError,
                 "cannot remove unknown processor '" + name + "'");
  std::erase_if(processors_, [&](const Processor& p) { return p.name == name; });
  std::erase_if(links_, [&](const Link& l) {
    return l.from_processor == name || l.to_processor == name;
  });
  std::erase_if(constraints_, [&](const CoordinationConstraint& c) {
    return c.before == name || c.after == name;
  });
}

void Workflow::link(const std::string& from_processor, const std::string& from_port,
                    const std::string& to_processor, const std::string& to_port,
                    bool feedback) {
  const Processor& from = processor(from_processor);
  const Processor& to = processor(to_processor);
  MOTEUR_REQUIRE(from.has_output_port(from_port), GraphError,
                 "processor '" + from_processor + "' has no output port '" + from_port + "'");
  MOTEUR_REQUIRE(to.has_input_port(to_port), GraphError,
                 "processor '" + to_processor + "' has no input port '" + to_port + "'");
  links_.push_back(Link{from_processor, from_port, to_processor, to_port, feedback});
}

void Workflow::add_coordination_constraint(const std::string& before,
                                           const std::string& after) {
  MOTEUR_REQUIRE(has_processor(before), GraphError,
                 "coordination constraint references unknown processor '" + before + "'");
  MOTEUR_REQUIRE(has_processor(after), GraphError,
                 "coordination constraint references unknown processor '" + after + "'");
  constraints_.push_back(CoordinationConstraint{before, after});
}

bool Workflow::has_processor(const std::string& name) const {
  return std::any_of(processors_.begin(), processors_.end(),
                     [&](const Processor& p) { return p.name == name; });
}

const Processor& Workflow::processor(const std::string& name) const {
  for (const auto& p : processors_) {
    if (p.name == name) return p;
  }
  throw GraphError("unknown processor '" + name + "'");
}

Processor& Workflow::processor(const std::string& name) {
  for (auto& p : processors_) {
    if (p.name == name) return p;
  }
  throw GraphError("unknown processor '" + name + "'");
}

namespace {
std::vector<const Processor*> filter(const std::vector<Processor>& all, ProcessorKind kind) {
  std::vector<const Processor*> out;
  for (const auto& p : all) {
    if (p.kind == kind) out.push_back(&p);
  }
  return out;
}
}  // namespace

std::vector<const Processor*> Workflow::sources() const {
  return filter(processors_, ProcessorKind::kSource);
}

std::vector<const Processor*> Workflow::sinks() const {
  return filter(processors_, ProcessorKind::kSink);
}

std::vector<const Processor*> Workflow::services() const {
  return filter(processors_, ProcessorKind::kService);
}

std::vector<const Link*> Workflow::links_into_port(const std::string& processor,
                                                   const std::string& port) const {
  std::vector<const Link*> out;
  for (const auto& l : links_) {
    if (l.to_processor == processor && l.to_port == port) out.push_back(&l);
  }
  return out;
}

void Workflow::validate() const {
  // Kind-specific shape.
  for (const auto& p : processors_) {
    MOTEUR_REQUIRE(!p.name.empty(), GraphError, "processor with empty name");
    if (p.kind == ProcessorKind::kSource) {
      MOTEUR_REQUIRE(p.input_ports.empty(), GraphError,
                     "source '" + p.name + "' must not have input ports");
      MOTEUR_REQUIRE(!p.output_ports.empty(), GraphError,
                     "source '" + p.name + "' must have an output port");
    }
    if (p.kind == ProcessorKind::kSink) {
      MOTEUR_REQUIRE(p.output_ports.empty(), GraphError,
                     "sink '" + p.name + "' must not have output ports");
      MOTEUR_REQUIRE(!p.input_ports.empty(), GraphError,
                     "sink '" + p.name + "' must have an input port");
    }
    if (p.kind == ProcessorKind::kService) {
      MOTEUR_REQUIRE(!p.input_ports.empty(), GraphError,
                     "service '" + p.name + "' has no input ports");
    }
    for (auto port = p.input_ports.begin(); port != p.input_ports.end(); ++port) {
      MOTEUR_REQUIRE(std::find(p.input_ports.begin(), port, *port) == port, GraphError,
                     "duplicate input port '" + *port + "' on '" + p.name + "'");
    }
    for (auto port = p.output_ports.begin(); port != p.output_ports.end(); ++port) {
      MOTEUR_REQUIRE(std::find(p.output_ports.begin(), port, *port) == port, GraphError,
                     "duplicate output port '" + *port + "' on '" + p.name + "'");
    }
    if (p.iteration_tree != nullptr) {
      p.iteration_tree->validate();
      const auto tree_ports = p.iteration_tree->ports();
      const std::set<std::string> covered(tree_ports.begin(), tree_ports.end());
      const std::set<std::string> declared(p.input_ports.begin(), p.input_ports.end());
      MOTEUR_REQUIRE(covered == declared, GraphError,
                     "iteration tree of '" + p.name +
                         "' must cover every input port exactly once");
    }
  }

  // Every input port of every non-source processor is fed by some link.
  for (const auto& p : processors_) {
    for (const auto& port : p.input_ports) {
      const auto feeds = [&](const Link& l) {
        return l.to_processor == p.name && l.to_port == port;
      };
      MOTEUR_REQUIRE(std::any_of(links_.begin(), links_.end(), feeds), GraphError,
                     "input port '" + p.name + "." + port + "' is not connected");
    }
  }

  MOTEUR_REQUIRE(topology().order.size() == processors_.size(), GraphError,
                 "workflow contains a cycle not marked as feedback");
}

Topology Workflow::topology() const {
  const std::size_t n = processors_.size();
  // Positions sorted by name: the one name lookup.
  std::vector<std::size_t> by_name(n);
  std::iota(by_name.begin(), by_name.end(), std::size_t{0});
  std::sort(by_name.begin(), by_name.end(), [this](std::size_t a, std::size_t b) {
    return processors_[a].name < processors_[b].name;
  });
  const auto position = [&](const std::string& name) {
    const auto it = std::lower_bound(
        by_name.begin(), by_name.end(), name,
        [this](std::size_t p, const std::string& key) { return processors_[p].name < key; });
    MOTEUR_REQUIRE(it != by_name.end() && processors_[*it].name == name, GraphError,
                   "unknown processor '" + name + "'");
    return *it;
  };
  Topology topology;
  topology.links.reserve(links_.size());
  for (const auto& l : links_) {
    topology.links.push_back({position(l.from_processor), position(l.to_processor), l.feedback});
  }
  topology.constraints.reserve(constraints_.size());
  for (const auto& c : constraints_) {
    topology.constraints.push_back({position(c.before), position(c.after), false});
  }

  std::vector<std::size_t> in_degree(n, 0);
  topology.for_each_edge([&](const Topology::Edge& edge) { ++in_degree[edge.to]; });
  // The order doubles as the FIFO queue: positions from `next` on wait.
  std::vector<std::size_t>& order = topology.order;
  order.reserve(n);
  for (const std::size_t p : by_name) {
    if (in_degree[p] == 0) order.push_back(p);
  }
  for (std::size_t next = 0; next < order.size(); ++next) {
    topology.for_each_edge([&](const Topology::Edge& edge) {
      if (edge.from == order[next] && --in_degree[edge.to] == 0) order.push_back(edge.to);
    });
  }
  return topology;
}

}  // namespace moteur::workflow
