#include "workflow/grouping.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "workflow/analysis.hpp"

namespace moteur::workflow {

std::string qualify_port(const Processor& processor, const std::string& port) {
  // Ports of an already-grouped processor are qualified once and stay put.
  if (processor.is_grouped()) return port;
  MOTEUR_REQUIRE(processor.name.find('/') == std::string::npos, GraphError,
                 "processor name '" + processor.name + "' must not contain '/'");
  return processor.name + "/" + port;
}

std::pair<std::string, std::string> split_grouped_port(const std::string& qualified) {
  const auto pos = qualified.find('/');
  MOTEUR_REQUIRE(pos != std::string::npos, GraphError,
                 "'" + qualified + "' is not a qualified grouped port");
  return {qualified.substr(0, pos), qualified.substr(pos + 1)};
}

namespace {

std::vector<std::string> members_of(const Processor& p) {
  return p.is_grouped() ? p.group_members : std::vector<std::string>{p.name};
}

std::vector<std::string> member_services_of(const Processor& p) {
  if (p.is_grouped()) return p.member_service_ids;
  return {p.service_id.empty() ? p.name : p.service_id};
}

/// The merge rule for positions `a` and `b` of `workflow`, whose topology is
/// `topology` and whose reachability is `reach`.
bool mergeable(const Workflow& workflow, const Topology& topology, const Reachability& reach,
               std::size_t a, std::size_t b) {
  if (a == b) return false;
  for (const std::size_t p : {a, b}) {
    const Processor& proc = workflow.processors()[p];
    if (proc.kind != ProcessorKind::kService || proc.synchronization) return false;
    // Composed strategies are conservatively excluded from grouping.
    if (proc.iteration != IterationStrategy::kDot || proc.iteration_tree != nullptr) return false;
  }
  bool linked = false;  // a data link A -> B must exist
  for (const auto& [from, to, feedback] : topology.links) {
    if (feedback) {
      if (from == a || to == a || from == b || to == b) return false;
    } else if (from == a && to == b) {
      linked = true;
    } else if (to == b && !reach.reaches(from, a)) {
      // Every other input of B must come from A or a strict ancestor of A.
      return false;
    } else if (from == a && !reach.reaches(b, to)) {
      // Grouping must not delay third parties: a grouped job registers its
      // outputs only when the whole chain completes, so every consumer of A
      // other than B must already be waiting on B's subtree anyway. This is
      // what keeps the Bronze-Standard groups at {crestLines, crestMatch}
      // and {PFMatchICP, PFRegister} instead of swallowing the entire
      // critical path (crestMatch's output initializes Yasmina and Baladin,
      // which are NOT descendants of PFMatchICP).
      return false;
    }
  }
  return linked;
}

}  // namespace

bool can_group(const Workflow& workflow, const std::string& from, const std::string& to) {
  const auto& all = workflow.processors();
  const auto position = [&](const std::string& name) {
    return static_cast<std::size_t>(
        std::find_if(all.begin(), all.end(), [&](const Processor& p) { return p.name == name; }) -
        all.begin());
  };
  const std::size_t a = position(from);
  const std::size_t b = position(to);
  if (a == all.size() || b == all.size()) return false;
  const Topology topology = workflow.topology();
  return mergeable(workflow, topology, reachability(workflow, topology), a, b);
}

namespace {

/// Merge processors `from` and `to` of `workflow` into one grouped node.
void merge_pair(Workflow& workflow, const std::string& from, const std::string& to) {
  const Processor a = workflow.processor(from);  // copies: we mutate the graph
  const Processor b = workflow.processor(to);

  Processor grouped;
  grouped.name = a.name + "+" + b.name;
  grouped.kind = ProcessorKind::kService;
  grouped.iteration = IterationStrategy::kDot;
  const auto a_members = members_of(a);
  const auto b_members = members_of(b);
  grouped.group_members = a_members;
  grouped.group_members.insert(grouped.group_members.end(), b_members.begin(),
                               b_members.end());
  grouped.member_service_ids = member_services_of(a);
  const auto b_services = member_services_of(b);
  grouped.member_service_ids.insert(grouped.member_service_ids.end(),
                                    b_services.begin(), b_services.end());
  grouped.internal_links = a.internal_links;
  grouped.internal_links.insert(grouped.internal_links.end(), b.internal_links.begin(),
                                b.internal_links.end());

  // Ports: all of A's, plus B's externally-fed inputs and all B outputs.
  for (const auto& port : a.input_ports) {
    grouped.input_ports.push_back(qualify_port(a, port));
  }
  for (const auto& port : a.output_ports) {
    grouped.output_ports.push_back(qualify_port(a, port));
  }
  for (const auto& port : b.input_ports) {
    const auto inlets = workflow.links_into_port(b.name, port);
    // Keep the port externally visible unless A is its only feeder.
    const bool fed_only_by_a = std::all_of(inlets.begin(), inlets.end(), [&](const Link* l) {
      return l->from_processor == a.name;
    });
    if (!fed_only_by_a) grouped.input_ports.push_back(qualify_port(b, port));
  }
  for (const auto& port : b.output_ports) {
    grouped.output_ports.push_back(qualify_port(b, port));
  }

  // Rewire: collect replacements for the links that touch A or B (links
  // touching neither stay in the graph untouched).
  std::vector<Link> rewired;
  std::vector<InternalLink> internal = std::move(grouped.internal_links);
  for (const Link& l : workflow.links()) {
    Link copy = l;
    const bool from_member = l.from_processor == a.name || l.from_processor == b.name;
    const bool to_member = l.to_processor == a.name || l.to_processor == b.name;
    if (!from_member && !to_member) continue;
    if (from_member && to_member) {
      // A -> B becomes internal wiring between original members.
      const Processor& src = l.from_processor == a.name ? a : b;
      const Processor& dst = l.to_processor == a.name ? a : b;
      const std::string from_q = qualify_port(src, l.from_port);
      const std::string to_q = qualify_port(dst, l.to_port);
      const auto [fm, fp] = split_grouped_port(from_q);
      const auto [tm, tp] = split_grouped_port(to_q);
      internal.push_back(InternalLink{fm, fp, tm, tp});
      continue;
    }
    if (from_member) {
      const Processor& src = l.from_processor == a.name ? a : b;
      copy.from_processor = grouped.name;
      copy.from_port = qualify_port(src, l.from_port);
    }
    if (to_member) {
      const Processor& dst = l.to_processor == a.name ? a : b;
      copy.to_processor = grouped.name;
      copy.to_port = qualify_port(dst, l.to_port);
    }
    rewired.push_back(copy);
  }
  grouped.internal_links = std::move(internal);

  std::vector<CoordinationConstraint> constraints;
  for (const CoordinationConstraint& c : workflow.coordination_constraints()) {
    const bool touches = c.before == a.name || c.before == b.name || c.after == a.name ||
                         c.after == b.name;
    if (!touches) continue;  // stays in the graph untouched
    CoordinationConstraint copy = c;
    if (copy.before == a.name || copy.before == b.name) copy.before = grouped.name;
    if (copy.after == a.name || copy.after == b.name) copy.after = grouped.name;
    if (copy.before != copy.after) constraints.push_back(copy);
  }

  // Rebuild the graph.
  workflow.remove_processor(a.name);
  workflow.remove_processor(b.name);
  workflow.add_processor(std::move(grouped));
  for (const Link& l : rewired) {
    workflow.link(l.from_processor, l.from_port, l.to_processor, l.to_port, l.feedback);
  }
  for (const CoordinationConstraint& c : constraints) {
    workflow.add_coordination_constraint(c.before, c.after);
  }
}

}  // namespace

Workflow group_sequential_processors(const Workflow& input, GroupingReport* report) {
  Workflow workflow = input;  // value semantics: rewrite a copy
  std::size_t merges = 0;
  for (bool merged = true; merged;) {
    merged = false;
    const Topology topology = workflow.topology();
    MOTEUR_REQUIRE(topology.order.size() == workflow.processors().size(), GraphError,
                   "topological_order: workflow has a non-feedback cycle");
    const Reachability reach = reachability(workflow, topology);
    // Scan pairs in topological order, then in link order, for determinism.
    for (const std::size_t p : topology.order) {
      for (const auto& [from, to, feedback] : topology.links) {
        if (merged || from != p || !mergeable(workflow, topology, reach, from, to)) continue;
        // Copies: the merge invalidates references into the workflow.
        merge_pair(workflow, std::string(workflow.processors()[from].name),
                   std::string(workflow.processors()[to].name));
        ++merges;
        merged = true;
      }
    }
  }
  workflow.validate();
  if (report != nullptr) {
    report->merges = merges;
    report->groups.clear();
    for (const auto& p : workflow.processors()) {
      if (p.is_grouped()) report->groups.push_back(p.group_members);
    }
  }
  return workflow;
}

}  // namespace moteur::workflow
