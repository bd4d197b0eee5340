#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace moteur::workflow {

struct IterationNode;  // composed iteration strategies (iteration_tree.hpp)

/// How a multi-input processor composes the data arriving on its ports
/// (paper §2.2, Figure 3).
enum class IterationStrategy {
  kDot,    // pairwise by rank: produces min(n, m) tuples
  kCross,  // all combinations: produces n * m tuples
};

const char* to_string(IterationStrategy s);

enum class ProcessorKind {
  kSource,   // no input ports; feeds the workflow (dynamic data declaration)
  kSink,     // no output ports; collects produced data
  kService,  // an application component invoked through a service interface
};

const char* to_string(ProcessorKind k);

/// A link between two members of a grouped processor (see grouping.hpp);
/// carried on the grouped processor itself so the service layer can wire
/// member invocations without consulting the original graph.
struct InternalLink {
  std::string from_member;
  std::string from_port;
  std::string to_member;
  std::string to_port;
};

/// A processor node of the service-based workflow graph: an application
/// component with named input and output ports (paper §2.1).
struct Processor {
  std::string name;
  ProcessorKind kind = ProcessorKind::kService;
  std::vector<std::string> input_ports;
  std::vector<std::string> output_ports;
  IterationStrategy iteration = IterationStrategy::kDot;
  /// Optional composed strategy (e.g. "(a dot b) cross c"); when set it
  /// overrides `iteration` and must cover every input port exactly once.
  std::shared_ptr<const IterationNode> iteration_tree;
  /// Synchronization processors (§2.3) wait for their *entire* input streams
  /// (statistical operations over the whole data set); they are barriers to
  /// service parallelism.
  bool synchronization = false;
  /// Identifier of the service implementation bound to this processor
  /// (looked up in the service registry at enactment time).
  std::string service_id;
  /// For processors produced by the grouping optimizer: the ordered names of
  /// the original members. Empty for ordinary processors.
  std::vector<std::string> group_members;
  /// Service binding of each member, aligned with `group_members`.
  std::vector<std::string> member_service_ids;
  /// For grouped processors: member-to-member data links that became
  /// internal to the virtual service.
  std::vector<InternalLink> internal_links;

  bool has_input_port(const std::string& port) const;
  bool has_output_port(const std::string& port) const;
  bool is_grouped() const { return !group_members.empty(); }
};

/// A data dependency: output port -> input port.
struct Link {
  std::string from_processor;
  std::string from_port;
  std::string to_processor;
  std::string to_port;
  /// Feedback links close optimization loops (Figure 2). The graph minus
  /// feedback links must be acyclic; only service-based workflows can carry
  /// them (task-based DAGs cannot, §2.1).
  bool feedback = false;
};

/// A Scufl "coordination constraint": a control (not data) link that forces
/// `after` to run only once `before` is entirely inactive (§4.1).
struct CoordinationConstraint {
  std::string before;
  std::string after;
};

/// The application workflow: a directed graph of processors (paper Figure 1)
/// with ports, data links, optional feedback links and control constraints.
class Workflow {
 public:
  explicit Workflow(std::string name = "workflow") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Data source: one implicit output port named "out".
  Processor& add_source(const std::string& name);
  /// Data sink: one implicit input port named "in".
  Processor& add_sink(const std::string& name);
  Processor& add_processor(const std::string& name,
                           std::vector<std::string> input_ports,
                           std::vector<std::string> output_ports,
                           IterationStrategy iteration = IterationStrategy::kDot);
  /// Insert a fully-formed processor (used by the grouping rewriter).
  Processor& add_processor(Processor processor);

  /// Remove a processor and every link touching it.
  void remove_processor(const std::string& name);

  void link(const std::string& from_processor, const std::string& from_port,
            const std::string& to_processor, const std::string& to_port,
            bool feedback = false);

  void add_coordination_constraint(const std::string& before, const std::string& after);

  bool has_processor(const std::string& name) const;
  const Processor& processor(const std::string& name) const;
  Processor& processor(const std::string& name);

  const std::vector<Processor>& processors() const { return processors_; }
  const std::vector<Link>& links() const { return links_; }
  const std::vector<CoordinationConstraint>& coordination_constraints() const {
    return constraints_;
  }

  std::vector<const Processor*> sources() const;
  std::vector<const Processor*> sinks() const;
  std::vector<const Processor*> services() const;

  /// Links entering an input port / a processor / leaving a processor.
  std::vector<const Link*> links_into_port(const std::string& processor,
                                           const std::string& port) const;
  std::vector<const Link*> links_into(const std::string& processor) const;
  std::vector<const Link*> links_out_of(const std::string& processor) const;

  /// Structural validation: unique names, resolvable link endpoints, sources
  /// and sinks well-formed, every input port fed, graph minus feedback links
  /// acyclic. Throws GraphError on the first violation.
  void validate() const;

  /// Positions in processors() in a topological order of the non-feedback
  /// links and the coordination constraints: one Kahn pass, seeded with the
  /// zero-in-degree processors in name order, that visits each processor's
  /// successors in edge order (links in declaration order, then
  /// constraints). Returns fewer positions than there are processors when
  /// a non-feedback cycle remains.
  std::vector<std::size_t> topological_positions() const;

 private:
  std::string name_;
  std::vector<Processor> processors_;
  std::vector<Link> links_;
  std::vector<CoordinationConstraint> constraints_;

  Processor& insert(Processor processor);
};

}  // namespace moteur::workflow
