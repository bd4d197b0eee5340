#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/token.hpp"
#include "workflow/iteration.hpp"

namespace moteur::workflow {

/// Composed iteration strategies. The paper limits itself to plain dot and
/// cross products ("sufficient for implementing most applications", §2.2);
/// Taverna's full model composes them into trees — e.g. (a · b) × c pairs
/// ports a and b by rank, then crosses every pair with every item of c.
/// This extension implements those trees on top of the flat IterationBuffer.
///
/// A node is either a port leaf or a dot/cross combinator over child nodes.
struct IterationNode {
  enum class Kind { kPort, kDot, kCross };

  Kind kind = Kind::kPort;
  std::string port;                     // kPort only
  std::vector<IterationNode> children;  // combinators only

  static IterationNode leaf(std::string port_name);
  static IterationNode dot(std::vector<IterationNode> children);
  static IterationNode cross(std::vector<IterationNode> children);

  /// All leaf port names, left to right. Throws GraphError on a leaf
  /// without a name or with children, or a combinator without children.
  std::vector<std::string> ports() const;

  /// Structural checks: ports()'s, plus no port appears twice. Throws
  /// GraphError.
  void validate() const;

  /// Compact text form, e.g. "cross(dot(a,b),c)".
  std::string to_string() const;
};

/// Streams per-port tokens into firing tuples according to an iteration
/// tree. Exposes the same interface shape as IterationBuffer; tuples list
/// the leaf tokens in the tree's port order. Inside, tokens are routed by
/// position: each leaf port maps to (stage, slot) and each child stage to a
/// slot of its parent, so only the port-name calls look a name up.
class CompositeIterationBuffer {
 public:
  explicit CompositeIterationBuffer(IterationNode tree);
  ~CompositeIterationBuffer();  // out of line: Stage is incomplete here

  using Tuple = IterationBuffer::Tuple;

  /// Feed one token on the leaf at position `slot` of ports() (a position
  /// past the last leaf throws InternalError).
  void push(std::size_t slot, data::Token token);
  /// Same, naming the leaf's port.
  void push(const std::string& port, data::Token token);
  void close(std::size_t slot);
  void close(const std::string& port);
  bool is_closed(std::size_t slot) const;
  bool is_closed(const std::string& port) const;
  bool all_closed() const;
  /// Move every ready tuple onto the back of `out`, keeping this buffer's
  /// capacity (see IterationBuffer::drain_ready_into).
  template <typename Out>
  void drain_ready_into(Out& out) {
    for (auto& tuple : ready_) out.push_back(std::move(tuple));
    ready_.clear();
  }
  std::vector<Tuple> drain_ready() {
    std::vector<Tuple> out;
    drain_ready_into(out);
    return out;
  }
  std::size_t pending_tokens() const;

  const IterationNode& tree() const { return tree_; }
  const std::vector<std::string>& ports() const { return ports_; }

 private:
  struct Stage;  // one combinator level
  struct Route {
    Stage* stage = nullptr;
    std::size_t slot = 0;
  };

  IterationNode tree_;
  std::vector<std::string> ports_;
  std::vector<std::unique_ptr<Stage>> stages_;  // topological, root last
  Stage* root_ = nullptr;
  std::vector<Route> leaf_routes_;  // by leaf position in ports_
  std::vector<bool> closed_;        // by leaf position in ports_
  std::vector<Tuple> ready_;
  std::vector<Tuple> drained_;  // pump()'s per-stage scratch, capacity kept

  std::size_t leaf_index(const std::string& port) const;
  void require_leaf(std::size_t slot) const;
  Stage* build(const IterationNode& node);
  /// The firing tuple for one root tuple: composite members replaced by
  /// their leaf tokens, in port order.
  Tuple flatten(Tuple tuple) const;
  void pump();
};

}  // namespace moteur::workflow
