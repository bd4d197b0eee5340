#include "workflow/iteration_tree.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace moteur::workflow {

// ---------------------------------------------------------------------------
// IterationNode
// ---------------------------------------------------------------------------

IterationNode IterationNode::leaf(std::string port_name) {
  IterationNode node;
  node.kind = Kind::kPort;
  node.port = std::move(port_name);
  return node;
}

IterationNode IterationNode::dot(std::vector<IterationNode> children) {
  IterationNode node;
  node.kind = Kind::kDot;
  node.children = std::move(children);
  return node;
}

IterationNode IterationNode::cross(std::vector<IterationNode> children) {
  IterationNode node;
  node.kind = Kind::kCross;
  node.children = std::move(children);
  return node;
}

namespace {

/// Append the port names of the leaves under `node` to `out`, left to
/// right, checking each node's structure on the way.
void append_ports(const IterationNode& node, std::vector<std::string>& out) {
  if (node.kind == IterationNode::Kind::kPort) {
    MOTEUR_REQUIRE(!node.port.empty(), GraphError, "iteration tree leaf without a port name");
    MOTEUR_REQUIRE(node.children.empty(), GraphError, "iteration tree leaf with children");
    out.push_back(node.port);
    return;
  }
  MOTEUR_REQUIRE(!node.children.empty(), GraphError,
                 "iteration tree combinator without children");
  for (const auto& child : node.children) append_ports(child, out);
}

}  // namespace

std::vector<std::string> IterationNode::ports() const {
  std::vector<std::string> out;
  append_ports(*this, out);
  return out;
}

void IterationNode::validate() const {
  std::vector<std::string> all = ports();
  std::sort(all.begin(), all.end());
  MOTEUR_REQUIRE(std::adjacent_find(all.begin(), all.end()) == all.end(), GraphError,
                 "iteration tree references a port twice");
}

std::string IterationNode::to_string() const {
  if (kind == Kind::kPort) return port;
  std::string out = kind == Kind::kDot ? "dot(" : "cross(";
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (i != 0) out += ",";
    out += children[i].to_string();
  }
  out += ")";
  return out;
}

// ---------------------------------------------------------------------------
// CompositeIterationBuffer
// ---------------------------------------------------------------------------

namespace {

/// Internal payload of a combinator's intermediate token: the flattened
/// member tokens in port order.
struct CompositeGroup {
  std::vector<data::Token> members;
};
using GroupPtr = std::shared_ptr<const CompositeGroup>;

const CompositeGroup* group_of(const data::Token& token) {
  const auto* group = std::any_cast<GroupPtr>(&token.payload());
  return group != nullptr ? group->get() : nullptr;
}

/// A child stage's completed tuple as one token on its parent's slot. Its
/// provenance derives from the tuple members, so the parent's causality
/// check compares the whole group.
data::Token group_token(const IterationBuffer::Tuple& tuple) {
  auto group = std::make_shared<CompositeGroup>();
  for (const auto& member : tuple.tokens) {
    if (const CompositeGroup* inner = group_of(member)) {
      group->members.insert(group->members.end(), inner->members.begin(),
                            inner->members.end());
    } else {
      group->members.push_back(member);
    }
  }
  return data::Token::derived("iteration", "group", tuple.tokens, tuple.index,
                              GroupPtr(std::move(group)),
                              "group" + data::to_string(tuple.index));
}

}  // namespace

struct CompositeIterationBuffer::Stage {
  IterationBuffer buffer;
  Stage* parent = nullptr;
  std::size_t parent_slot = 0;
};

CompositeIterationBuffer::~CompositeIterationBuffer() = default;

CompositeIterationBuffer::CompositeIterationBuffer(IterationNode tree)
    : tree_(std::move(tree)) {
  tree_.validate();
  ports_ = tree_.ports();
  leaf_routes_.resize(ports_.size());
  closed_.assign(ports_.size(), false);
  MOTEUR_REQUIRE(tree_.kind != IterationNode::Kind::kPort, GraphError,
                 "iteration tree root must be a combinator");
  root_ = build(tree_);
}

std::size_t CompositeIterationBuffer::leaf_index(const std::string& port) const {
  const auto it = std::find(ports_.begin(), ports_.end(), port);
  MOTEUR_REQUIRE(it != ports_.end(), EnactmentError,
                 "iteration tree has no port '" + port + "'");
  return static_cast<std::size_t>(it - ports_.begin());
}

CompositeIterationBuffer::Stage* CompositeIterationBuffer::build(
    const IterationNode& node) {
  // Children first, so stages_ is in bottom-up (pump) order.
  std::vector<Stage*> child_stages(node.children.size(), nullptr);
  std::vector<std::string> slot_names;
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (node.children[i].kind != IterationNode::Kind::kPort) {
      child_stages[i] = build(node.children[i]);
    }
    slot_names.push_back(node.children[i].to_string());
  }
  stages_.push_back(std::make_unique<Stage>(Stage{
      IterationBuffer(node.kind == IterationNode::Kind::kDot ? IterationStrategy::kDot
                                                             : IterationStrategy::kCross,
                      std::move(slot_names))}));
  Stage* stage = stages_.back().get();
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (child_stages[i] == nullptr) {
      leaf_routes_[leaf_index(node.children[i].port)] = Route{stage, i};
    } else {
      child_stages[i]->parent = stage;
      child_stages[i]->parent_slot = i;
    }
  }
  return stage;
}

void CompositeIterationBuffer::require_leaf(std::size_t slot) const {
  MOTEUR_REQUIRE(slot < ports_.size(), InternalError,
                 "iteration tree has no leaf at position " + std::to_string(slot));
}

void CompositeIterationBuffer::push(std::size_t slot, data::Token token) {
  require_leaf(slot);
  MOTEUR_REQUIRE(!closed_[slot], EnactmentError,
                 "push on closed port '" + ports_[slot] + "'");
  const Route& route = leaf_routes_[slot];
  route.stage->buffer.push(route.slot, std::move(token));
  pump();
}

void CompositeIterationBuffer::push(const std::string& port, data::Token token) {
  push(leaf_index(port), std::move(token));
}

CompositeIterationBuffer::Tuple CompositeIterationBuffer::flatten(Tuple tuple) const {
  if (std::none_of(tuple.tokens.begin(), tuple.tokens.end(),
                   [](const data::Token& member) { return group_of(member) != nullptr; })) {
    return tuple;
  }
  Tuple flat;
  flat.index = std::move(tuple.index);
  flat.tokens.reserve(ports_.size());
  for (auto& member : tuple.tokens) {
    if (const CompositeGroup* group = group_of(member)) {
      flat.tokens.insert(flat.tokens.end(), group->members.begin(), group->members.end());
    } else {
      flat.tokens.push_back(std::move(member));
    }
  }
  return flat;
}

void CompositeIterationBuffer::pump() {
  // Bottom-up: every stage's completed tuples become composite tokens on its
  // parent slot; the root's tuples flatten into firing tuples.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& stage : stages_) {
      if (!stage->buffer.has_ready()) continue;
      progress = true;
      drained_.clear();
      stage->buffer.drain_ready_into(drained_);
      for (auto& tuple : drained_) {
        if (stage.get() == root_) {
          ready_.push_back(flatten(std::move(tuple)));
        } else {
          stage->parent->buffer.push(stage->parent_slot, group_token(tuple));
        }
      }
    }
  }
  drained_.clear();

  // Closure propagation: a combinator's slot closes once its child stage is
  // fully closed (all child slots closed) — after the drains above, nothing
  // more can come out of it.
  for (auto& stage : stages_) {
    if (stage->parent == nullptr) continue;
    if (stage->buffer.all_closed() && !stage->parent->buffer.is_closed(stage->parent_slot)) {
      stage->parent->buffer.close(stage->parent_slot);
    }
  }
}

void CompositeIterationBuffer::close(std::size_t slot) {
  require_leaf(slot);
  if (closed_[slot]) return;
  closed_[slot] = true;
  const Route& route = leaf_routes_[slot];
  route.stage->buffer.close(route.slot);
  pump();
}

void CompositeIterationBuffer::close(const std::string& port) { close(leaf_index(port)); }

bool CompositeIterationBuffer::is_closed(std::size_t slot) const {
  require_leaf(slot);
  return closed_[slot];
}

bool CompositeIterationBuffer::is_closed(const std::string& port) const {
  return is_closed(leaf_index(port));
}

bool CompositeIterationBuffer::all_closed() const {
  return std::all_of(closed_.begin(), closed_.end(), [](bool c) { return c; });
}

std::size_t CompositeIterationBuffer::pending_tokens() const {
  std::size_t total = 0;
  for (const auto& stage : stages_) total += stage->buffer.pending_tokens();
  return total;
}

}  // namespace moteur::workflow
