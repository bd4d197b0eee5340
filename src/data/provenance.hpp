#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "util/small_vector.hpp"

namespace moteur::data {

/// Immutable history tree attached to every data segment (paper §4.1): the
/// leaves are workflow-input items, the internal nodes the processings that
/// produced each intermediate result. The tree "unambiguously identifies the
/// data": two tokens are the same logical result iff their trees are equal.
///
/// Trees are shared (shared_ptr DAG). A node is one allocation that holds
/// its control block and up to two parents, and its canonical string key is
/// rendered only when first asked for, so deriving a token builds no string
/// unless something reads its identity.
class Provenance {
  // Restricts construction to the factories while std::make_shared can
  // still reach the constructor.
  struct Passkey {
    explicit Passkey() = default;
  };

 public:
  using Ptr = std::shared_ptr<const Provenance>;
  /// A node's parents, in order. Two fit inline: a chain stage has one input
  /// and Bronze's services two; a barrier aggregate's parents spill.
  using Inputs = SmallVector<Ptr, 2>;

  /// Leaf: the `index`-th item produced by workflow source `source_name`.
  static Ptr source(const std::string& source_name, std::size_t index);

  /// Internal node: output `port` of `processor` computed from `inputs`.
  static Ptr derived(const std::string& processor, const std::string& port, Inputs inputs);

  Provenance(Passkey, const std::string& producer, const std::string& port,
             std::size_t source_index, Inputs inputs);

  bool is_source() const { return inputs_.empty(); }
  const std::string& producer() const { return producer_; }
  const std::string& port() const { return port_; }
  std::size_t source_index() const { return source_index_; }
  const Inputs& inputs() const { return inputs_; }

  /// Canonical key, e.g. "crestMatch.out(ref[0],flo[0])", rendered on the
  /// first call (its inputs' keys first) and kept. Any thread may call it:
  /// one caller renders and publishes the key, callers that arrive meanwhile
  /// wait for it, and later ones pay one acquire load.
  const std::string& key() const {
    if (key_state_.load(std::memory_order_acquire) != kKeyReady) render_key();
    return key_;
  }

  /// Every (source name -> set of item indices) reachable from this node.
  /// Dot-product causality checks use this to detect incompatible lineage.
  std::map<std::string, std::set<std::size_t>> source_indices() const;

  /// Total number of nodes in the tree (shared subtrees counted once).
  std::size_t node_count() const;

  /// Longest path from this node down to a leaf (leaf depth = 0).
  std::size_t depth() const;

 private:
  static constexpr std::uint8_t kKeyAbsent = 0;
  static constexpr std::uint8_t kKeyRendering = 1;
  static constexpr std::uint8_t kKeyReady = 2;

  void render_key() const;

  std::string producer_;       // processor or source name
  std::string port_;           // empty for leaves
  std::size_t source_index_ = 0;
  Inputs inputs_;
  // key_ is written only by the caller that moves key_state_ from absent to
  // rendering, and read only after key_state_ reads ready.
  mutable std::atomic<std::uint8_t> key_state_{kKeyAbsent};
  mutable std::string key_;
};

bool operator==(const Provenance& a, const Provenance& b);

}  // namespace moteur::data
