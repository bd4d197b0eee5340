#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/token.hpp"
#include "workflow/graph.hpp"

namespace moteur::workflow {

/// Streams tokens arriving on a processor's input ports into firing tuples
/// according to the processor's iteration strategy (paper §2.2, Figure 3):
///
///  - dot:   pairs items by *rank of definition* — implemented as equality of
///           the composite iteration IndexVector, so out-of-order completion
///           under data/service parallelism still matches the right items
///           (the causality problem of §4.1); produces min(n, m) tuples;
///  - cross: all combinations across ports; produces n * m tuples with
///           concatenated index vectors.
///
/// The buffer also tracks per-port stream closure so the enactor can
/// propagate end-of-stream and fire synchronization barriers.
class IterationBuffer {
 public:
  IterationBuffer(IterationStrategy strategy, std::vector<std::string> ports);

  /// One firing of the downstream processor.
  struct Tuple {
    std::vector<data::Token> tokens;  // aligned with the port order
    data::IndexVector index;          // iteration index of the firing
  };

  /// Feed one token on the port at position `slot` of ports() (a position
  /// past the last port throws InternalError); any tuples it completes
  /// become ready.
  /// Throws EnactmentError if two matched tokens carry contradictory
  /// provenance (same source, different item index) — the §4.1 causality
  /// check — or, under dot strategy, if a token arrives on a port where a
  /// pending partial tuple with its index already holds a token. A one-port
  /// dot buffer emits every token as its own tuple on arrival, so it never
  /// holds a partial tuple and lets a repeated index through.
  void push(std::size_t slot, data::Token token);
  /// Same, naming the port.
  void push(const std::string& port, data::Token token);

  /// Mark a port's stream complete: no further push on it.
  void close(std::size_t slot);
  void close(const std::string& port);
  bool is_closed(std::size_t slot) const;
  bool is_closed(const std::string& port) const;
  bool all_closed() const;

  /// Move every tuple completed since the last drain onto the back of `out`
  /// (FIFO by completion). The buffer keeps its capacity, so a steady
  /// push/drain stream allocates nothing here.
  template <typename Out>
  void drain_ready_into(Out& out) {
    for (auto& tuple : ready_) out.push_back(std::move(tuple));
    ready_.clear();
  }
  /// Take every tuple completed since the last drain (FIFO by completion).
  std::vector<Tuple> drain_ready() {
    std::vector<Tuple> out;
    drain_ready_into(out);
    return out;
  }

  bool has_ready() const { return !ready_.empty(); }

  /// Tokens buffered but not yet emitted in a tuple. Under dot these are
  /// partial tuples; under cross, retained operands.
  std::size_t pending_tokens() const;

  const std::vector<std::string>& ports() const { return ports_; }
  IterationStrategy strategy() const { return strategy_; }

 private:
  std::size_t port_index(const std::string& port) const;
  void require_slot(std::size_t slot) const;
  void push_dot(std::size_t slot, data::Token token);
  void push_cross(std::size_t slot, data::Token token);

  IterationStrategy strategy_;
  std::vector<std::string> ports_;
  std::vector<bool> closed_;

  // Dot: partial tuples keyed by index vector. An empty (default) token
  // marks a port that has not delivered yet.
  struct Partial {
    std::vector<data::Token> tokens;
    std::size_t count = 0;
  };
  struct IndexHash {
    std::size_t operator()(const data::IndexVector& index) const noexcept;
  };
  std::unordered_map<data::IndexVector, Partial, IndexHash> partial_;

  // Cross: full retention per port.
  std::vector<std::vector<data::Token>> retained_;

  std::vector<Tuple> ready_;
};

}  // namespace moteur::workflow
