#include "workflow/iteration.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "util/error.hpp"

namespace moteur::workflow {

namespace {

/// Scratch of check_causality, reused across tuples so the check allocates
/// only while its vectors grow to the largest tuple seen on this thread.
struct CausalityScratch {
  using SourceItem = std::pair<std::string_view, std::size_t>;
  /// Per source, the items of the first member that reached it: a range of
  /// `items`.
  struct Seen {
    std::string_view source;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<const data::Provenance*> walk;
  std::vector<SourceItem> member;  // one member's (source, item) pairs
  std::vector<Seen> seen;
  std::vector<std::size_t> items;
};

/// Two tokens matched into one tuple must agree on the lineage of every
/// workflow source they share: matching result-of(D0) with result-of(D1)
/// is exactly the wrong-dot-product failure of §4.1. Each tuple member is
/// compared as a whole — a composite group's items of a source are the
/// union over its leaves — against the first member that reached the same
/// source.
void check_causality(const std::vector<data::Token>& tokens) {
  thread_local CausalityScratch scratch;
  auto& [walk, member, seen, items] = scratch;
  seen.clear();
  items.clear();
  for (const auto& token : tokens) {
    // The member's (source, item) leaves, sorted and deduplicated: the flat
    // form of Provenance::source_indices().
    member.clear();
    walk.assign(1, token.provenance().get());
    while (!walk.empty()) {
      const data::Provenance* node = walk.back();
      walk.pop_back();
      if (node->is_source()) member.emplace_back(node->producer(), node->source_index());
      for (const auto& input : node->inputs()) walk.push_back(input.get());
    }
    std::sort(member.begin(), member.end());
    member.erase(std::unique(member.begin(), member.end()), member.end());

    for (auto run = member.begin(); run != member.end();) {
      const std::string_view source = run->first;
      const auto run_end = std::find_if(
          run, member.end(), [&](const auto& entry) { return entry.first != source; });
      const auto first = std::find_if(seen.begin(), seen.end(),
                                      [&](const auto& entry) { return entry.source == source; });
      if (first == seen.end()) {
        seen.push_back({source, items.size(),
                        items.size() + static_cast<std::size_t>(run_end - run)});
        for (auto it = run; it != run_end; ++it) items.push_back(it->second);
      } else {
        const std::size_t* theirs = items.data() + first->begin;
        const std::size_t* theirs_end = items.data() + first->end;
        const bool agree =
            std::equal(theirs, theirs_end, run, run_end,
                       [](std::size_t item, const auto& entry) { return item == entry.second; });
        if (!agree) {
          data::IndexVector mine;
          for (auto it = run; it != run_end; ++it) mine.push_back(it->second);
          throw EnactmentError("causality violation: tuple mixes items " +
                               data::to_string(mine) + " and " +
                               data::to_string(data::IndexVector(theirs, theirs_end)) +
                               " of source '" + std::string(source) + "'");
        }
      }
      run = run_end;
    }
  }
}

}  // namespace

std::size_t IterationBuffer::IndexHash::operator()(
    const data::IndexVector& index) const noexcept {
  std::uint64_t hash = data::kFnvOffset;
  for (const std::size_t item : index) hash = data::fnv1a_append(hash, item);
  return static_cast<std::size_t>(hash);
}

IterationBuffer::IterationBuffer(IterationStrategy strategy, std::vector<std::string> ports)
    : strategy_(strategy),
      ports_(std::move(ports)),
      closed_(ports_.size(), false),
      retained_(ports_.size()) {
  MOTEUR_REQUIRE(!ports_.empty(), InternalError, "IterationBuffer: no ports");
}

std::size_t IterationBuffer::port_index(const std::string& port) const {
  const auto it = std::find(ports_.begin(), ports_.end(), port);
  MOTEUR_REQUIRE(it != ports_.end(), EnactmentError,
                 "IterationBuffer: unknown port '" + port + "'");
  return static_cast<std::size_t>(it - ports_.begin());
}

void IterationBuffer::require_slot(std::size_t slot) const {
  MOTEUR_REQUIRE(slot < ports_.size(), InternalError,
                 "IterationBuffer: no port at position " + std::to_string(slot));
}

void IterationBuffer::push(const std::string& port, data::Token token) {
  push(port_index(port), std::move(token));
}

void IterationBuffer::push(std::size_t slot, data::Token token) {
  require_slot(slot);
  MOTEUR_REQUIRE(!closed_[slot], EnactmentError,
                 "push on closed port '" + ports_[slot] + "'");
  if (strategy_ == IterationStrategy::kDot) {
    push_dot(slot, std::move(token));
  } else {
    push_cross(slot, std::move(token));
  }
}

void IterationBuffer::push_dot(std::size_t slot, data::Token token) {
  if (ports_.size() == 1) {
    // A one-port tuple is complete on arrival, and no causality check can
    // fail on a single token.
    Tuple tuple;
    tuple.index = token.indices();
    tuple.tokens.push_back(std::move(token));
    ready_.push_back(std::move(tuple));
    return;
  }
  const auto [it, inserted] = partial_.try_emplace(token.indices());
  Partial& partial = it->second;
  if (inserted) partial.tokens.resize(ports_.size());
  // Every real token has a provenance; an empty slot holds a default token.
  MOTEUR_REQUIRE(partial.tokens[slot].provenance() == nullptr, EnactmentError,
                 "duplicate token with index " + data::to_string(token.indices()) +
                     " on port '" + ports_[slot] + "'");
  partial.tokens[slot] = std::move(token);
  if (++partial.count < ports_.size()) return;
  check_causality(partial.tokens);
  auto node = partial_.extract(it);
  ready_.push_back(Tuple{std::move(node.mapped().tokens), std::move(node.key())});
}

void IterationBuffer::push_cross(std::size_t slot, data::Token token) {
  // The new token combines with the Cartesian product of the tokens already
  // retained on every *other* port; each combination is emitted exactly once
  // over the stream's lifetime.
  std::size_t combinations = 1;
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    if (p != slot) combinations *= retained_[p].size();
  }
  for (std::size_t combo = 0; combo < combinations; ++combo) {
    Tuple tuple;
    tuple.tokens.reserve(ports_.size());
    std::size_t remainder = combo;
    for (std::size_t p = 0; p < ports_.size(); ++p) {
      const data::Token* chosen;
      if (p == slot) {
        chosen = &token;
      } else {
        chosen = &retained_[p][remainder % retained_[p].size()];
        remainder /= retained_[p].size();
      }
      tuple.tokens.push_back(*chosen);
      tuple.index.insert(tuple.index.end(), chosen->indices().begin(),
                         chosen->indices().end());
    }
    // No causality check here: a cross product legitimately combines
    // different items of the same source (e.g. registering every image
    // against every other image).
    ready_.push_back(std::move(tuple));
  }
  retained_[slot].push_back(std::move(token));
}

void IterationBuffer::close(std::size_t slot) {
  require_slot(slot);
  closed_[slot] = true;
}

void IterationBuffer::close(const std::string& port) { close(port_index(port)); }

bool IterationBuffer::is_closed(std::size_t slot) const {
  require_slot(slot);
  return closed_[slot];
}

bool IterationBuffer::is_closed(const std::string& port) const {
  return is_closed(port_index(port));
}

bool IterationBuffer::all_closed() const {
  return std::all_of(closed_.begin(), closed_.end(), [](bool c) { return c; });
}

std::size_t IterationBuffer::pending_tokens() const {
  std::size_t count = 0;
  if (strategy_ == IterationStrategy::kDot) {
    for (const auto& [index, partial] : partial_) count += partial.count;
  } else {
    for (const auto& port_tokens : retained_) count += port_tokens.size();
  }
  return count;
}

}  // namespace moteur::workflow
