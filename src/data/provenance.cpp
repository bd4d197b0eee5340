#include "data/provenance.hpp"

#include <charconv>
#include <functional>
#include <limits>
#include <string_view>
#include <thread>
#include <unordered_set>

#include "util/error.hpp"

namespace moteur::data {

Provenance::Provenance(Passkey, const std::string& producer, const std::string& port,
                       std::size_t source_index, Inputs inputs)
    : producer_(producer), port_(port), source_index_(source_index), inputs_(std::move(inputs)) {}

Provenance::Ptr Provenance::source(const std::string& source_name, std::size_t index) {
  return std::make_shared<Provenance>(Passkey{}, source_name, std::string(), index, Inputs{});
}

Provenance::Ptr Provenance::derived(const std::string& processor, const std::string& port,
                                    Inputs inputs) {
  MOTEUR_REQUIRE(!inputs.empty(), InternalError,
                 "derived provenance requires at least one input");
  for (const auto& input : inputs) {
    MOTEUR_REQUIRE(input != nullptr, InternalError, "null provenance input");
  }
  return std::make_shared<Provenance>(Passkey{}, processor, port, 0, std::move(inputs));
}

void Provenance::render_key() const {
  for (std::uint8_t state = kKeyAbsent;
       !key_state_.compare_exchange_strong(state, kKeyRendering, std::memory_order_acquire);
       state = kKeyAbsent) {
    if (state == kKeyReady) return;
    std::this_thread::yield();  // another caller is rendering this key
  }
  // This caller alone writes key_ until it publishes it. Rendering reads
  // only fields that never change after construction.
  try {
    if (is_source()) {
      char digits[std::numeric_limits<std::size_t>::digits10 + 1];
      const auto [end, ec] = std::to_chars(digits, digits + sizeof digits, source_index_);
      const std::string_view index(digits, static_cast<std::size_t>(end - digits));
      key_.reserve(producer_.size() + index.size() + 2);
      key_ += producer_;
      key_ += '[';
      key_ += index;
      key_ += ']';
    } else {
      std::size_t length = producer_.size() + (port_.empty() ? 0 : port_.size() + 1) + 2 +
                           (inputs_.size() - 1);
      for (const auto& input : inputs_) length += input->key().size();
      key_.reserve(length);
      key_ += producer_;
      if (!port_.empty()) {
        key_ += '.';
        key_ += port_;
      }
      key_ += '(';
      for (std::size_t i = 0; i < inputs_.size(); ++i) {
        if (i != 0) key_ += ',';
        key_ += inputs_[i]->key();
      }
      key_ += ')';
    }
  } catch (...) {
    key_.clear();
    key_state_.store(kKeyAbsent, std::memory_order_release);
    throw;
  }
  key_state_.store(kKeyReady, std::memory_order_release);
}

std::map<std::string, std::set<std::size_t>> Provenance::source_indices() const {
  std::map<std::string, std::set<std::size_t>> out;
  std::function<void(const Provenance&)> walk = [&](const Provenance& node) {
    if (node.is_source()) {
      out[node.producer()].insert(node.source_index());
      return;
    }
    for (const auto& input : node.inputs()) walk(*input);
  };
  walk(*this);
  return out;
}

std::size_t Provenance::node_count() const {
  std::unordered_set<const Provenance*> seen;
  std::function<void(const Provenance&)> walk = [&](const Provenance& node) {
    if (!seen.insert(&node).second) return;
    for (const auto& input : node.inputs()) walk(*input);
  };
  walk(*this);
  return seen.size();
}

std::size_t Provenance::depth() const {
  std::size_t best = 0;
  for (const auto& input : inputs_) best = std::max(best, input->depth() + 1);
  return best;
}

bool operator==(const Provenance& a, const Provenance& b) { return a.key() == b.key(); }

}  // namespace moteur::data
