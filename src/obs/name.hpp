#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>

namespace moteur::obs {

/// An interned name: 8 bytes pointing at the one process-wide copy of its
/// text. The names an event carries (processors, CEs, SEs, statuses,
/// triggers, workflows) come from configuration, so the set is bounded and
/// the intern table is never pruned: a Name stays valid for the whole
/// process, and an event holding one may outlive the engine that made it
/// (flight-recorder rings, a subscriber's saved copies).
///
/// Intern a name once, where its owner is built (an engine's processors, a
/// grid's SEs), never per event. Interning takes a process-wide lock;
/// looking up a name already interned allocates nothing. Reading a Name
/// takes no lock. Two Names are equal exactly when their texts are.
class Name {
 public:
  /// The empty name.
  Name() = default;
  /// Intern `text`. Explicit, so no per-event conversion hides in a copy.
  explicit Name(std::string_view text);

  const std::string& str() const { return text_ != nullptr ? *text_ : empty_text(); }
  std::string_view view() const { return str(); }
  bool empty() const { return text_ == nullptr; }

  friend bool operator==(Name a, Name b) { return a.text_ == b.text_; }
  friend bool operator==(Name a, std::string_view b) { return a.view() == b; }

 private:
  friend struct std::hash<Name>;
  static const std::string& empty_text();

  const std::string* text_ = nullptr;  // nullptr = the empty name
};

}  // namespace moteur::obs

template <>
struct std::hash<moteur::obs::Name> {
  std::size_t operator()(moteur::obs::Name name) const noexcept {
    return std::hash<const void*>()(name.text_);
  }
};
