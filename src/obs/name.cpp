#include "obs/name.hpp"

#include <mutex>
#include <unordered_set>

namespace moteur::obs {

namespace {

struct Hash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>()(text);
  }
};

/// The process-wide intern table. Set nodes never move, so the address of
/// an interned string is stable; the table is never destroyed, so a Name
/// read during static destruction still points at live text.
struct Table {
  std::mutex mu;
  std::unordered_set<std::string, Hash, std::equal_to<>> texts;
};

Table& table() {
  static Table* const instance = new Table;
  return *instance;
}

}  // namespace

Name::Name(std::string_view text) {
  if (text.empty()) return;
  Table& t = table();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.texts.find(text);
  if (it == t.texts.end()) it = t.texts.emplace(text).first;
  text_ = &*it;
}

const std::string& Name::empty_text() {
  static const std::string* const kEmpty = new std::string;
  return *kEmpty;
}

}  // namespace moteur::obs
