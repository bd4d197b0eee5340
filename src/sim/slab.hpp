#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace moteur::sim {

/// Values addressed by a (slot, generation) key, kept in one vector whose
/// slots are recycled through a free list: once the vector has grown to the
/// peak number of live values, insert() and take() allocate nothing. Each
/// slot's generation is odd while it holds a value and even while it is
/// free, and moves on at every insert and take, so a key outlives its value
/// harmlessly: contains() rejects it, and the slot's next tenant gets a key
/// of its own. References into the slab are invalidated by insert().
template <typename T>
class Slab {
 public:
  struct Key {
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;  // 0 never names a value
  };

  Key insert(T value) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(Slot{std::move(value), 1});
    } else {
      slot = free_.back();
      free_.pop_back();
      slots_[slot].value = std::move(value);
      ++slots_[slot].generation;
    }
    return {slot, slots_[slot].generation};
  }

  bool contains(Key key) const {
    return key.slot < slots_.size() && (key.generation & 1u) != 0 &&
           slots_[key.slot].generation == key.generation;
  }

  T& operator[](Key key) {
    MOTEUR_REQUIRE(contains(key), InternalError, "Slab: stale or unknown key");
    return slots_[key.slot].value;
  }

  /// Move the value out and free its slot.
  T take(Key key) {
    T& value = (*this)[key];
    T out = std::move(value);
    ++slots_[key.slot].generation;
    free_.push_back(key.slot);
    return out;
  }

  /// Live values.
  std::size_t size() const { return slots_.size() - free_.size(); }

 private:
  struct Slot {
    T value;
    std::uint32_t generation;
  };
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // LIFO: the most recently freed slot is reused first
};

}  // namespace moteur::sim
