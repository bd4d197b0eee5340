#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "util/error.hpp"

namespace moteur {

/// A vector whose first N elements live inside the object; more spill to one
/// heap block, so a short sequence is built, copied and destroyed without the
/// allocator. It offers the part of std::vector's interface the library uses,
/// and compares like std::vector: == element by element and <=> (hence <)
/// lexicographically, so ordered containers keyed by either iterate in the
/// same order. Moving a spilled vector steals its block; moving an inline one
/// moves its elements and leaves the source empty. Iterators are pointers,
/// invalidated by any growth past the capacity.
template <typename T, std::size_t N>
class SmallVector {
  static_assert(N > 0, "SmallVector needs inline room for at least one element");
  // Growth and moves relocate elements and must not throw halfway through.
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "SmallVector elements must be nothrow move constructible");

 public:
  using value_type = T;
  using size_type = std::size_t;
  using difference_type = std::ptrdiff_t;
  using reference = T&;
  using const_reference = const T&;
  using pointer = T*;
  using const_pointer = const T*;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() noexcept {}  // user-provided: a const SmallVector may be default-initialized
  SmallVector(std::initializer_list<T> items) { append(items.begin(), items.end()); }
  template <std::forward_iterator It>
  SmallVector(It first, It last) {
    append(first, last);
  }
  SmallVector(const SmallVector& other) { append(other.begin(), other.end()); }
  SmallVector(SmallVector&& other) noexcept { take(other); }
  ~SmallVector() { release(); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear();
      append(other.begin(), other.end());
    }
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }

  size_type size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  /// Whether the elements live inside the object.
  bool is_inline() const noexcept { return data_ == inline_data(); }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  iterator begin() noexcept { return data_; }
  iterator end() noexcept { return data_ + size_; }
  const_iterator begin() const noexcept { return data_; }
  const_iterator end() const noexcept { return data_ + size_; }

  T& operator[](size_type i) noexcept { return data_[i]; }
  const T& operator[](size_type i) const noexcept { return data_[i]; }
  T& at(size_type i) { return data_[checked(i)]; }
  const T& at(size_type i) const { return data_[checked(i)]; }
  T& back() noexcept { return data_[size_ - 1]; }
  const T& back() const noexcept { return data_[size_ - 1]; }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ < capacity_) {
      std::construct_at(data_ + size_, std::forward<Args>(args)...);
    } else {
      grow_building(size_ + 1,
                    [&](T* slot) { std::construct_at(slot, std::forward<Args>(args)...); });
    }
    return data_[size_++];
  }

  /// Appends [first, last): the end is the only position it accepts.
  template <std::forward_iterator It>
  iterator insert(const_iterator pos, It first, It last) {
    MOTEUR_REQUIRE(pos == end(), InternalError, "SmallVector::insert only appends");
    const size_type at = size_;
    append(first, last);
    return data_ + at;
  }

  void reserve(size_type capacity) {
    if (capacity > capacity_) relocate_to(allocate(capacity), capacity);
  }

  /// Destroys the elements and keeps the storage.
  void clear() noexcept {
    std::destroy(data_, data_ + size_);
    size_ = 0;
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend auto operator<=>(const SmallVector& a, const SmallVector& b) {
    return std::lexicographical_compare_three_way(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  T* inline_data() noexcept { return reinterpret_cast<T*>(inline_); }
  const T* inline_data() const noexcept { return reinterpret_cast<const T*>(inline_); }

  static T* allocate(size_type n) { return std::allocator<T>().allocate(n); }
  static void deallocate(T* block, size_type n) noexcept {
    std::allocator<T>().deallocate(block, n);
  }

  size_type checked(size_type i) const {
    if (i >= size_) throw std::out_of_range("SmallVector::at: index out of range");
    return i;
  }

  template <typename It>
  void append(It first, It last) {
    const auto count = static_cast<size_type>(std::distance(first, last));
    if (size_ + count <= capacity_) {
      std::uninitialized_copy(first, last, data_ + size_);
    } else {
      grow_building(size_ + count, [&](T* slot) { std::uninitialized_copy(first, last, slot); });
    }
    size_ += count;
  }

  /// Grows to hold at least `needed` elements (at least doubling), building
  /// the new elements at the old end with `build(slot)` before the old block
  /// is freed: what they are built from may be an element of this vector.
  template <typename Build>
  void grow_building(size_type needed, Build&& build) {
    const size_type capacity = std::max(2 * capacity_, needed);
    T* block = allocate(capacity);
    try {
      build(block + size_);
    } catch (...) {
      deallocate(block, capacity);
      throw;
    }
    relocate_to(block, capacity);
  }

  /// Moves the elements into `block` of `capacity` and frees the old block.
  void relocate_to(T* block, size_type capacity) noexcept {
    std::uninitialized_move(data_, data_ + size_, block);
    std::destroy(data_, data_ + size_);
    if (!is_inline()) deallocate(data_, capacity_);
    data_ = block;
    capacity_ = capacity;
  }

  /// Takes `other`'s elements into this empty, inline vector and leaves
  /// `other` empty and inline.
  void take(SmallVector& other) noexcept {
    if (other.is_inline()) {
      std::uninitialized_move(other.begin(), other.end(), inline_data());
      std::destroy(other.begin(), other.end());
    } else {
      data_ = std::exchange(other.data_, other.inline_data());
      capacity_ = std::exchange(other.capacity_, N);
    }
    size_ = std::exchange(other.size_, 0);
  }

  /// Destroys the elements and frees a spilled block: the vector is empty
  /// and inline again.
  void release() noexcept {
    clear();
    if (!is_inline()) deallocate(data_, capacity_);
    data_ = inline_data();
    capacity_ = N;
  }

  T* data_ = inline_data();
  size_type size_ = 0;
  size_type capacity_ = N;
  alignas(T) std::byte inline_[N * sizeof(T)];
};

}  // namespace moteur
