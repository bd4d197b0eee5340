#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace moteur::sim {

/// Bytes of callable a Function holds without touching the heap: six
/// pointers, room for every continuation of the simulated grid.
inline constexpr std::size_t kInlineCallableBytes = 48;

template <typename Signature>
class Function;

/// Move-only type-erased callable with fixed inline storage: the simulator's
/// event callbacks, resource waiters and the grid's continuations. A callable
/// of at most kInlineCallableBytes (pointer-aligned, nothrow-movable) lives
/// inside the Function; a larger one falls back to one heap allocation, so
/// any lambda works. Calling an empty Function is undefined.
template <typename R, typename... Args>
class Function<R(Args...)> {
 public:
  Function() noexcept = default;
  Function(std::nullptr_t) noexcept {}

  template <typename F, typename Target = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Target, Function> &&
                                        std::is_invocable_r_v<R, Target&, Args...>>>
  Function(F&& f) {
    if constexpr (kInline<Target>) {
      ::new (static_cast<void*>(storage_)) Target(std::forward<F>(f));
      ops_ = &kInlineOps<Target>;
    } else {
      ::new (static_cast<void*>(storage_)) Target*(new Target(std::forward<F>(f)));
      ops_ = &kHeapOps<Target>;
    }
  }

  Function(Function&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  Function& operator=(Function&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        other.ops_->relocate(other.storage_, storage_);
        ops_ = std::exchange(other.ops_, nullptr);
      }
    }
    return *this;
  }

  Function& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  Function(const Function&) = delete;
  Function& operator=(const Function&) = delete;

  ~Function() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  R operator()(Args... args) const {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    /// Move-construct the callable at `to` and destroy the one at `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename T>
  static constexpr bool kInline = sizeof(T) <= kInlineCallableBytes &&
                                  alignof(T) <= alignof(void*) &&
                                  std::is_nothrow_move_constructible_v<T>;

  template <typename T>
  static T& inline_target(void* storage) {
    return *std::launder(static_cast<T*>(storage));
  }
  template <typename T>
  static T*& heap_target(void* storage) {
    return *std::launder(static_cast<T**>(storage));
  }

  template <typename T>
  static constexpr Ops kInlineOps = {
      [](void* storage, Args&&... args) -> R {
        return inline_target<T>(storage)(std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept {
        T& source = inline_target<T>(from);
        ::new (to) T(std::move(source));
        source.~T();
      },
      [](void* storage) noexcept { inline_target<T>(storage).~T(); },
  };

  template <typename T>
  static constexpr Ops kHeapOps = {
      [](void* storage, Args&&... args) -> R {
        return (*heap_target<T>(storage))(std::forward<Args>(args)...);
      },
      [](void* from, void* to) noexcept { ::new (to) T*(heap_target<T>(from)); },
      [](void* storage) noexcept { delete heap_target<T>(storage); },
  };

  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(storage_);
  }

  alignas(void*) mutable unsigned char storage_[kInlineCallableBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace moteur::sim
