#include "sim/resource.hpp"

#include <algorithm>
#include <utility>

#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace moteur::sim {

namespace {
constexpr std::size_t kInitialRing = 8;
}  // namespace

Resource::Resource(Simulator& simulator, std::size_t capacity)
    : simulator_(simulator), capacity_(capacity) {
  MOTEUR_REQUIRE(capacity >= 1, InternalError, "Resource: capacity must be >= 1");
}

void Resource::acquire(Function<void()> on_granted) {
  if (in_use_ < capacity_) {
    ++in_use_;
    on_granted();
    return;
  }
  if (waiting_ == ring_.size()) grow();
  ring_[(front_ + waiting_) % ring_.size()] = std::move(on_granted);
  ++waiting_;
}

void Resource::release() {
  MOTEUR_REQUIRE(in_use_ > 0, InternalError, "Resource::release without acquire");
  if (waiting_ == 0) {
    --in_use_;
    return;
  }
  // Hand the slot directly to the oldest waiter; in_use_ stays constant.
  Function<void()> next = std::move(ring_[front_]);
  front_ = (front_ + 1) % ring_.size();
  --waiting_;
  simulator_.schedule(0.0, std::move(next));
}

void Resource::grow() {
  std::vector<Function<void()>> ring(std::max(kInitialRing, 2 * ring_.size()));
  for (std::size_t i = 0; i < waiting_; ++i) {
    ring[i] = std::move(ring_[(front_ + i) % ring_.size()]);
  }
  ring_ = std::move(ring);
  front_ = 0;
}

}  // namespace moteur::sim
