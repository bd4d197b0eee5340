#pragma once

#include <cstddef>
#include <vector>

#include "sim/function.hpp"

namespace moteur::sim {

class Simulator;

/// Capacity-limited FCFS resource: the generic building block for batch
/// queues (worker-node slots), broker submission pipelines and network links.
///
/// Callers request a slot with acquire(); the callback fires — synchronously
/// if a slot is free, otherwise later in FCFS order — once the slot is
/// granted. The holder must call release() exactly once when done.
class Resource {
 public:
  Resource(Simulator& simulator, std::size_t capacity);

  /// Request one slot. `on_granted` runs when the slot is assigned.
  void acquire(Function<void()> on_granted);

  /// Return one slot; grants it to the oldest waiter, if any. The waiter's
  /// callback is dispatched through the simulator at the current time (not
  /// inline) so release() never re-enters caller code.
  void release();

  std::size_t capacity() const { return capacity_; }
  std::size_t in_use() const { return in_use_; }
  std::size_t queue_length() const { return waiting_; }

 private:
  /// Double the ring, unrolling the waiters to its start in FIFO order.
  void grow();

  Simulator& simulator_;
  std::size_t capacity_;
  std::size_t in_use_ = 0;
  /// Waiters in a growable ring buffer: the oldest at ring_[front_], the
  /// i-th after it at ring_[(front_ + i) % ring_.size()], for i < waiting_.
  std::vector<Function<void()>> ring_;
  std::size_t front_ = 0;
  std::size_t waiting_ = 0;
};

}  // namespace moteur::sim
