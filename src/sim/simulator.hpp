#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/function.hpp"
#include "sim/slab.hpp"

namespace moteur::sim {

/// Simulated time, in seconds since the start of the run.
using Time = double;

/// Identifier of a scheduled event, usable to cancel it: the event's slot in
/// the simulator's slab (low 32 bits) and that slot's generation (high 32
/// bits). Never 0.
using EventId = std::uint64_t;

/// Discrete-event simulation kernel.
///
/// Events are (time, callback) pairs. Callbacks live in a slab of slots
/// recycled through a free list, and a binary heap orders (time, sequence,
/// slot, generation) entries. Ties on time are broken by insertion order,
/// which makes runs fully deterministic: the same schedule of calls always
/// replays the same execution. All grid components (broker, computing
/// elements, transfers) and the simulated enactment backend are driven from
/// this single clock. Once the slab and heap have grown to the run's peak,
/// scheduling and running an event whose callback fits a Function's inline
/// buffer allocates nothing.
class Simulator {
 public:
  using Callback = Function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule(Time delay, Callback fn);

  /// Schedule `fn` at absolute time `at` (at >= now()).
  EventId schedule_at(Time at, Callback fn);

  /// Cancel a pending event, destroying its callback (and what it captured)
  /// at once. Returns false if it already ran, was already cancelled, or
  /// never existed: a stale id never reaches an event that reuses its slot.
  bool cancel(EventId id);

  /// Run one event. Returns false when the queue is empty.
  bool step();

  /// Run until the event queue drains.
  void run();

  /// Run every event with time <= horizon, then advance the clock to
  /// `horizon` (if it is behind), whether or not events remain beyond it.
  void run_until(Time horizon);

  bool empty() const { return callbacks_.size() == 0; }
  std::size_t pending_events() const { return callbacks_.size(); }
  std::uint64_t executed_events() const { return executed_; }

 private:
  using Key = Slab<Callback>::Key;
  struct Entry {
    Time time;
    std::uint64_t sequence;  // insertion order; tie-breaker
    Key key;                 // stale (cancelled) when the slab no longer holds it
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  Time now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, EntryLater> queue_;
  Slab<Callback> callbacks_;
  std::uint64_t executed_ = 0;
};

}  // namespace moteur::sim
