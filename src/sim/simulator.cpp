#include "sim/simulator.hpp"

#include "util/error.hpp"

namespace moteur::sim {

namespace {

EventId pack(Slab<Simulator::Callback>::Key key) {
  return static_cast<EventId>(key.generation) << 32 | key.slot;
}

Slab<Simulator::Callback>::Key unpack(EventId id) {
  return {static_cast<std::uint32_t>(id), static_cast<std::uint32_t>(id >> 32)};
}

}  // namespace

EventId Simulator::schedule(Time delay, Callback fn) {
  MOTEUR_REQUIRE(delay >= 0.0, InternalError, "Simulator::schedule: negative delay");
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Simulator::schedule_at(Time at, Callback fn) {
  MOTEUR_REQUIRE(at >= now_, InternalError, "Simulator::schedule_at: time in the past");
  const Key key = callbacks_.insert(std::move(fn));
  queue_.push(Entry{at, next_sequence_++, key});
  return pack(key);
}

bool Simulator::cancel(EventId id) {
  const Key key = unpack(id);
  if (!callbacks_.contains(key)) return false;
  callbacks_.take(key);
  // The queue entry stays behind as a tombstone and is skipped in step().
  return true;
}

bool Simulator::step() {
  while (!queue_.empty()) {
    const Entry entry = queue_.top();
    queue_.pop();
    if (!callbacks_.contains(entry.key)) continue;  // cancelled
    // Out of the slab before it runs: the callback may schedule events that
    // reuse its slot or grow the slab.
    const Callback fn = callbacks_.take(entry.key);
    now_ = entry.time;
    ++executed_;
    fn();
    return true;
  }
  return false;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(Time horizon) {
  while (!queue_.empty()) {
    // Peek past tombstones.
    const Entry entry = queue_.top();
    if (!callbacks_.contains(entry.key)) {
      queue_.pop();
      continue;
    }
    if (entry.time > horizon) break;
    step();
  }
  if (horizon > now_) now_ = horizon;
}

}  // namespace moteur::sim
