#include "grid/ce_health.hpp"

#include "util/log.hpp"

namespace moteur::grid {

const char* to_string(BreakerState s) {
  switch (s) {
    case BreakerState::kClosed: return "Closed";
    case BreakerState::kOpen: return "Open";
    case BreakerState::kHalfOpen: return "HalfOpen";
  }
  return "?";
}

CeHealth::CeHealth(BreakerPolicy policy) : policy_(policy) {}

void CeHealth::set_transition_listener(TransitionListener listener) {
  on_transition_ = std::move(listener);
}

void CeHealth::set_reroute_listener(RerouteListener listener) {
  on_reroute_ = std::move(listener);
}

void CeHealth::transition(const std::string& ce, Entry& e, BreakerState to, double now) {
  const BreakerState from = e.state;
  e.state = to;
  switch (to) {
    case BreakerState::kOpen:
      e.opened_at = now;
      ++opens_;
      break;
    case BreakerState::kHalfOpen:
      ++probes_;
      break;
    case BreakerState::kClosed:
      e.window.clear();
      e.failures = 0;
      ++closes_;
      break;
  }
  MOTEUR_LOG(kInfo, "breaker") << "CE '" << ce << "' " << to_string(from) << " -> "
                               << to_string(to) << " (failures in window: " << e.failures
                               << ")";
  if (on_transition_) {
    on_transition_(Transition{ce, from, to, now, e.failures});
  }
}

void CeHealth::record(const std::string& ce, bool success, double now) {
  if (!policy_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry(ce);
  switch (e.state) {
    case BreakerState::kOpen:
      // Stale outcome from an attempt routed before the trip: ignore, the
      // cooldown clock alone decides when a probe goes out.
      return;
    case BreakerState::kHalfOpen:
      transition(ce, e, success ? BreakerState::kClosed : BreakerState::kOpen, now);
      return;
    case BreakerState::kClosed:
      e.window.push_back(!success);
      if (!success) ++e.failures;
      while (e.window.size() > policy_.window) {
        if (e.window.front()) --e.failures;
        e.window.pop_front();
      }
      if (e.failures >= policy_.threshold) {
        transition(ce, e, BreakerState::kOpen, now);
      }
      return;
  }
}

bool CeHealth::admissible(const std::string& ce, double now) const {
  if (!policy_.enabled) return true;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(ce);
  if (it == entries_.end()) return true;
  switch (it->second.state) {
    case BreakerState::kClosed: return true;
    case BreakerState::kOpen:
      return now >= it->second.opened_at + policy_.cooldown_seconds;
    case BreakerState::kHalfOpen: return false;
  }
  return true;
}

void CeHealth::on_routed(const std::string& ce, double now) {
  if (!policy_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entry(ce);
  if (e.state == BreakerState::kOpen && now >= e.opened_at + policy_.cooldown_seconds) {
    transition(ce, e, BreakerState::kHalfOpen, now);
  }
}

void CeHealth::note_rerouted(double now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (on_reroute_) on_reroute_(now);
}

BreakerState CeHealth::state(const std::string& ce) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(ce);
  return it == entries_.end() ? BreakerState::kClosed : it->second.state;
}

std::size_t CeHealth::open_breakers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t count = 0;
  for (const auto& [name, e] : entries_) {
    if (e.state != BreakerState::kClosed) ++count;
  }
  return count;
}

std::size_t CeHealth::opens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return opens_;
}

std::size_t CeHealth::closes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closes_;
}

std::size_t CeHealth::probes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return probes_;
}

}  // namespace moteur::grid
