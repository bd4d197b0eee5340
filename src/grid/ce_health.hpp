#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>

namespace moteur::grid {

/// Circuit-breaker configuration for per-CE health tracking. The rolling
/// window counts the most recent attempt outcomes of each computing element;
/// once `threshold` of the last `window` attempts failed, the breaker opens
/// and routing avoids the site until `cooldown_seconds` have passed, after
/// which a single half-open probe decides whether it rejoins.
struct BreakerPolicy {
  bool enabled = false;
  /// Rolling window of attempt outcomes kept per CE.
  std::size_t window = 8;
  /// Failures within the window that open the breaker.
  std::size_t threshold = 4;
  /// Seconds an open breaker cools down before admitting a probe.
  double cooldown_seconds = 1800.0;

  bool operator==(const BreakerPolicy&) const = default;
};

/// Breaker state of one computing element.
///  - Closed:   healthy, submissions route normally;
///  - Open:     failing, submissions route elsewhere until the cooldown ends;
///  - HalfOpen: one probe submission is out; its outcome closes or reopens.
enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* to_string(BreakerState s);

/// Per-CE health ledger with a circuit breaker per computing element.
/// Thread-safe: a RunService shares one ledger across every engine shard, so
/// queries and outcome recording may arrive from several shard threads at
/// once; an internal mutex serializes them (uncontended in the historical
/// single-worker setup). Transition/reroute listeners fire with the lock
/// held — they must not call back into the ledger.
///
/// A straggler completing after its breaker opened only updates the ledger
/// through the half-open decision: outcomes recorded while the breaker is
/// open are ignored, so stale attempts from before the trip cannot flap the
/// state.
class CeHealth {
 public:
  struct Transition {
    std::string computing_element;
    BreakerState from = BreakerState::kClosed;
    BreakerState to = BreakerState::kClosed;
    double time = 0.0;
    /// Failures in the rolling window when the transition happened.
    std::size_t failures_in_window = 0;
  };
  using TransitionListener = std::function<void(const Transition&)>;
  /// A routing decision excluded at least one open CE.
  using RerouteListener = std::function<void(double time)>;

  explicit CeHealth(BreakerPolicy policy);

  const BreakerPolicy& policy() const { return policy_; }

  void set_transition_listener(TransitionListener listener);
  void set_reroute_listener(RerouteListener listener);

  /// Record the outcome of one attempt that ran on `ce` at backend time
  /// `now`. Drives Closed -> Open (threshold reached) and the half-open
  /// probe decision (HalfOpen -> Closed on success, -> Open on failure).
  void record(const std::string& ce, bool success, double now);

  /// Whether a new submission may be routed to `ce` right now: closed
  /// breakers always admit, open ones only once their cooldown has elapsed
  /// (the would-be probe), half-open ones never (the probe is already out).
  /// Pure query — commit a routing decision with on_routed().
  bool admissible(const std::string& ce, double now) const;

  /// Commit a routing decision: a submission is actually going to `ce`.
  /// Turns an admissible open breaker into HalfOpen (its probe is now out).
  void on_routed(const std::string& ce, double now);

  /// Routing excluded at least one open CE for this submission.
  void note_rerouted(double now);

  BreakerState state(const std::string& ce) const;
  std::size_t open_breakers() const;

  std::size_t opens() const;
  std::size_t closes() const;
  std::size_t probes() const;

 private:
  struct Entry {
    BreakerState state = BreakerState::kClosed;
    std::deque<bool> window;  // true = the attempt failed
    std::size_t failures = 0;
    double opened_at = 0.0;
  };

  Entry& entry(const std::string& ce) { return entries_[ce]; }
  void transition(const std::string& ce, Entry& e, BreakerState to, double now);

  mutable std::mutex mu_;
  BreakerPolicy policy_;
  std::map<std::string, Entry> entries_;
  TransitionListener on_transition_;
  RerouteListener on_reroute_;
  std::size_t opens_ = 0;
  std::size_t closes_ = 0;
  std::size_t probes_ = 0;
};

}  // namespace moteur::grid
