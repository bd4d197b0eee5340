#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace moteur::obs {

/// The standard observability consumer: subscribes to an enactment's
/// RunEvent stream and materializes (1) the span tree — run -> processor ->
/// invocation -> attempt, with queued/running phase sub-spans derived from
/// the attempt timings — and (2) the run's metrics: submission/retry/timeout
/// counters, per-CE latency and queue-wait histograms, and tuples-in-flight
/// gauges. Feed it via Enactor::set_recorder; export with obs/export.hpp.
///
/// Reusable across runs AND across concurrently interleaved runs: the span
/// tables are kept per `RunEvent::run_id`, so a RunService can fan many runs'
/// events into one recorder and each run still gets its own coherent
/// run -> processor -> invocation subtree. Besides the service-wide totals,
/// each run contributes labelled per-run series (moteur_run_*_total{run=...},
/// moteur_run_makespan_seconds{run=...}).
///
/// Not thread-safe by itself: callers must serialize on_event, which both the
/// single-run Enactor (one drive thread) and the RunService (under its obs
/// lock) do by construction.
///
/// Recording costs copies, not allocations: each run's invocation and attempt
/// spans sit in flat tables indexed by the invocation id (dense within a
/// run), processor spans and cached instruments are found by interned Name,
/// and a finished run's tables serve the next run. Every span is still built
/// when its event arrives.
class RunRecorder {
 public:
  RunRecorder();

  void on_event(const RunEvent& event);

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  struct CeSeries {
    Histogram* latency = nullptr;
    Histogram* queue_wait = nullptr;
  };
  /// A CE's breaker state gauge and transition counters (by target state),
  /// each resolved when first needed.
  struct BreakerSeries {
    Gauge* state = nullptr;
    Counter* transitions[3] = {};
  };

  /// One invocation's open spans, at index invocation - 1 of its run's table.
  struct Slot {
    SpanId invocation = 0;  // 0 once completed or failed
    SpanId attempt = 0;     // attempt 1 until it ends
  };
  /// An open attempt other than the first: a retry or a watchdog clone.
  struct LaterAttempt {
    std::uint64_t invocation = 0;
    std::size_t attempt = 0;
    SpanId span = 0;
  };

  /// A run's span bookkeeping. Ids at most kMaxGap past the table grow it;
  /// ids further out (only hand-built events make them) go to the small
  /// maps, so no event can blow the table up.
  struct Tables {
    static constexpr std::uint64_t kMaxGap = 4096;

    std::vector<std::pair<Name, SpanId>> processors;
    std::vector<Slot> slots;
    std::vector<LaterAttempt> later;
    std::map<std::uint64_t, SpanId> far_invocations;
    std::map<std::pair<std::uint64_t, std::size_t>, SpanId> far_attempts;

    bool in_table(std::uint64_t id) const;
    /// The cell for an invocation's span / one attempt's span, made on
    /// first use.
    SpanId& invocation(std::uint64_t id);
    SpanId& attempt(std::uint64_t id, std::size_t attempt);
    /// An open span, or 0; take_* also forgets it.
    SpanId find_invocation(std::uint64_t id) const;
    SpanId take_invocation(std::uint64_t id);
    SpanId take_attempt(std::uint64_t id, std::size_t attempt);
    /// Empty every table, keeping its capacity.
    void clear();
  };

  /// Everything scoped to one live run, keyed by RunEvent::run_id. Created
  /// at kRunStarted (or the first event naming the run), discarded at
  /// kRunFinished; its tables go back to the spare pool.
  struct RunCtx {
    SpanId run_span = 0;
    Tables tables;
    std::size_t last_total_invocations = 0;
    // Per-run labelled series, resolved once at kRunStarted.
    Counter* invocations = nullptr;
    Counter* submissions = nullptr;
    Counter* cache_hits = nullptr;
    Gauge* makespan = nullptr;
  };

  /// One-entry memo over the per-run map: consecutive events almost always
  /// belong to the same run, so the hot path skips the string-keyed lookup.
  /// std::map nodes are stable, so the cached pointers survive unrelated
  /// insertions; they are dropped when their run is erased at kRunFinished.
  RunCtx& ctx(const std::string& run_id);
  /// The processor's span under the run, opened at `time` on first use.
  SpanId processor_span(RunCtx& c, Name processor, double time);
  CeSeries& ce_series(Name ce);
  Counter& failure_counter(Name status);
  Counter& processor_tuples(Name processor);
  void breaker(Name ce, double state, std::size_t to);
  void count_invocations(RunCtx& c, const RunEvent& event);

  Tracer tracer_;
  MetricsRegistry metrics_;

  std::map<std::string, RunCtx> runs_;
  const std::string* last_run_id_ = nullptr;
  RunCtx* last_ctx_ = nullptr;
  std::vector<Tables> spare_tables_;
  Name last_processor_;
  Counter* last_processor_tuples_ = nullptr;

  // Cached instruments (stable for the registry's lifetime).
  Counter* submissions_ = nullptr;
  Counter* invocations_ = nullptr;
  Counter* retries_ = nullptr;
  Counter* timeouts_ = nullptr;
  Counter* tuples_lost_ = nullptr;
  Counter* skipped_ = nullptr;
  Counter* rerouted_ = nullptr;
  Counter* cache_hits_ = nullptr;
  Counter* replica_lost_ = nullptr;
  Counter* replica_failovers_ = nullptr;
  Counter* rederived_ = nullptr;
  Counter* transfers_started_ = nullptr;
  Counter* transfers_done_ = nullptr;
  Counter* transfer_megabytes_ = nullptr;
  Gauge* tuples_in_flight_ = nullptr;
  Gauge* makespan_ = nullptr;
  std::unordered_map<Name, CeSeries> ce_series_;
  std::unordered_map<Name, Counter*> failure_counters_;
  std::unordered_map<Name, Counter*> processor_tuples_;
  std::unordered_map<Name, BreakerSeries> breakers_;
};

}  // namespace moteur::obs
