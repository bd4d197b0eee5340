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
/// RunEvent stream and materializes (1) the run's metrics: submission/retry/
/// timeout counters, per-CE latency and queue-wait histograms, and
/// tuples-in-flight gauges, and (2) the span tree — run -> processor ->
/// invocation -> attempt, with queued/running phase sub-spans derived from
/// the attempt timings. Feed it via Enactor::set_recorder; export with
/// obs/export.hpp.
///
/// Record now, build spans on read: on_event keeps every metric live and
/// appends one 48-byte record per span-bearing event (two for an attempt's
/// end) to a chunked log. tracer() replays the records no read has replayed
/// yet into the span tree, then forgets them. The span tables persist
/// between reads, so a read in the middle of a run and a read at its end give
/// the same spans, and memory holds a run's records or its spans, not both.
///
/// Reusable across runs AND across concurrently interleaved runs: the span
/// tables are kept per run, so a RunService can fan many runs' events into
/// one recorder and each run still gets its own coherent run -> processor ->
/// invocation subtree. Besides the service-wide totals, each run contributes
/// labelled per-run series (moteur_run_*_total{run=...},
/// moteur_run_makespan_seconds{run=...}).
///
/// Not thread-safe by itself: callers must serialize on_event and tracer(),
/// which writes the spans it derives. The single-run Enactor (one drive
/// thread) does so by construction; the RunService delivers events and runs
/// with_observability under one obs lock.
///
/// Recording costs copies, not allocations: a record names its run by an
/// ordinal and its processor by interned Name, the run id is logged once per
/// run, and error or file text only when there is some. Replaying costs
/// copies too: each run's invocation and attempt spans sit in flat tables
/// indexed by the invocation id (dense within a run), processor spans are
/// found by Name, and a finished run's tables serve the next run.
class RunRecorder {
 public:
  RunRecorder();

  void on_event(const RunEvent& event);

  /// The span tree of every event so far: replays the unread records first.
  const Tracer& tracer();
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

  /// A live run's metric state, keyed by RunEvent::run_id. Created at
  /// kRunStarted (or the first span-bearing event naming the run), erased at
  /// kRunFinished.
  struct RunMetrics {
    std::uint32_t ordinal = 0;  // names the run in the record log
    double start = 0.0;         // the kRunStarted's time
    std::size_t last_total_invocations = 0;
    // Per-run labelled series, resolved once at kRunStarted (so a run whose
    // start never arrived has no makespan).
    Counter* invocations = nullptr;
    Counter* submissions = nullptr;
    Counter* cache_hits = nullptr;
    Gauge* makespan = nullptr;
  };

  /// One span-bearing event, as the span builder reads it.
  struct Record {
    static constexpr std::uint8_t kSuperseded = 1;  // kAttemptEnded
    static constexpr std::uint8_t kText = 2;        // the next side-table text is ours

    RunEvent::Kind kind() const { return static_cast<RunEvent::Kind>(kind_); }

    std::uint8_t kind_ = 0;
    std::uint8_t flags = 0;
    std::uint32_t run = 0;  // RunMetrics::ordinal
    std::uint64_t attempt = 0;
    std::uint64_t invocation = 0;
    double time = 0.0;
    Name name;  // the processor; the workflow at kRunStarted
    std::uint64_t tuples = 0;
  };
  /// The slot after a kAttemptEnded record: the attempt's outcome.
  struct AttemptEnd {
    Name status;
    Name computing_element;
    double submit_time = -1.0;
    double start_time = -1.0;
    double end_time = -1.0;
    double stage_in_seconds = 0.0;
  };
  union Entry {
    Entry() : record() {}
    Record record;
    AttemptEnd end;
  };
  static_assert(sizeof(Entry) == 48, "a record is 48 bytes");
  static constexpr std::size_t kEntriesPerChunk = 1024;
  static constexpr std::size_t kTextsPerChunk = 64;

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

  /// A run's spans under construction, keyed by its ordinal. Created by its
  /// first record, discarded at its kRunFinished record; its tables go back
  /// to the spare pool.
  struct RunSpans {
    SpanId run_span = 0;
    Tables tables;
  };

  /// One-entry memo over the per-run map: consecutive events almost always
  /// belong to the same run, so the hot path skips the string-keyed lookup.
  /// std::map nodes are stable, so the cached pointers survive unrelated
  /// insertions; they are dropped when their run is erased at kRunFinished.
  RunMetrics& run_metrics(const std::string& run_id);
  /// A new record of `event` in the log, for the run `m`.
  Record& append(const RunEvent& event, const RunMetrics& m);
  /// Give `record` the text `text` in the side table, when there is any.
  void append_text(Record& record, const std::string& text);
  CeSeries& ce_series(Name ce);
  Counter& failure_counter(Name status);
  Counter& processor_tuples(Name processor);
  void breaker(Name ce, double state, std::size_t to);
  void count_invocations(RunMetrics& m, const RunEvent& event);

  /// Build the spans of one record; `end` is its outcome slot at
  /// kAttemptEnded, `text` its side-table text.
  void build(const Record& record, const AttemptEnd* end, std::string text);
  /// The run's span state, same memo scheme as run_metrics.
  RunSpans& run_spans(std::uint32_t ordinal);
  /// The processor's span under the run, opened at `time` on first use.
  SpanId processor_span(RunSpans& c, Name processor, double time);

  MetricsRegistry metrics_;
  std::map<std::string, RunMetrics> runs_;
  const std::string* last_run_id_ = nullptr;
  RunMetrics* last_metrics_ = nullptr;
  std::uint32_t next_ordinal_ = 0;
  Name last_processor_;
  Counter* last_processor_tuples_ = nullptr;

  // The records no read has replayed, and their texts in record order.
  ChunkedVector<Entry, kEntriesPerChunk> log_;
  ChunkedVector<std::string, kTextsPerChunk> texts_;

  // The spans replayed so far, and the tables of the runs still open.
  Tracer tracer_;
  std::map<std::uint32_t, RunSpans> spans_;
  std::uint32_t last_ordinal_ = 0;
  RunSpans* last_spans_ = nullptr;
  std::vector<Tables> spare_tables_;

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
