#include "obs/recorder.hpp"

#include <algorithm>
#include <charconv>
#include <memory>

namespace moteur::obs {

const char* to_string(RunEvent::Kind kind) {
  switch (kind) {
    case RunEvent::Kind::kRunStarted: return "RunStarted";
    case RunEvent::Kind::kRunFinished: return "RunFinished";
    case RunEvent::Kind::kInvocationStarted: return "InvocationStarted";
    case RunEvent::Kind::kInvocationCompleted: return "InvocationCompleted";
    case RunEvent::Kind::kInvocationFailed: return "InvocationFailed";
    case RunEvent::Kind::kAttemptStarted: return "AttemptStarted";
    case RunEvent::Kind::kAttemptEnded: return "AttemptEnded";
    case RunEvent::Kind::kRetryScheduled: return "RetryScheduled";
    case RunEvent::Kind::kWatchdogFired: return "WatchdogFired";
    case RunEvent::Kind::kProcessorFinished: return "ProcessorFinished";
    case RunEvent::Kind::kInvocationSkipped: return "InvocationSkipped";
    case RunEvent::Kind::kBreakerOpened: return "BreakerOpened";
    case RunEvent::Kind::kBreakerHalfOpen: return "BreakerHalfOpen";
    case RunEvent::Kind::kBreakerClosed: return "BreakerClosed";
    case RunEvent::Kind::kSubmissionRerouted: return "SubmissionRerouted";
    case RunEvent::Kind::kCacheHit: return "CacheHit";
    case RunEvent::Kind::kReplicaLost: return "ReplicaLost";
    case RunEvent::Kind::kReplicaFailover: return "ReplicaFailover";
    case RunEvent::Kind::kReDerived: return "ReDerived";
    case RunEvent::Kind::kTransferStarted: return "TransferStarted";
    case RunEvent::Kind::kTransferDone: return "TransferDone";
  }
  return "?";
}

RunRecorder::RunRecorder() {
  submissions_ = &metrics_.counter("moteur_submissions_total",
                                   "Backend executions, attempts included");
  invocations_ =
      &metrics_.counter("moteur_invocations_total", "Logical service invocations completed");
  retries_ = &metrics_.counter("moteur_retries_total", "Resubmissions after transient failures");
  timeouts_ = &metrics_.counter("moteur_timeouts_total", "Watchdog-triggered clone submissions");
  tuples_lost_ =
      &metrics_.counter("moteur_tuples_lost_total", "Data tuples lost to definitive failures");
  skipped_ = &metrics_.counter("moteur_invocations_skipped_total",
                               "Invocations skipped after consuming a poisoned token");
  rerouted_ = &metrics_.counter("moteur_submissions_rerouted_total",
                                "Submissions whose matchmaking excluded an open breaker");
  cache_hits_ = &metrics_.counter("moteur_cache_hits_total",
                                  "Invocations served from the memoization cache");
  replica_lost_ = &metrics_.counter(
      "moteur_replica_lost_total",
      "Input files observed with no surviving replica (per losing attempt)");
  replica_failovers_ = &metrics_.counter(
      "moteur_replica_failovers_total",
      "Stage-ins that fell through to a surviving replica after a fault");
  rederived_ = &metrics_.counter("moteur_replica_rederived_total",
                                 "Lost files regenerated by lineage recovery");
  transfers_started_ =
      &metrics_.counter("moteur_transfer_started_total",
                        "SE-to-SE third-party transfers requested");
  transfers_done_ = &metrics_.counter("moteur_transfer_done_total",
                                      "SE-to-SE third-party transfers completed");
  transfer_megabytes_ =
      &metrics_.counter("moteur_transfer_observed_megabytes_total",
                        "Megabytes landed by SE-to-SE third-party transfers");
  tuples_in_flight_ = &metrics_.gauge("moteur_tuples_in_flight",
                                      "Data tuples currently handed to the backend");
  makespan_ =
      &metrics_.gauge("moteur_makespan_seconds", "Total execution time Sigma of the run");
}

namespace {

// Static names: interned once per process, never per event.
const Name& local_ce() {
  static const Name kLocal("local");  // per-CE label when the backend names none
  return kLocal;
}

/// `text`, `separator`, the decimal `n` and `tail` concatenated into one
/// string (one allocation at most; none when it fits inline).
std::string numbered(std::string_view text, std::string_view separator, std::uint64_t n,
                     std::string_view tail = {}) {
  char digits[20];
  const char* const end = std::to_chars(digits, digits + sizeof(digits), n).ptr;
  const auto length = static_cast<std::size_t>(end - digits);
  std::string out;
  out.reserve(text.size() + separator.size() + length + tail.size());
  out.append(text).append(separator).append(digits, length).append(tail);
  return out;
}

}  // namespace

bool RunRecorder::Tables::in_table(std::uint64_t id) const {
  return id != 0 && id <= slots.size() + kMaxGap;
}

SpanId& RunRecorder::Tables::invocation(std::uint64_t id) {
  if (!in_table(id)) return far_invocations[id];
  if (id > slots.size()) slots.resize(id);
  return slots[id - 1].invocation;
}

SpanId RunRecorder::Tables::find_invocation(std::uint64_t id) const {
  if (id != 0 && id <= slots.size() && slots[id - 1].invocation != 0) {
    return slots[id - 1].invocation;
  }
  const auto it = far_invocations.find(id);
  return it == far_invocations.end() ? 0 : it->second;
}

SpanId RunRecorder::Tables::take_invocation(std::uint64_t id) {
  if (id != 0 && id <= slots.size() && slots[id - 1].invocation != 0) {
    return std::exchange(slots[id - 1].invocation, 0);
  }
  const auto it = far_invocations.find(id);
  if (it == far_invocations.end()) return 0;
  const SpanId span = it->second;
  far_invocations.erase(it);
  return span;
}

SpanId& RunRecorder::Tables::attempt(std::uint64_t id, std::size_t attempt) {
  if (!in_table(id)) return far_attempts[{id, attempt}];
  if (attempt == 1) {
    if (id > slots.size()) slots.resize(id);
    return slots[id - 1].attempt;
  }
  for (LaterAttempt& entry : later) {
    if (entry.invocation == id && entry.attempt == attempt) return entry.span;
  }
  return later.emplace_back(LaterAttempt{id, attempt, 0}).span;
}

SpanId RunRecorder::Tables::take_attempt(std::uint64_t id, std::size_t attempt) {
  if (attempt == 1 && id != 0 && id <= slots.size() && slots[id - 1].attempt != 0) {
    return std::exchange(slots[id - 1].attempt, 0);
  }
  for (LaterAttempt& entry : later) {
    if (entry.invocation != id || entry.attempt != attempt) continue;
    const SpanId span = entry.span;
    entry = later.back();  // the list stays short: open retries and clones only
    later.pop_back();
    return span;
  }
  const auto it = far_attempts.find({id, attempt});
  if (it == far_attempts.end()) return 0;
  const SpanId span = it->second;
  far_attempts.erase(it);
  return span;
}

void RunRecorder::Tables::clear() {
  processors.clear();
  slots.clear();
  later.clear();
  far_invocations.clear();
  far_attempts.clear();
}

RunRecorder::CeSeries& RunRecorder::ce_series(Name ce) {
  const auto [it, inserted] = ce_series_.try_emplace(ce);
  if (inserted) {
    const Labels by_ce{{"ce", ce.str()}};
    it->second.latency = &metrics_.histogram(
        "moteur_ce_latency_seconds",
        "Submission-to-completion latency of successful attempts, per CE",
        Histogram::latency_bounds(), by_ce);
    it->second.queue_wait = &metrics_.histogram(
        "moteur_ce_queue_wait_seconds",
        "Submission-to-payload-start wait of successful attempts, per CE",
        Histogram::latency_bounds(), by_ce);
  }
  return it->second;
}

Counter& RunRecorder::failure_counter(Name status) {
  const auto [it, inserted] = failure_counters_.try_emplace(status, nullptr);
  if (inserted) {
    it->second = &metrics_.counter("moteur_attempt_failures_total",
                                   "Failed backend executions by status",
                                   Labels{{"status", status.str()}});
  }
  return *it->second;
}

void RunRecorder::breaker(Name ce, double state, std::size_t to) {
  static const char* const kTargets[] = {"open", "half-open", "closed"};
  BreakerSeries& series = breakers_[ce];
  if (series.state == nullptr) {
    series.state = &metrics_.gauge(
        "moteur_breaker_open",
        "Circuit-breaker state per CE (0 closed, 0.5 half-open, 1 open)",
        Labels{{"ce", ce.str()}});
  }
  series.state->set(state);
  Counter*& transitions = series.transitions[to];
  if (transitions == nullptr) {
    transitions = &metrics_.counter("moteur_breaker_transitions_total",
                                    "Circuit-breaker transitions by CE and target state",
                                    Labels{{"ce", ce.str()}, {"to", kTargets[to]}});
  }
  transitions->inc();
}

Counter& RunRecorder::processor_tuples(Name processor) {
  // One-entry memo: invocation completions arrive in per-processor bursts
  // (counters are never erased, the cached pointer stays valid for the
  // registry's lifetime).
  if (last_processor_tuples_ != nullptr && processor == last_processor_) {
    return *last_processor_tuples_;
  }
  const auto [it, inserted] = processor_tuples_.try_emplace(processor, nullptr);
  if (inserted) {
    it->second = &metrics_.counter("moteur_processor_tuples_total",
                                   "Data tuples completed per processor",
                                   Labels{{"processor", processor.str()}});
  }
  last_processor_ = processor;
  last_processor_tuples_ = it->second;
  return *it->second;
}

RunRecorder::RunMetrics& RunRecorder::run_metrics(const std::string& run_id) {
  if (last_metrics_ != nullptr && run_id == *last_run_id_) return *last_metrics_;
  auto [it, inserted] = runs_.try_emplace(run_id);
  if (inserted) it->second.ordinal = next_ordinal_++;
  last_run_id_ = &it->first;
  last_metrics_ = &it->second;
  return it->second;
}

RunRecorder::Record& RunRecorder::append(const RunEvent& event, const RunMetrics& m) {
  Record& record = log_.emplace_back().record;
  record.kind_ = static_cast<std::uint8_t>(event.kind);
  record.run = m.ordinal;
  record.attempt = event.attempt;
  record.invocation = event.invocation;
  record.time = event.time;
  record.name = event.kind == RunEvent::Kind::kRunStarted ? event.run : event.processor;
  record.tuples = event.tuples;
  return record;
}

void RunRecorder::append_text(Record& record, const std::string& text) {
  if (text.empty()) return;
  record.flags |= Record::kText;
  texts_.emplace_back() = text;
}

void RunRecorder::count_invocations(RunMetrics& m, const RunEvent& event) {
  const auto delta =
      static_cast<double>(event.total_invocations - m.last_total_invocations);
  invocations_->inc(delta);
  if (m.invocations != nullptr) m.invocations->inc(delta);
  m.last_total_invocations = event.total_invocations;
  processor_tuples(event.processor).inc(static_cast<double>(event.tuples));
}

void RunRecorder::on_event(const RunEvent& event) {
  switch (event.kind) {
    case RunEvent::Kind::kRunStarted: {
      // A re-used run id (sequential runs through one Enactor) starts over,
      // its per-run counters accumulating.
      RunMetrics& m = run_metrics(event.run_id);
      m.start = event.time;
      m.last_total_invocations = event.total_invocations;
      const Labels by_run{{"run", event.run_id}};
      m.invocations = &metrics_.counter("moteur_run_invocations_total",
                                        "Logical invocations completed, per run", by_run);
      m.submissions = &metrics_.counter("moteur_run_submissions_total",
                                        "Backend executions launched, per run", by_run);
      m.makespan = &metrics_.gauge("moteur_run_makespan_seconds",
                                   "Total execution time Sigma, per run", by_run);
      m.cache_hits = &metrics_.counter("moteur_run_cache_hits_total",
                                       "Invocations served from the cache, per run", by_run);
      append_text(append(event, m), event.run_id);
      break;
    }

    case RunEvent::Kind::kRunFinished: {
      RunMetrics& m = run_metrics(event.run_id);
      if (m.makespan != nullptr) {
        makespan_->set(event.time - m.start);
        m.makespan->set(event.time - m.start);
      }
      tuples_in_flight_->set(static_cast<double>(event.tuples_in_flight));
      append(event, m);
      last_metrics_ = nullptr;  // the node dies with the erase
      runs_.erase(event.run_id);
      break;
    }

    case RunEvent::Kind::kInvocationStarted: {
      append(event, run_metrics(event.run_id));
      tuples_in_flight_->set(static_cast<double>(event.tuples_in_flight));
      break;
    }

    case RunEvent::Kind::kAttemptStarted: {
      RunMetrics& m = run_metrics(event.run_id);
      append(event, m);
      submissions_->inc();
      if (m.submissions != nullptr) m.submissions->inc();
      break;
    }

    case RunEvent::Kind::kAttemptEnded: {
      Record& record = append(event, run_metrics(event.run_id));
      if (event.superseded) record.flags |= Record::kSuperseded;
      append_text(record, event.error);
      std::construct_at(&log_.emplace_back().end,
                        AttemptEnd{event.status, event.computing_element, event.submit_time,
                                   event.start_time, event.end_time, event.stage_in_seconds});
      if (event.ok) {
        CeSeries& series = ce_series(event.computing_element.empty()
                                         ? local_ce()
                                         : event.computing_element);
        series.latency->observe(event.end_time - event.submit_time);
        if (event.start_time >= event.submit_time) {
          series.queue_wait->observe(event.start_time - event.submit_time);
        }
      } else {
        failure_counter(event.status).inc();
      }
      break;
    }

    case RunEvent::Kind::kInvocationCompleted: {
      RunMetrics& m = run_metrics(event.run_id);
      append(event, m);
      count_invocations(m, event);
      tuples_in_flight_->set(static_cast<double>(event.tuples_in_flight));
      break;
    }

    case RunEvent::Kind::kInvocationFailed: {
      append(event, run_metrics(event.run_id));
      tuples_lost_->inc(static_cast<double>(event.tuples));
      tuples_in_flight_->set(static_cast<double>(event.tuples_in_flight));
      break;
    }

    case RunEvent::Kind::kRetryScheduled: {
      retries_->inc();
      break;
    }

    case RunEvent::Kind::kWatchdogFired: {
      timeouts_->inc();
      break;
    }

    case RunEvent::Kind::kProcessorFinished: {
      append(event, run_metrics(event.run_id));
      break;
    }

    case RunEvent::Kind::kInvocationSkipped: {
      append_text(append(event, run_metrics(event.run_id)), event.error);
      skipped_->inc(static_cast<double>(event.tuples));
      break;
    }

    case RunEvent::Kind::kBreakerOpened: {
      breaker(event.computing_element, 1.0, 0);
      break;
    }

    case RunEvent::Kind::kBreakerHalfOpen: {
      breaker(event.computing_element, 0.5, 1);
      break;
    }

    case RunEvent::Kind::kBreakerClosed: {
      breaker(event.computing_element, 0.0, 2);
      break;
    }

    case RunEvent::Kind::kSubmissionRerouted: {
      rerouted_->inc();
      break;
    }

    case RunEvent::Kind::kReplicaLost: {
      replica_lost_->inc();
      break;
    }

    case RunEvent::Kind::kReplicaFailover: {
      replica_failovers_->inc(static_cast<double>(std::max<std::size_t>(event.count, 1)));
      break;
    }

    // Service-scope (empty run_id): counters only, no per-run span tree.
    case RunEvent::Kind::kTransferStarted: {
      transfers_started_->inc();
      break;
    }

    case RunEvent::Kind::kTransferDone: {
      transfers_done_->inc();
      transfer_megabytes_->inc(event.megabytes);
      break;
    }

    case RunEvent::Kind::kReDerived: {
      append_text(append(event, run_metrics(event.run_id)), event.logical_file);
      rederived_->inc();
      break;
    }

    case RunEvent::Kind::kCacheHit: {
      RunMetrics& m = run_metrics(event.run_id);
      append(event, m);
      // A hit completes logical invocations without a kInvocationCompleted:
      // fold the delta into the invocation counters here.
      count_invocations(m, event);
      cache_hits_->inc();
      if (m.cache_hits != nullptr) m.cache_hits->inc();
      break;
    }
  }
}

const Tracer& RunRecorder::tracer() {
  std::size_t next_text = 0;
  for (std::size_t i = 0; i < log_.size(); ++i) {
    const Record& record = log_[i].record;
    const AttemptEnd* end =
        record.kind() == RunEvent::Kind::kAttemptEnded ? &log_[++i].end : nullptr;
    std::string text;
    if ((record.flags & Record::kText) != 0) text = std::move(texts_[next_text++]);
    build(record, end, std::move(text));
  }
  log_ = {};
  texts_ = {};
  return tracer_;
}

RunRecorder::RunSpans& RunRecorder::run_spans(std::uint32_t ordinal) {
  if (last_spans_ != nullptr && ordinal == last_ordinal_) return *last_spans_;
  auto [it, inserted] = spans_.try_emplace(ordinal);
  if (inserted && !spare_tables_.empty()) {
    it->second.tables = std::move(spare_tables_.back());
    spare_tables_.pop_back();
  }
  last_ordinal_ = ordinal;
  last_spans_ = &it->second;
  return it->second;
}

SpanId RunRecorder::processor_span(RunSpans& c, Name processor, double time) {
  for (const auto& [name, span] : c.tables.processors) {
    if (name == processor) return span;
  }
  const SpanId span = tracer_.begin(processor.str(), "processor", time, c.run_span);
  c.tables.processors.emplace_back(processor, span);
  return span;
}

void RunRecorder::build(const Record& record, const AttemptEnd* end, std::string text) {
  RunSpans& c = run_spans(record.run);
  switch (record.kind()) {
    case RunEvent::Kind::kRunStarted: {
      c.tables.clear();
      c.run_span = tracer_.begin(record.name.str(), "run", record.time);
      tracer_.annotate(c.run_span, "run_id", std::move(text));
      break;
    }

    case RunEvent::Kind::kRunFinished: {
      tracer_.end(c.run_span, record.time);
      // Stragglers whose completions were never dispatched stay open; close
      // THIS run's leftovers so exports always hold a consistent tree — other
      // runs still in flight keep their open spans untouched.
      const auto close_leftover = [&](SpanId id) {
        const Span* span = tracer_.find(id);
        if (span == nullptr || !span->open()) return;
        tracer_.annotate(id, "unfinished", "true");
        tracer_.end(id, record.time);
      };
      Tables& t = c.tables;
      for (const Slot& slot : t.slots) close_leftover(slot.attempt);
      for (const LaterAttempt& entry : t.later) close_leftover(entry.span);
      for (const auto& [key, id] : t.far_attempts) close_leftover(id);
      for (const Slot& slot : t.slots) close_leftover(slot.invocation);
      for (const auto& [key, id] : t.far_invocations) close_leftover(id);
      for (const auto& [name, id] : t.processors) close_leftover(id);
      t.clear();
      spare_tables_.push_back(std::move(t));
      last_spans_ = nullptr;  // the node dies with the erase
      spans_.erase(record.run);
      break;
    }

    case RunEvent::Kind::kInvocationStarted: {
      const SpanId parent = processor_span(c, record.name, record.time);
      const SpanId span =
          tracer_.begin(numbered(record.name.view(), " #", record.invocation), "invocation",
                        record.time, parent);
      tracer_.annotate(span, "tuples", numbered({}, {}, record.tuples));
      c.tables.invocation(record.invocation) = span;
      break;
    }

    case RunEvent::Kind::kAttemptStarted: {
      const SpanId invocation = c.tables.find_invocation(record.invocation);
      const SpanId span =
          tracer_.begin(numbered("attempt", " ", record.attempt), "attempt", record.time,
                        invocation != 0 ? invocation : c.run_span);
      c.tables.attempt(record.invocation, record.attempt) = span;
      break;
    }

    case RunEvent::Kind::kAttemptEnded: {
      const SpanId span = c.tables.take_attempt(record.invocation, record.attempt);
      if (span == 0) break;
      tracer_.end(span, record.time);
      tracer_.annotate(span, "status", end->status.str());
      if (!end->computing_element.empty()) {
        tracer_.annotate(span, "ce", end->computing_element.str());
      }
      if ((record.flags & Record::kSuperseded) != 0) {
        tracer_.annotate(span, "superseded", "true");
      }
      if (!text.empty()) tracer_.annotate(span, "error", std::move(text));
      // Queue-wait, stage-in, and running phases from the backend's attempt
      // timings. Payload start follows input staging, so the staging time
      // (when the backend reports one) is carved off the tail of the
      // submit->start window: queued | stage-in | running.
      if (end->start_time >= end->submit_time && end->submit_time >= 0.0) {
        const double stage =
            std::clamp(end->stage_in_seconds, 0.0, end->start_time - end->submit_time);
        const double stage_begin = end->start_time - stage;
        if (stage_begin > end->submit_time || stage == 0.0) {
          tracer_.record("queued", "phase", end->submit_time, stage_begin, span);
        }
        if (stage > 0.0) {
          tracer_.record("stage-in", "phase", stage_begin, end->start_time, span);
        }
        if (end->end_time >= end->start_time) {
          tracer_.record("running", "phase", end->start_time, end->end_time, span);
        }
      }
      break;
    }

    case RunEvent::Kind::kInvocationCompleted: {
      if (const SpanId span = c.tables.take_invocation(record.invocation)) {
        tracer_.end(span, record.time);
      }
      break;
    }

    case RunEvent::Kind::kInvocationFailed: {
      if (const SpanId span = c.tables.take_invocation(record.invocation)) {
        tracer_.annotate(span, "failed", "true");
        tracer_.end(span, record.time);
      }
      break;
    }

    case RunEvent::Kind::kProcessorFinished: {
      for (const auto& [name, span] : c.tables.processors) {
        if (name == record.name) tracer_.end(span, record.time);
      }
      break;
    }

    case RunEvent::Kind::kInvocationSkipped: {
      // Zero-length span under the processor, so skips show up in the tree.
      const SpanId parent = processor_span(c, record.name, record.time);
      const SpanId span = tracer_.record(
          numbered(record.name.view(), " #", record.invocation, " (skipped)"), "invocation",
          record.time, record.time, parent);
      if (!text.empty()) tracer_.annotate(span, "cause", std::move(text));
      tracer_.annotate(span, "skipped", "true");
      break;
    }

    case RunEvent::Kind::kReDerived: {
      // Zero-length span under the producing processor, so re-derivations
      // show up in the tree next to the invocations they replay.
      const SpanId parent = processor_span(c, record.name, record.time);
      const SpanId span = tracer_.record(record.name.str() + " (re-derived)", "invocation",
                                         record.time, record.time, parent);
      if (!text.empty()) tracer_.annotate(span, "file", std::move(text));
      break;
    }

    case RunEvent::Kind::kCacheHit: {
      // Zero-length span under the processor, so hits show up in the tree
      // without a backend attempt beneath them.
      const SpanId parent = processor_span(c, record.name, record.time);
      const SpanId span = tracer_.record(
          numbered(record.name.view(), " #", record.invocation, " (cached)"), "invocation",
          record.time, record.time, parent);
      tracer_.annotate(span, "cached", "true");
      break;
    }

    default:  // the counter-only kinds log no record
      break;
  }
}

}  // namespace moteur::obs
