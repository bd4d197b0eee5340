// The observability subsystem: span tracer invariants, histogram bucket
// edges, exporter golden round-trips, and the RunRecorder's span tree under
// injected transient failures and stuck-job timeouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "enactor/enactor.hpp"
#include "enactor/policy.hpp"
#include "enactor/sim_backend.hpp"
#include "grid/grid.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "workflow/patterns.hpp"

namespace moteur::obs {
namespace {

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, SpansNestAndClose) {
  Tracer tracer;
  const SpanId run = tracer.begin("run", "run", 0.0);
  const SpanId child = tracer.begin("step", "phase", 1.0, run);
  EXPECT_EQ(tracer.open_count(), 2u);
  ASSERT_NE(tracer.find(child), nullptr);
  EXPECT_TRUE(tracer.find(child)->open());
  EXPECT_EQ(tracer.find(child)->parent, run);

  tracer.end(child, 2.0);
  tracer.end(run, 3.0);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_DOUBLE_EQ(tracer.find(child)->duration(), 1.0);
  EXPECT_DOUBLE_EQ(tracer.find(run)->duration(), 3.0);

  tracer.end(child, 9.0);  // double close is ignored
  EXPECT_DOUBLE_EQ(tracer.find(child)->end, 2.0);
  tracer.end(12345, 9.0);  // unknown id is ignored
  EXPECT_EQ(tracer.find(0), nullptr);  // 0 is "no span"
  EXPECT_EQ(tracer.find(child + 1), nullptr);
}

TEST(Tracer, RecordAndAnnotate) {
  Tracer tracer;
  const SpanId parent = tracer.begin("run", "run", 0.0);
  const SpanId phase = tracer.record("queued", "phase", 1.0, 4.0, parent);
  tracer.annotate(phase, "ce", "ce3");
  tracer.annotate(99999, "ignored", "x");  // unknown id is a no-op

  const Span* span = tracer.find(phase);
  ASSERT_NE(span, nullptr);
  EXPECT_FALSE(span->open());
  EXPECT_DOUBLE_EQ(span->duration(), 3.0);
  const Tracer::Args args = tracer.args(*span);
  ASSERT_EQ(args.size(), 1u);
  EXPECT_EQ(args.begin()->key, "ce");
  EXPECT_EQ(args.begin()->value, "ce3");
  EXPECT_EQ(tracer.open_count(), 1u);
}

TEST(Tracer, AParentThatIsNotYetASpanMakesARoot) {
  // A span's parent always precedes it: a parent id not yet given out,
  // its own included, is stored as 0.
  Tracer tracer;
  const SpanId run = tracer.begin("run", "run", 0.0);
  const SpanId orphan = tracer.begin("orphan", "phase", 1.0, run + 5);
  const SpanId self = tracer.record("self", "phase", 1.0, 2.0, orphan + 1);
  const SpanId child = tracer.begin("child", "phase", 1.0, orphan);
  EXPECT_EQ(tracer.find(orphan)->parent, 0u);
  EXPECT_EQ(tracer.find(self)->parent, 0u);
  EXPECT_EQ(tracer.find(child)->parent, orphan);
  // Roots of no run share the default pid, which follows the run's.
  const std::string json = chrome_trace_json(tracer);
  EXPECT_NE(json.find("\"name\":\"orphan\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":1000000.000,"
                      "\"dur\":0.000,\"pid\":2"),
            std::string::npos)
      << json;
}

TEST(Tracer, CloseOpenSpansTagsStragglers) {
  Tracer tracer;
  const SpanId finished = tracer.begin("a", "attempt", 0.0);
  tracer.end(finished, 1.0);
  const SpanId straggler = tracer.begin("b", "attempt", 0.5);
  tracer.close_open_spans(7.0);

  EXPECT_EQ(tracer.open_count(), 0u);
  const Span* span = tracer.find(straggler);
  ASSERT_NE(span, nullptr);
  EXPECT_DOUBLE_EQ(span->end, 7.0);
  const Tracer::Args args = tracer.args(*span);
  ASSERT_EQ(args.size(), 1u);
  EXPECT_EQ(args.begin()->key, "unfinished");
  EXPECT_EQ(args.begin()->value, "true");
  // The span that closed normally is untouched.
  EXPECT_TRUE(tracer.args(*tracer.find(finished)).empty());
}

// ---------------------------------------------------------------------------
// Histogram bucket edges
// ---------------------------------------------------------------------------

TEST(Histogram, BucketEdgesFollowPrometheusSemantics) {
  Histogram h({1.0, 2.0, 5.0});
  // v lands in the first bucket with v <= bound; bounds are inclusive.
  h.observe(0.5);   // le=1
  h.observe(1.0);   // le=1 (exactly on the edge)
  h.observe(1.001); // le=2
  h.observe(2.0);   // le=2
  h.observe(5.0);   // le=5
  h.observe(7.0);   // +Inf overflow

  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 2u);
  EXPECT_EQ(h.bucket_counts()[1], 2u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 7.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 7.0);
  EXPECT_GT(h.percentile(50.0), 0.0);
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), Error);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, SeriesAreStableAndLabelled) {
  MetricsRegistry registry;
  Counter& a = registry.counter("jobs_total", "Jobs", {{"ce", "ce0"}});
  Counter& b = registry.counter("jobs_total", "Jobs", {{"ce", "ce1"}});
  a.inc();
  a.inc(2.0);
  b.inc();
  // Re-registration returns the same instrument.
  EXPECT_EQ(&registry.counter("jobs_total", "Jobs", {{"ce", "ce0"}}), &a);
  EXPECT_DOUBLE_EQ(a.value(), 3.0);
  EXPECT_DOUBLE_EQ(b.value(), 1.0);
  const MetricsRegistry::Family* family = registry.find("jobs_total");
  ASSERT_NE(family, nullptr);
  EXPECT_EQ(family->series.size(), 2u);
}

TEST(MetricsRegistry, TypeMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x_total", "X");
  EXPECT_THROW(registry.gauge("x_total", "X"), Error);
  EXPECT_THROW(registry.histogram("x_total", "X", {1.0}), Error);
}

TEST(MetricsRegistry, GaugeTracksHighWaterMark) {
  MetricsRegistry registry;
  Gauge& gauge = registry.gauge("in_flight", "In flight");
  gauge.set(3.0);
  gauge.add(4.0);
  gauge.set(1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.0);
  EXPECT_DOUBLE_EQ(gauge.max_seen(), 7.0);
}

// ---------------------------------------------------------------------------
// Exporter goldens
// ---------------------------------------------------------------------------

TEST(Export, ChromeTraceGolden) {
  Tracer tracer;
  const SpanId run = tracer.begin("run", "run", 0.0);
  const SpanId step = tracer.begin("step \"q\"", "phase", 1.0, run);
  tracer.annotate(step, "ce", "ce0");
  tracer.end(step, 2.0);
  tracer.end(run, 3.0);

  const std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"run\",\"cat\":\"run\",\"ph\":\"X\",\"ts\":0.000,\"dur\":3000000.000,"
      "\"pid\":1,\"tid\":1,\"args\":{\"id\":\"1\",\"parent\":\"0\"}},\n"
      "{\"name\":\"step \\\"q\\\"\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":1000000.000,"
      "\"dur\":1000000.000,\"pid\":1,\"tid\":1,\"args\":{\"id\":\"2\",\"parent\":\"1\","
      "\"ce\":\"ce0\"}}"
      "],\"displayTimeUnit\":\"ms\"}\n";
  EXPECT_EQ(chrome_trace_json(tracer), expected);
}

TEST(Export, ChromeTraceConcurrentRootsGetDistinctLanes) {
  Tracer tracer;
  const SpanId a = tracer.begin("a", "invocation", 0.0);
  const SpanId b = tracer.begin("b", "invocation", 1.0);  // overlaps a
  tracer.end(a, 5.0);
  tracer.end(b, 6.0);
  const std::string json = chrome_trace_json(tracer);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
}

TEST(Export, PrometheusTextGolden) {
  MetricsRegistry registry;
  registry.counter("demo_total", "Demo counter", {{"kind", "a\"b\\c"}}).inc(3.0);
  registry.gauge("demo_gauge", "Demo gauge").set(2.5);
  Histogram& h = registry.histogram("demo_seconds", "Demo histogram", {1.0, 2.0});
  h.observe(0.5);
  h.observe(2.0);
  h.observe(9.0);

  const std::string expected =
      "# HELP demo_gauge Demo gauge\n"
      "# TYPE demo_gauge gauge\n"
      "demo_gauge 2.5\n"
      "# HELP demo_seconds Demo histogram\n"
      "# TYPE demo_seconds histogram\n"
      "demo_seconds_bucket{le=\"1\"} 1\n"
      "demo_seconds_bucket{le=\"2\"} 2\n"
      "demo_seconds_bucket{le=\"+Inf\"} 3\n"
      "demo_seconds_sum 11.5\n"
      "demo_seconds_count 3\n"
      "# HELP demo_total Demo counter\n"
      "# TYPE demo_total counter\n"
      "demo_total{kind=\"a\\\"b\\\\c\"} 3\n";
  EXPECT_EQ(prometheus_text(registry), expected);
}

TEST(Export, SummaryMentionsEverySeries) {
  Tracer tracer;
  tracer.record("run", "run", 0.0, 10.0);
  MetricsRegistry registry;
  registry.counter("a_total", "A").inc();
  registry.gauge("b", "B").set(4.0);
  registry.histogram("c_seconds", "C", {1.0}).observe(0.5);
  const std::string summary = obs_summary(tracer, registry);
  for (const char* needle : {"run", "a_total = 1", "b = 4 (max 4)", "c_seconds: count=1"}) {
    EXPECT_NE(summary.find(needle), std::string::npos) << "missing: " << needle;
  }
}

// ---------------------------------------------------------------------------
// RunRecorder against a real enactment (fault injection as in test_retry)
// ---------------------------------------------------------------------------

data::InputDataSet items(std::size_t count) {
  data::InputDataSet ds;
  ds.declare_input("src");
  for (std::size_t j = 0; j < count; ++j) ds.add_item("src", "item" + std::to_string(j));
  return ds;
}

/// Simulated grid with enactor-visible faults (grid-internal resubmission
/// off), mirroring test_retry's FaultyRig, plus a RunRecorder wired in.
struct ObservedRig {
  sim::Simulator simulator;
  grid::Grid grid;
  enactor::SimGridBackend backend;
  services::ServiceRegistry registry;
  RunRecorder recorder;

  static grid::GridConfig config(double failure_probability, double stuck_probability,
                                 std::uint64_t seed) {
    grid::GridConfig cfg = grid::GridConfig::constant(30.0, 4096, seed);
    cfg.failure_probability = failure_probability;
    cfg.max_attempts = 1;
    cfg.stuck_job_probability = stuck_probability;
    cfg.stuck_job_factor = 50.0;
    return cfg;
  }

  explicit ObservedRig(double failure_probability, double stuck_probability = 0.0,
                       std::uint64_t seed = 42)
      : grid(simulator, config(failure_probability, stuck_probability, seed)),
        backend(grid) {
    for (const char* name : {"P0", "P1"}) {
      registry.add(services::make_simulated_service(name, {"in"}, {"out"},
                                                    services::JobProfile{60.0, 0.0, 0.0}));
    }
  }

  enactor::EnactmentResult run(std::size_t tuples, enactor::EnactmentPolicy policy) {
    enactor::Enactor moteur(backend, registry, policy);
    moteur.set_recorder(&recorder);
    backend.set_metrics(&recorder.metrics());
    return moteur.run({.workflow = workflow::make_chain(2), .inputs = items(tuples)});
  }

  double counter(const std::string& name) const {
    const MetricsRegistry::Family* family = recorder.metrics().find(name);
    if (family == nullptr) return 0.0;
    double total = 0.0;
    for (const auto& [labels, instrument] : family->series) {
      total += instrument.counter->value();
    }
    return total;
  }
};

TEST(RunRecorder, SpanTreeMatchesTheRunHierarchy) {
  ObservedRig rig(/*failure_probability=*/0.0);
  const auto result = rig.run(6, enactor::EnactmentPolicy::sp_dp());
  ASSERT_EQ(result.failures(), 0u);

  const Tracer& tracer = rig.recorder.tracer();
  EXPECT_EQ(tracer.open_count(), 0u);

  std::map<std::string, std::vector<const Span*>> by_category;
  for (const Span& span : tracer.spans()) {
    by_category[std::string(span.category)].push_back(&span);
  }

  ASSERT_EQ(by_category["run"].size(), 1u);
  const SpanId run_id = by_category["run"][0]->id;
  EXPECT_EQ(by_category["processor"].size(), 2u);  // P0, P1
  EXPECT_EQ(by_category["invocation"].size(), result.invocations());
  EXPECT_EQ(by_category["attempt"].size(), result.submissions());

  std::set<SpanId> processor_ids, invocation_ids;
  for (const Span* span : by_category["processor"]) {
    EXPECT_EQ(span->parent, run_id);
    processor_ids.insert(span->id);
  }
  for (const Span* span : by_category["invocation"]) {
    EXPECT_TRUE(processor_ids.count(span->parent)) << "invocation outside a processor";
    invocation_ids.insert(span->id);
  }
  for (const Span* span : by_category["attempt"]) {
    EXPECT_TRUE(invocation_ids.count(span->parent)) << "attempt outside an invocation";
    EXPECT_LE(span->start, span->end);
  }
  // Derived phases hang off attempts and stay inside them.
  for (const Span* span : by_category["phase"]) {
    const Span* attempt = tracer.find(span->parent);
    ASSERT_NE(attempt, nullptr);
    EXPECT_EQ(attempt->category, "attempt");
    EXPECT_GE(span->start, attempt->start);
    EXPECT_LE(span->end, attempt->end);
  }
}

TEST(RunRecorder, RetriesBecomeSiblingAttemptSpans) {
  ObservedRig rig(/*failure_probability=*/0.3);
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.retry = enactor::RetryPolicy::resubmit(6);
  const auto result = rig.run(12, policy);
  ASSERT_EQ(result.failures(), 0u);
  ASSERT_GT(result.retries(), 0u);

  // Some invocation must own more than one attempt span; attempts under one
  // invocation are numbered 1..n.
  std::map<SpanId, std::size_t> attempts_per_invocation;
  for (const Span& span : rig.recorder.tracer().spans()) {
    if (span.category == "attempt") ++attempts_per_invocation[span.parent];
  }
  std::size_t extra = 0;
  for (const auto& [invocation, attempts] : attempts_per_invocation) {
    extra += attempts - 1;
  }
  EXPECT_EQ(extra, result.retries());

  EXPECT_DOUBLE_EQ(rig.counter("moteur_retries_total"), result.retries());
  EXPECT_DOUBLE_EQ(rig.counter("moteur_submissions_total"), result.submissions());
  EXPECT_DOUBLE_EQ(rig.counter("moteur_invocations_total"), result.invocations());
  EXPECT_DOUBLE_EQ(rig.counter("moteur_attempt_failures_total"),
                   result.submissions() - result.invocations());
}

TEST(RunRecorder, WatchdogClonesAndStragglersAreVisible) {
  ObservedRig rig(/*failure_probability=*/0.0, /*stuck_probability=*/0.2, /*seed=*/11);
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.retry.max_attempts = 4;
  policy.retry.timeout_multiplier = 3.0;
  policy.retry.timeout_min_samples = 3;
  const auto result = rig.run(20, policy);
  ASSERT_GT(result.timeouts(), 0u);

  EXPECT_DOUBLE_EQ(rig.counter("moteur_timeouts_total"), result.timeouts());
  // Whatever happened to the losing clones, no span is left open.
  EXPECT_EQ(rig.recorder.tracer().open_count(), 0u);
  // Superseded attempts (the stuck originals a clone outran) are annotated.
  std::size_t superseded = 0, unfinished = 0;
  for (const Span& span : rig.recorder.tracer().spans()) {
    if (span.category != "attempt") continue;
    for (const Annotation& arg : rig.recorder.tracer().args(span)) {
      if (arg.key == "superseded" && arg.value == "true") ++superseded;
      if (arg.key == "unfinished" && arg.value == "true") ++unfinished;
    }
  }
  EXPECT_GT(superseded + unfinished, 0u);
}

TEST(RunRecorder, MetricsSnapshotCarriesPerCeHistograms) {
  ObservedRig rig(/*failure_probability=*/0.0);
  rig.run(6, enactor::EnactmentPolicy::sp_dp());

  const MetricsRegistry::Family* latency =
      rig.recorder.metrics().find("moteur_ce_latency_seconds");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->type, MetricType::kHistogram);
  ASSERT_FALSE(latency->series.empty());
  std::size_t observations = 0;
  for (const auto& [labels, instrument] : latency->series) {
    ASSERT_EQ(labels.count("ce"), 1u);
    observations += instrument.histogram->count();
  }
  EXPECT_EQ(observations, 12u);  // 2 processors x 6 tuples, no failures

  // The text exposition round-trips the same series.
  const std::string text = prometheus_text(rig.recorder.metrics());
  EXPECT_NE(text.find("moteur_ce_latency_seconds_bucket{ce="), std::string::npos);
  EXPECT_NE(text.find("moteur_makespan_seconds"), std::string::npos);
  EXPECT_NE(text.find("# TYPE moteur_ce_latency_seconds histogram"), std::string::npos);
}

TEST(RunRecorder, EventStreamAndListenerAgree) {
  // A plain subscriber sees the same stream the recorder does: its counts
  // must line up with the recorder's metrics from the same run.
  ObservedRig rig(/*failure_probability=*/0.3);
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.retry = enactor::RetryPolicy::resubmit(6);

  std::map<RunEvent::Kind, std::size_t> counts;
  enactor::Enactor moteur(rig.backend, rig.registry, policy);
  moteur.set_recorder(&rig.recorder);
  moteur.add_event_subscriber([&counts](const RunEvent& e) { ++counts[e.kind]; });
  const auto result =
      moteur.run({.workflow = workflow::make_chain(2), .inputs = items(12)});
  ASSERT_EQ(result.failures(), 0u);

  EXPECT_DOUBLE_EQ(rig.counter("moteur_submissions_total"),
                   counts[RunEvent::Kind::kAttemptStarted]);
  EXPECT_DOUBLE_EQ(rig.counter("moteur_retries_total"),
                   counts[RunEvent::Kind::kRetryScheduled]);
  EXPECT_DOUBLE_EQ(rig.counter("moteur_invocations_total"),
                   counts[RunEvent::Kind::kInvocationCompleted]);
}

/// The event stream of one two-stage chain run on a fresh simulated grid,
/// stamped with `run_id`; transient failures are retried.
std::vector<RunEvent> capture_run(const std::string& run_id, double failure_probability,
                                  std::uint64_t seed) {
  ObservedRig rig(failure_probability, 0.0, seed);
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.retry = enactor::RetryPolicy::resubmit(6);
  enactor::Enactor moteur(rig.backend, rig.registry, policy);
  std::vector<RunEvent> events;
  moteur.add_event_subscriber([&events](const RunEvent& e) { events.push_back(e); });
  moteur.run({.name = run_id, .workflow = workflow::make_chain(2), .inputs = items(8)});
  return events;
}

/// Every span under the `nth` run root stamped `run_id`, as sorted rows of
/// the names on its path from the root, its category, times and
/// annotations. Span ids are left out: they depend on arrival order.
std::vector<std::string> run_subtree(const Tracer& tracer, const std::string& run_id,
                                     std::size_t nth = 0) {
  SpanId root = 0;
  for (const Span& span : tracer.spans()) {
    const std::string* id = tracer.args(span).find("run_id");
    if (span.category == "run" && span.parent == 0 && id != nullptr && *id == run_id &&
        nth-- == 0) {
      root = span.id;
      break;
    }
  }
  std::vector<std::string> rows;
  if (root == 0) return rows;
  for (const Span& span : tracer.spans()) {
    std::string path = span.name;
    const Span* up = &span;
    while (up->id != root && up->parent != 0) {
      up = tracer.find(up->parent);
      path = up->name + "/" + path;
    }
    if (up->id != root) continue;
    std::string row = path + " [" + std::string(span.category) + "] " +
                      std::to_string(span.start) + ".." + std::to_string(span.end);
    for (const Annotation& arg : tracer.args(span)) {
      row += " " + std::string(arg.key) + "=" + arg.value;
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(RunRecorder, InterleavedRunsMatchRunsRecordedAlone) {
  const std::vector<std::vector<RunEvent>> streams = {
      capture_run("a", 0.0, 1), capture_run("b", 0.3, 2), capture_run("c", 0.0, 3)};
  const auto retried =
      std::find_if(streams[1].begin(), streams[1].end(), [](const RunEvent& e) {
        return e.kind == RunEvent::Kind::kAttemptStarted && e.attempt >= 2;
      });
  ASSERT_NE(retried, streams[1].end()) << "run b never retried";

  // One recorder takes the three runs one event at a time, round robin; the
  // other takes them back to back.
  RunRecorder interleaved;
  for (std::size_t i = 0;; ++i) {
    bool fed = false;
    for (const auto& stream : streams) {
      if (i < stream.size()) {
        interleaved.on_event(stream[i]);
        fed = true;
      }
    }
    if (!fed) break;
  }
  RunRecorder alone;
  for (const auto& stream : streams) {
    for (const RunEvent& event : stream) alone.on_event(event);
  }
  EXPECT_EQ(interleaved.tracer().open_count(), 0u);
  EXPECT_EQ(interleaved.tracer().spans().size(), alone.tracer().spans().size());
  for (const char* run : {"a", "b", "c"}) {
    const std::vector<std::string> rows = run_subtree(interleaved.tracer(), run);
    EXPECT_FALSE(rows.empty()) << run;
    EXPECT_EQ(rows, run_subtree(alone.tracer(), run)) << "run " << run;
  }

  // Replaying run b under the finished id "a" reuses a finished run's
  // tables: the new subtree must match run b's stream recorded fresh.
  std::vector<RunEvent> replay = streams[1];
  for (RunEvent& event : replay) event.run_id = "a";
  RunRecorder fresh;
  for (const RunEvent& event : replay) {
    interleaved.on_event(event);
    fresh.on_event(event);
  }
  const std::vector<std::string> replayed = run_subtree(interleaved.tracer(), "a", 1);
  EXPECT_FALSE(replayed.empty());
  EXPECT_EQ(replayed, run_subtree(fresh.tracer(), "a"));
  EXPECT_EQ(interleaved.tracer().open_count(), 0u);
}

// ---------------------------------------------------------------------------
// Histogram reservoir sampling (bounded raw-sample retention)
// ---------------------------------------------------------------------------

TEST(Histogram, SamplesAreExactBelowTheCap) {
  Histogram h({10.0}, /*sample_cap=*/4);
  h.observe(3.0);
  h.observe(1.0);
  h.observe(2.0);
  h.observe(4.0);
  EXPECT_TRUE(h.samples_exact());
  EXPECT_EQ(h.samples().size(), 4u);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 4.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
}

TEST(Histogram, ReservoirBoundsRetentionPastTheCap) {
  const std::size_t cap = 16;
  Histogram h({1000.0}, cap);
  for (int i = 1; i <= 5000; ++i) h.observe(static_cast<double>(i));
  // Aggregates stay exact; only the raw-sample set becomes a reservoir.
  EXPECT_EQ(h.count(), 5000u);
  EXPECT_DOUBLE_EQ(h.sum(), 5000.0 * 5001.0 / 2.0);
  EXPECT_DOUBLE_EQ(h.max_seen(), 5000.0);
  EXPECT_FALSE(h.samples_exact());
  EXPECT_EQ(h.samples().size(), cap);
  for (const double v : h.samples()) {
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 5000.0);
  }
  // percentile() now estimates from the reservoir but stays within range.
  const double p50 = h.percentile(50.0);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 5000.0);
}

TEST(Histogram, ReservoirIsDeterministicAcrossInstances) {
  Histogram a({100.0}, 8);
  Histogram b({100.0}, 8);
  for (int i = 0; i < 1000; ++i) {
    const double v = static_cast<double>((i * 37) % 97);
    a.observe(v);
    b.observe(v);
  }
  // Same observation sequence, same fixed seed -> identical retained set.
  EXPECT_EQ(a.samples(), b.samples());
}

TEST(Histogram, RejectsZeroSampleCap) {
  EXPECT_THROW(Histogram({1.0}, 0), Error);
}

// ---------------------------------------------------------------------------
// MetricsSnapshot: capture and windowed deltas
// ---------------------------------------------------------------------------

TEST(Snapshot, CaptureCopiesEveryFamily) {
  MetricsRegistry registry;
  registry.counter("jobs_total", "Jobs", {{"ce", "ce0"}}).inc(3.0);
  Gauge& gauge = registry.gauge("active", "Active");
  gauge.set(5.0);
  gauge.set(2.0);
  Histogram& h = registry.histogram("wait_seconds", "Wait", {1.0, 2.0});
  h.observe(0.5);
  h.observe(9.0);

  const MetricsSnapshot snap = MetricsSnapshot::capture(registry, 100.0);
  EXPECT_DOUBLE_EQ(snap.at, 100.0);
  EXPECT_DOUBLE_EQ(snap.interval, 0.0);
  ASSERT_EQ(snap.families.size(), 3u);

  const MetricsSnapshot::Series* jobs = snap.find("jobs_total", {{"ce", "ce0"}});
  ASSERT_NE(jobs, nullptr);
  EXPECT_DOUBLE_EQ(jobs->value, 3.0);

  const MetricsSnapshot::Series* active = snap.find("active", {});
  ASSERT_NE(active, nullptr);
  EXPECT_DOUBLE_EQ(active->value, 2.0);
  EXPECT_DOUBLE_EQ(active->max_seen, 5.0);

  const MetricsSnapshot::Series* wait = snap.find("wait_seconds", {});
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, 2u);
  EXPECT_DOUBLE_EQ(wait->sum, 9.5);
  ASSERT_EQ(wait->buckets.size(), 3u);  // two bounds + overflow
  EXPECT_EQ(wait->buckets[0], 1u);
  EXPECT_EQ(wait->buckets[2], 1u);
  EXPECT_EQ(snap.find("wait_seconds", {{"no", "such"}}), nullptr);
  EXPECT_EQ(snap.find_family("nope"), nullptr);
}

TEST(Snapshot, DeltaWindowsCountersAndHistogramsButNotGauges) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("done_total", "Done");
  Gauge& gauge = registry.gauge("active", "Active");
  Histogram& h = registry.histogram("lat_seconds", "Latency", {1.0});
  counter.inc(10.0);
  gauge.set(7.0);
  h.observe(0.5);
  const MetricsSnapshot before = MetricsSnapshot::capture(registry, 100.0);

  counter.inc(5.0);
  gauge.set(3.0);
  h.observe(2.0);
  h.observe(0.25);
  const MetricsSnapshot after = MetricsSnapshot::capture(registry, 110.0);

  const MetricsSnapshot delta = after.delta_since(before);
  EXPECT_DOUBLE_EQ(delta.interval, 10.0);
  const MetricsSnapshot::Series* done = delta.find("done_total", {});
  ASSERT_NE(done, nullptr);
  EXPECT_DOUBLE_EQ(done->value, 5.0);  // windowed increase, not cumulative
  EXPECT_DOUBLE_EQ(delta.rate(*done), 0.5);

  const MetricsSnapshot::Series* active = delta.find("active", {});
  ASSERT_NE(active, nullptr);
  EXPECT_DOUBLE_EQ(active->value, 3.0);  // gauges stay instantaneous

  const MetricsSnapshot::Series* lat = delta.find("lat_seconds", {});
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 2u);
  EXPECT_DOUBLE_EQ(lat->sum, 2.25);
  EXPECT_EQ(lat->buckets[0], 1u);  // only the 0.25 landed in le=1 this window
  EXPECT_EQ(lat->buckets[1], 1u);
}

TEST(Snapshot, DeltaKeepsSeriesAbsentFromTheEarlierCapture) {
  MetricsRegistry registry;
  registry.counter("old_total", "Old").inc(2.0);
  const MetricsSnapshot before = MetricsSnapshot::capture(registry, 0.0);
  registry.counter("new_total", "New").inc(4.0);
  const MetricsSnapshot after = MetricsSnapshot::capture(registry, 1.0);

  const MetricsSnapshot delta = after.delta_since(before);
  const MetricsSnapshot::Series* fresh = delta.find("new_total", {});
  ASSERT_NE(fresh, nullptr);
  EXPECT_DOUBLE_EQ(fresh->value, 4.0);  // full value: it is all new
  const MetricsSnapshot::Series* old = delta.find("old_total", {});
  ASSERT_NE(old, nullptr);
  EXPECT_DOUBLE_EQ(old->value, 0.0);
}

TEST(Snapshot, BucketPercentileInterpolatesWithinTheBucket) {
  const std::vector<double> bounds = {1.0, 2.0, 5.0};
  // Per-bucket counts: 2 in (0,1], 2 in (1,2], 1 in (2,5], 1 overflow.
  const std::vector<std::uint64_t> buckets = {2, 2, 1, 1};
  // rank 3 of 6 falls halfway through the (1,2] bucket.
  EXPECT_DOUBLE_EQ(bucket_percentile(bounds, buckets, 50.0), 1.5);
  // Ranks inside the overflow bucket clamp to the highest finite bound.
  EXPECT_DOUBLE_EQ(bucket_percentile(bounds, buckets, 100.0), 5.0);
  // Empty histogram -> 0.
  EXPECT_DOUBLE_EQ(bucket_percentile(bounds, {0, 0, 0, 0}, 50.0), 0.0);
}

// ---------------------------------------------------------------------------
// Critical-path attribution on a hand-built span tree
// ---------------------------------------------------------------------------

namespace {

/// Two chained invocations with full attempt/phase annotations:
///   A#1 [0,50]: queued [5,15], stage-in [15,20], running [20,45]
///   B#1 [40,95]: queued [45,60], stage-in [60,62], running [62,95]
/// Run span [0,100]; the chain is A then B clipped to [50,95].
Tracer make_two_step_trace() {
  Tracer tracer;
  const SpanId run = tracer.record("wf", "run", 0.0, 100.0);
  tracer.annotate(run, "run_id", "r1");
  const SpanId pa = tracer.record("A", "processor", 0.0, 60.0, run);
  const SpanId ia = tracer.record("A #1", "invocation", 0.0, 50.0, pa);
  const SpanId aa = tracer.record("attempt 1", "attempt", 0.0, 50.0, ia);
  tracer.record("queued", "phase", 5.0, 15.0, aa);
  tracer.record("stage-in", "phase", 15.0, 20.0, aa);
  tracer.record("running", "phase", 20.0, 45.0, aa);
  const SpanId pb = tracer.record("B", "processor", 40.0, 95.0, run);
  const SpanId ib = tracer.record("B #1", "invocation", 40.0, 95.0, pb);
  const SpanId ab = tracer.record("attempt 1", "attempt", 40.0, 95.0, ib);
  tracer.record("queued", "phase", 45.0, 60.0, ab);
  tracer.record("stage-in", "phase", 60.0, 62.0, ab);
  tracer.record("running", "phase", 62.0, 95.0, ab);
  return tracer;
}

}  // namespace

TEST(CriticalPath, PhasesPartitionTheMakespanExactly) {
  const Tracer tracer = make_two_step_trace();
  const CriticalPathReport report = critical_path(tracer, "r1", /*admission_wait=*/2.0);
  ASSERT_TRUE(report.found);
  EXPECT_EQ(report.run_id, "r1");
  EXPECT_EQ(report.run, "wf");
  EXPECT_DOUBLE_EQ(report.makespan, 102.0);
  EXPECT_DOUBLE_EQ(report.admission_wait, 2.0);
  ASSERT_EQ(report.steps.size(), 2u);
  EXPECT_EQ(report.steps[0].name, "A #1");
  EXPECT_EQ(report.steps[1].name, "B #1");
  // B's segment is clipped to start where A's ends.
  EXPECT_DOUBLE_EQ(report.steps[1].start, 50.0);
  EXPECT_DOUBLE_EQ(report.steps[1].end, 95.0);
  // Segment A carries its full phases; segment B only what falls after 50.
  EXPECT_DOUBLE_EQ(report.steps[0].ce_queue, 10.0);
  EXPECT_DOUBLE_EQ(report.steps[0].stage_in, 5.0);
  EXPECT_DOUBLE_EQ(report.steps[0].execution, 25.0);
  EXPECT_DOUBLE_EQ(report.steps[1].ce_queue, 10.0);
  EXPECT_DOUBLE_EQ(report.steps[1].stage_in, 2.0);
  EXPECT_DOUBLE_EQ(report.steps[1].execution, 33.0);
  // The five phases partition the makespan exactly.
  EXPECT_DOUBLE_EQ(report.ce_queue, 20.0);
  EXPECT_DOUBLE_EQ(report.stage_in, 7.0);
  EXPECT_DOUBLE_EQ(report.execution, 58.0);
  EXPECT_DOUBLE_EQ(report.orchestration, 102.0 - 2.0 - 20.0 - 7.0 - 58.0);
  EXPECT_DOUBLE_EQ(report.attributed(), report.makespan);
}

TEST(CriticalPath, ResolvesTheRunByIdNameOrSoleRoot) {
  const Tracer tracer = make_two_step_trace();
  // By run span name (single-run traces), and by empty id (sole run root).
  EXPECT_TRUE(critical_path(tracer, "wf").found);
  EXPECT_TRUE(critical_path(tracer, "").found);
  EXPECT_FALSE(critical_path(tracer, "no-such-run").found);
}

TEST(CriticalPath, ReportSerializesAndRecordsGauges) {
  const Tracer tracer = make_two_step_trace();
  const CriticalPathReport report = critical_path(tracer, "r1", 2.0);
  const std::string json = report.to_json();
  for (const char* needle :
       {"\"run_id\":\"r1\"", "\"ce_queue\"", "\"stage_in\"", "\"execution\"",
        "\"orchestration\"", "\"steps\":["}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing: " << needle;
  }
  MetricsRegistry registry;
  record_phases(registry, report);
  const MetricsRegistry::Family* family = registry.find("moteur_critical_path_seconds");
  ASSERT_NE(family, nullptr);
  EXPECT_EQ(family->series.size(), 5u);  // one gauge per phase
  const MetricsSnapshot snap = MetricsSnapshot::capture(registry, 0.0);
  const MetricsSnapshot::Series* exec =
      snap.find("moteur_critical_path_seconds", {{"phase", "execution"}, {"run", "r1"}});
  ASSERT_NE(exec, nullptr);
  EXPECT_DOUBLE_EQ(exec->value, 58.0);
}

// ---------------------------------------------------------------------------
// Chrome-trace lane determinism (insertion order must not matter)
// ---------------------------------------------------------------------------

namespace {

/// name -> (pid, tid) as exported, parsed from the trace JSON.
std::map<std::string, std::pair<int, int>> trace_lanes(const std::string& json) {
  std::map<std::string, std::pair<int, int>> out;
  std::size_t pos = 0;
  const std::string name_key = "{\"name\":\"";
  while ((pos = json.find(name_key, pos)) != std::string::npos) {
    const std::size_t name_begin = pos + name_key.size();
    const std::size_t name_end = json.find('"', name_begin);
    const std::string name = json.substr(name_begin, name_end - name_begin);
    const std::size_t pid_at = json.find("\"pid\":", name_end);
    const std::size_t tid_at = json.find("\"tid\":", pid_at);
    out[name] = {std::stoi(json.substr(pid_at + 6)), std::stoi(json.substr(tid_at + 6))};
    pos = name_end;
  }
  return out;
}

}  // namespace

TEST(Export, ChromeTraceLanesAreInsertionOrderIndependent) {
  // The same span set fed to two tracers in opposite insertion order (as
  // happens when engine shards race) must export identical pid/tid
  // assignments: lanes key on span paths, not on insertion-ordered ids.
  const auto add_run = [](Tracer& tracer, const std::string& run_id,
                          const std::string& inv) {
    const SpanId run = tracer.record("wf-" + inv, "run", 0.0, 10.0);
    tracer.annotate(run, "run_id", run_id);
    const SpanId a = tracer.record(inv + " #1", "invocation", 0.0, 6.0, run);
    // Overlaps #1 without nesting inside it -> must get its own lane.
    tracer.record(inv + " #2", "invocation", 2.0, 8.0, run);
    tracer.record("attempt " + inv, "attempt", 1.0, 5.0, a);
  };
  Tracer forward;
  add_run(forward, "r-a", "alpha");
  add_run(forward, "r-b", "beta");
  Tracer reverse;
  add_run(reverse, "r-b", "beta");
  add_run(reverse, "r-a", "alpha");

  const auto lanes_fwd = trace_lanes(chrome_trace_json(forward));
  const auto lanes_rev = trace_lanes(chrome_trace_json(reverse));
  EXPECT_EQ(lanes_fwd, lanes_rev);
  // Distinct runs stay in distinct pid groups; overlapping invocations of one
  // run get distinct tids.
  EXPECT_NE(lanes_fwd.at("alpha #1").first, lanes_fwd.at("beta #1").first);
  EXPECT_NE(lanes_fwd.at("alpha #1").second, lanes_fwd.at("alpha #2").second);
}

// ---------------------------------------------------------------------------
// Prometheus exporter edge cases
// ---------------------------------------------------------------------------

TEST(Export, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  registry.counter("esc_total", "Esc", {{"v", "a\"b\\c\nd"}}).inc();
  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("esc_total{v=\"a\\\"b\\\\c\\nd\"} 1\n"), std::string::npos)
      << text;
  EXPECT_EQ(text.find('\n' + std::string("d\"")), std::string::npos)
      << "raw newline leaked into a label value:\n" << text;
}

TEST(Export, PrometheusEmptyHistogramFamilyExportsZeroes) {
  MetricsRegistry registry;
  registry.histogram("quiet_seconds", "Never observed", {1.0, 2.0});
  const std::string text = prometheus_text(registry);
  EXPECT_NE(text.find("quiet_seconds_bucket{le=\"1\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("quiet_seconds_bucket{le=\"+Inf\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("quiet_seconds_sum 0\n"), std::string::npos);
  EXPECT_NE(text.find("quiet_seconds_count 0\n"), std::string::npos);
}

TEST(Export, PrometheusInfBucketIsCumulativeTotal) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("t_seconds", "T", {1.0}, {{"ce", "ce0"}});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(9.0);
  const std::string text = prometheus_text(registry);
  // The +Inf bucket is cumulative: it must equal _count exactly.
  EXPECT_NE(text.find("t_seconds_bucket{ce=\"ce0\",le=\"+Inf\"} 3\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("t_seconds_count{ce=\"ce0\"} 3\n"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Flight recorder ring semantics
// ---------------------------------------------------------------------------

namespace {

RunEvent make_event(RunEvent::Kind kind, double time, std::uint64_t invocation = 0) {
  RunEvent event;
  event.kind = kind;
  event.time = time;
  event.run_id = "r1";
  event.invocation = invocation;
  return event;
}

}  // namespace

TEST(FlightRecorder, KeepsTheLastCapacityEventsInOrder) {
  FlightRecorder ring(3);
  for (int i = 1; i <= 5; ++i) {
    ring.record(make_event(RunEvent::Kind::kInvocationStarted, i, i));
  }
  EXPECT_EQ(ring.events_seen(), 5u);
  const std::vector<RunEvent> window = ring.window();
  ASSERT_EQ(window.size(), 3u);
  EXPECT_EQ(window[0].invocation, 3u);  // oldest retained
  EXPECT_EQ(window[2].invocation, 5u);  // newest
}

TEST(FlightRecorder, DumpCarriesStateAndEventPayloads) {
  FlightRecorder ring(8);
  ring.record(make_event(RunEvent::Kind::kRunStarted, 0.0));
  RunEvent attempt = make_event(RunEvent::Kind::kAttemptEnded, 9.0, 1);
  attempt.ok = false;
  attempt.status = Name("Transient");
  attempt.error = "CE melted";
  attempt.computing_element = Name("ce7");
  attempt.submit_time = 1.0;
  attempt.start_time = 4.0;
  attempt.end_time = 9.0;
  ring.record(attempt);

  const std::string json = ring.dump_json("r1", "failed", "boom");
  for (const char* needle :
       {"\"run\": \"r1\"", "\"state\": \"failed\"", "\"error\": \"boom\"",
        "\"events_seen\": 2", "\"status\":\"Transient\"", "\"ce\":\"ce7\"",
        "\"ok\":false"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle << " in\n"
                                                    << json;
  }
}

TEST(FlightRecorder, RejectsZeroCapacity) {
  EXPECT_THROW(FlightRecorder(0), Error);
}

}  // namespace
}  // namespace moteur::obs
