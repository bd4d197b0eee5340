// perfbench: the repository benchmark. Runs one workload for a fixed time in
// batches of fixed work, checks every output, and prints the end-to-end
// metrics (untraced) or the per-layer metrics (traced) as one JSON line.
// End-to-end times are corrected for the host's speed, batch by batch, with
// the reference kernel of calibrate.hpp; the raw values are printed beside.
//
//   perfbench --workload chain|chain-recorded|bronze-sim|bronze-dataplane
//             --seed N --seconds S --trace 0|1 [--smoke] [--corrupt golden|output]
//             [--root DIR] [--source-id ID] [--trace-out FILE]
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "probe.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr std::size_t kMinBatches = 3;
constexpr std::size_t kMaxBatches = 2000;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// An idle layer has no samples; its metrics read 0.
double percentile(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : moteur::percentile(v, q);
}
double median(const std::vector<double>& v) { return percentile(v, 50.0); }
double mean(const std::vector<double>& v) { return v.empty() ? 0.0 : moteur::mean_of(v); }

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample, whose rank is (n - 10) / n.
double tail(std::vector<double> v, double* rank) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n <= 10) {
    *rank = 100.0;
    return n == 0 ? 0.0 : v.back();
  }
  *rank = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return v[n - 11];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename Fn>
double median_of(const std::vector<BatchResult>& batches, const Fn& fn) {
  std::vector<double> values;
  for (const BatchResult& b : batches) values.push_back(fn(b));
  return median(std::move(values));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<BatchResult> run_phase(const Options& opt, bool traced, double seconds,
                                   std::size_t& next_index) {
  std::vector<BatchResult> batches;
  const std::int64_t start = now_ns();
  do {
    batches.push_back(run_batch(opt, next_index++, traced));
    // Hand freed batch memory back, so the peak resident set reflects one
    // batch's live work rather than how many batches ran before it.
    malloc_trim(0);
  } while ((static_cast<double>(now_ns() - start) / 1e9 < seconds ||
            batches.size() < kMinBatches) &&
           batches.size() < kMaxBatches);
  return batches;
}

/// How much slower than nominal the host ran during a batch: its mean
/// reference pass over the nominal one. Every wall or CPU time of the batch
/// is divided by it, so it reads at the reference speed whatever the host's
/// other tenants were doing; with `corrected` false it is taken as 1.
double slowdown(const BatchResult& b, bool corrected = true) {
  if (!corrected || b.ref_passes == 0) return 1.0;
  return b.ref_s / static_cast<double>(b.ref_passes) / kReferenceNominalSeconds;
}

double runs_per_s(const BatchResult& b, bool corrected = true) {
  return ratio(b.runs, b.wall_s / slowdown(b, corrected));
}

/// Medians over batches; times are host-speed corrected unless `corrected`
/// is false (printed beside the result, for comparison with raw timings).
std::vector<Metric> end_to_end(const std::vector<BatchResult>& batches, bool corrected,
                               double* tail_rank, std::size_t* tail_samples) {
  const auto speed = [corrected](const BatchResult& b) { return slowdown(b, corrected); };
  std::vector<double> tails;
  for (const BatchResult& b : batches) tails.push_back(tail(b.latency_ms, tail_rank) / speed(b));
  *tail_samples = batches.empty() ? 0 : batches.front().latency_ms.size();
  return {
      {"runs_per_s", median_of(batches, [&](const BatchResult& b) { return runs_per_s(b, corrected); }), "1/s"},
      {"run_latency_p50_ms", median_of(batches, [&](const BatchResult& b) { return percentile(b.latency_ms, 50.0) / speed(b); }), "ms"},
      {"run_latency_tail_ms", median(tails), "ms"},
      {"cpu_ms_per_run", median_of(batches, [&](const BatchResult& b) { return ratio(1e3 * b.cpu_s, b.runs) / speed(b); }), "ms"},
      {"allocs_per_invocation", median_of(batches, [](const BatchResult& b) { return ratio(b.allocations, b.invocations); }), "count"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"jobs_per_s", median_of(batches, [&](const BatchResult& b) { return ratio(b.submissions, b.wall_s) * speed(b); }), "1/s"},
      {"makespan_s", median_of(batches, [&](const BatchResult& b) { return ratio(b.makespan_sum, b.runs) / (b.wall_makespan ? speed(b) : 1.0); }), "s"},
      {"jobs_per_run", median_of(batches, [](const BatchResult& b) { return ratio(b.submissions, b.runs); }), "count"},
      {"setup_s", median_of(batches, [&](const BatchResult& b) { return b.setup_s / speed(b); }), "s"},
  };
}

std::vector<Metric> per_layer(const std::vector<BatchResult>& untraced,
                              const std::vector<BatchResult>& traced, const TraceTotals& t,
                              const std::vector<std::uint64_t>& layer_allocs) {
  LayerFacts f;
  double runs = 0, invocations = 0, submissions = 0;
  for (const BatchResult& b : traced) {
    f.merge(b.facts);
    runs += static_cast<double>(b.runs);
    invocations += static_cast<double>(b.invocations);
    submissions += static_cast<double>(b.submissions);
  }
  const auto layer = [&](Layer l) -> const LayerStats& {
    return t.layer[static_cast<std::size_t>(l)];
  };
  const auto allocs = [&](Layer l) {
    return static_cast<double>(layer_allocs[static_cast<std::size_t>(l)]);
  };
  const auto us = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e3; };
  const auto us_samples = [](const std::vector<std::int64_t>& ns, double q) {
    std::vector<double> v(ns.begin(), ns.end());
    return percentile(std::move(v), q) / 1e3;
  };
  const double obs_events = static_cast<double>(layer(Layer::kObs).count);
  const auto corrected_rps = [](const BatchResult& b) { return runs_per_s(b); };
  const double rps_untraced = median_of(untraced, corrected_rps);
  const double rps_traced = median_of(traced, corrected_rps);
  const double grid_runs = static_cast<double>(f.grid_runs);
  return {
      {"service.submit_us", ratio(us(layer(Layer::kSubmit).total_ns), layer(Layer::kSubmit).count), "us"},
      {"service.shard_skew", median(f.shard_skew), "ratio"},
      {"enactor.callback_us_per_invocation", ratio(us(layer(Layer::kCallback).self_ns), invocations), "us"},
      {"enactor.execute_us", ratio(us(layer(Layer::kExecute).total_ns), layer(Layer::kExecute).count), "us"},
      {"enactor.allocs_per_invocation", ratio(allocs(Layer::kCallback), invocations), "count"},
      {"enactor.submissions_per_invocation", ratio(submissions, invocations), "ratio"},
      {"enactor.backend_wait_us_p50", us_samples(t.backend_wait_ns, 50.0), "us"},
      {"enactor.channel_us_p50", us_samples(t.channel_ns, 50.0), "us"},
      {"enactor.channel_us_p99", us_samples(t.channel_ns, 99.0), "us"},
      {"enactor.drive_idle_frac", ratio(layer(Layer::kDrive).self_ns, layer(Layer::kDrive).total_ns), "ratio"},
      {"sim.events_per_job", ratio(f.sim_events, f.grid_jobs), "count"},
      {"grid.self_us_per_job", ratio(us(layer(Layer::kDrive).self_ns), submissions), "us"},
      {"grid.allocs_per_job", ratio(allocs(Layer::kDrive), submissions), "count"},
      {"grid.failed_attempt_frac", ratio(f.grid_failed_attempts, f.grid_jobs), "ratio"},
      {"grid.overhead_sim_s_mean", mean(f.overhead_sim_s), "sim_s"},
      {"grid.queue_wait_sim_s_p50", percentile(f.queue_wait_sim_s, 50.0), "sim_s"},
      {"grid.ui_mb", ratio(f.ui_mb, grid_runs), "MB"},
      {"grid.peer_mb", ratio(f.peer_mb, grid_runs), "MB"},
      {"data.cache_hit_ratio", ratio(f.warm_hits, f.warm_hits + f.warm_misses), "ratio"},
      {"data.cache_insertions", ratio(f.cache_insertions, grid_runs), "count"},
      {"data.cache_invalidations", ratio(f.cache_invalidations, grid_runs), "count"},
      {"data.catalog_invalidations", ratio(f.catalog_invalidations, grid_runs), "count"},
      {"data.evictions", ratio(f.evictions, grid_runs), "count"},
      {"data.cold_pass_ms", median(f.cold_pass_ms), "ms"},
      {"data.warm_pass_ms", median(f.warm_pass_ms), "ms"},
      {"policy.remote_mb_frac", ratio(f.remote_mb, f.staged_mb), "ratio"},
      {"obs.on_event_us", ratio(us(layer(Layer::kObs).total_ns), obs_events), "us"},
      {"obs.events_per_invocation", ratio(obs_events, invocations), "ratio"},
      {"obs.allocs_per_event", ratio(allocs(Layer::kObs), obs_events), "count"},
      {"obs.retained_spans_per_run", ratio(f.retained_spans, runs), "count"},
      {"trace.overhead_pct", 100.0 * ratio(rps_untraced - rps_traced, rps_untraced), "%"},
      {"trace.spans", static_cast<double>(t.spans), "count"},
  };
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload chain|chain-recorded|bronze-sim|"
               "bronze-dataplane --seed N --seconds S --trace 0|1 [--smoke] "
               "[--corrupt golden|output] [--root DIR] [--source-id ID] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("--seed must be a non-negative integer");
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) usage("--seconds must be a positive number");
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      opt.trace = value == "1";
    } else if (key == "--corrupt") {
      if (value != "golden" && value != "output") usage("--corrupt must be golden or output");
      opt.corrupt = value;
    } else if (key == "--root") {
      opt.root = value;
    } else if (key == "--source-id") {
      opt.source_id = value;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (!known_workload(opt.workload)) usage("unknown or missing --workload");
  return opt;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "GNU " __VERSION__;
#else
  return "unknown";
#endif
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::puts(json.c_str());
}

int run(const Options& opt) {
  std::printf("# perfbench workload=%s seed=%llu trace=%d seconds=%g%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0, opt.seconds,
              opt.smoke ? " smoke" : "");
  std::printf("# host nproc=%u compiler=\"%s\" build_type=%s commit=%s\n",
              std::thread::hardware_concurrency(), compiler(), PERFBENCH_BUILD_TYPE,
              opt.source_id.c_str());

  // Correctness gate: the golden Bronze run must reproduce byte for byte.
  const std::string golden = golden_gate(opt);
  if (!golden.empty()) {
    std::printf("# correctness gate FAILED: %s\n", golden.c_str());
    print_result(false, 1, 1, {});
    return 1;
  }
  std::puts("# correctness gate: golden timeline and provenance match");

  std::size_t next_index = 0;
  // Warm-up (caches, lazy set-up, the allocator): checked, not measured.
  std::vector<BatchResult> warm_up{run_batch(opt, next_index++, false)};

  std::vector<BatchResult> untraced;
  std::vector<BatchResult> traced;
  std::vector<Metric> metrics;
  double tail_rank = 0.0;
  std::size_t tail_samples = 0;
  if (!opt.trace) {
    untraced = run_phase(opt, false, opt.seconds, next_index);
    metrics = end_to_end(untraced, true, &tail_rank, &tail_samples);
  } else {
    // Same work untraced then traced; the throughput gap is the tracing cost.
    untraced = run_phase(opt, false, opt.seconds / 2.0, next_index);
    end_to_end(untraced, true, &tail_rank, &tail_samples);
    reset_trace();
    std::vector<std::uint64_t> allocs_before(kLayers);
    for (std::size_t l = 0; l < kLayers; ++l) allocs_before[l] = allocations(static_cast<Layer>(l));
    traced = run_phase(opt, true, opt.seconds / 2.0, next_index);
    std::vector<std::uint64_t> layer_allocs(kLayers);
    for (std::size_t l = 0; l < kLayers; ++l) {
      layer_allocs[l] = allocations(static_cast<Layer>(l)) - allocs_before[l];
    }
    metrics = per_layer(untraced, traced, trace_totals(), layer_allocs);
    if (!opt.trace_out.empty()) {
      if (write_trace(opt.trace_out)) {
        std::printf("# spans written to %s\n", opt.trace_out.c_str());
      } else {
        std::printf("# could not write spans to %s\n", opt.trace_out.c_str());
      }
    }
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string first_error;
  for (const auto* phase : {&warm_up, &untraced, &traced}) {
    for (const BatchResult& b : *phase) {
      attempted += b.runs;
      failed += b.failed;
      if (first_error.empty()) first_error = b.first_error;
    }
  }
  std::printf("# %zu batches untraced, %zu traced; %zu runs, %zu failed checks\n",
              untraced.size(), traced.size(), attempted, failed);
  std::printf("# run_latency_tail_ms is p%.2f of %zu runs per batch (10 runs beyond it)\n",
              tail_rank, tail_samples);
  if (!first_error.empty()) std::printf("# first failed check: %s\n", first_error.c_str());
  std::vector<double> slowdowns;
  std::string raw_rps;
  std::string corrected_rps;
  char buf[32];
  for (const auto* phase : {&untraced, &traced}) {
    for (const BatchResult& b : *phase) {
      slowdowns.push_back(slowdown(b));
      std::snprintf(buf, sizeof buf, " %.1f", runs_per_s(b, false));
      raw_rps += buf;
      std::snprintf(buf, sizeof buf, " %.1f", runs_per_s(b));
      corrected_rps += buf;
    }
  }
  std::sort(slowdowns.begin(), slowdowns.end());
  std::printf("# runs/s per batch, raw:%s\n# runs/s per batch, corrected:%s\n", raw_rps.c_str(),
              corrected_rps.c_str());
  std::printf("# host slowdown (reference pass / %.3f ms): median %.3f, range %.3f-%.3f\n",
              1e3 * kReferenceNominalSeconds, median(slowdowns), slowdowns.front(),
              slowdowns.back());
  if (!opt.trace) {
    double rank = 0.0;
    std::size_t samples = 0;
    for (const Metric& m : end_to_end(untraced, false, &rank, &samples)) {
      std::printf("# raw %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("# %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = failed == 0;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
