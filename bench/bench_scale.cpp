// E19 (scale extension) — the sharded enactment core at 10k-run scale.
//
// Thousands of tiny runs (a short chain of zero-work functional services,
// data-parallel over a small item set) are pushed through one RunService on
// a ThreadedBackend, sweeping the shard count. The per-invocation work is
// negligible by design, so the bottleneck is the enactment core itself —
// engine bookkeeping, completion dispatch, obs delivery — which is exactly
// what sharding parallelizes. Reported per shard count: wall time, runs/sec,
// throughput speedup over 1 shard, and the p99 run admission wait.
//
// The run always cross-checks itself: the per-shard counters (ShardStats)
// must sum to the totals reported by the run handles, or the exit status is
// non-zero. Throughput expectations (>= 3x at 4 shards) are only enforced
// under --assert-speedup, and only when the machine exposes at least as many
// cores as shards under test — N shard threads multiplexed onto one core do
// the same serial CPU work as one thread, so wall-clock speedup assertions
// are meaningless there (the smoke path in CI still cross-checks counters).
//
//   bench_scale [--runs N] [--items M] [--stages S] [--threads T]
//               [--max-active A] [--shards 1,2,4] [--out BENCH_scale.json]
//               [--assert-speedup]
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "enactor/run_request.hpp"
#include "enactor/threaded_backend.hpp"
#include "service/run_service.hpp"
#include "services/functional_service.hpp"
#include "services/registry.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "workflow/graph.hpp"

// Global heap-allocation counter. The enactment core is supposed to stay off
// the allocator on its hot paths (dispatch, completion, closure passes), so the
// bench reports allocations per invocation alongside throughput — a regression
// here shows up even when wall time hides behind thread scheduling noise.
static std::atomic<std::uint64_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace moteur;

struct Options {
  std::size_t runs = 2000;
  std::size_t items = 16;
  std::size_t stages = 4;
  std::size_t threads = 4;
  std::size_t max_active = 16;
  std::vector<std::size_t> shard_counts{1, 2, 4};
  std::string out = "BENCH_scale.json";
  bool assert_speedup = false;
};

struct Scenario {
  std::size_t shards_requested = 0;
  std::size_t shards_effective = 0;
  double seconds = 0.0;
  double runs_per_sec = 0.0;
  std::uint64_t handle_invocations = 0;  // summed over run handles
  std::uint64_t allocations = 0;         // heap allocations in the timed region
  double allocs_per_invocation = 0.0;
  double p99_admission_wait = 0.0;
  std::vector<service::ShardStats> shard_stats;
};

workflow::Workflow chain_workflow(std::size_t stages) {
  workflow::Workflow wf("scale-chain");
  wf.add_source("src");
  std::string prev = "src";
  for (std::size_t i = 0; i < stages; ++i) {
    const std::string name = "p" + std::to_string(i);
    wf.add_processor(name, {"in"}, {"out"});
    wf.link(prev, "out", name, "in");
    prev = name;
  }
  wf.add_sink("sink");
  wf.link(prev, "out", "sink", "in");
  return wf;
}

void register_zero_work_services(services::ServiceRegistry& registry,
                                 std::size_t stages) {
  for (std::size_t i = 0; i < stages; ++i) {
    // Pure and stateless: safe to invoke concurrently from every worker.
    registry.add(std::make_shared<services::FunctionalService>(
        "p" + std::to_string(i), std::vector<std::string>{"in"},
        std::vector<std::string>{"out"}, [](const services::Inputs&) {
          services::Result result;
          result.outputs["out"].payload = 0;
          result.outputs["out"].repr = "x";
          return result;
        }));
  }
}

data::InputDataSet item_set(std::size_t items) {
  data::InputDataSet ds;
  ds.declare_input("src");
  for (std::size_t j = 0; j < items; ++j) ds.add_item("src", "i" + std::to_string(j));
  return ds;
}

Scenario run_scenario(const Options& opt, std::size_t shards) {
  enactor::ThreadedBackend backend(opt.threads);
  services::ServiceRegistry registry;
  register_zero_work_services(registry, opt.stages);

  service::RunServiceConfig config;
  config.admission.max_active = opt.max_active;
  config.admission.max_inflight = 0;  // measure the core, not the gate
  config.sharding.shards = shards;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  service::RunService runs(backend, registry, config);

  const workflow::Workflow wf = chain_workflow(opt.stages);
  const data::InputDataSet inputs = item_set(opt.items);
  std::vector<enactor::RunRequest> requests;
  requests.reserve(opt.runs);
  for (std::size_t i = 0; i < opt.runs; ++i) {
    enactor::RunRequest request;
    request.name = "r" + std::to_string(i);
    request.workflow = wf;
    request.inputs = inputs;
    requests.push_back(std::move(request));
  }

  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t allocs_before = g_alloc_count.load(std::memory_order_relaxed);
  auto handles = runs.submit_all(std::move(requests));
  runs.wait_idle();
  const std::uint64_t allocs_after = g_alloc_count.load(std::memory_order_relaxed);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  Scenario s;
  s.shards_requested = shards;
  s.shards_effective = runs.shards();
  s.seconds = seconds;
  s.runs_per_sec = seconds > 0.0 ? static_cast<double>(opt.runs) / seconds : 0.0;
  s.allocations = allocs_after - allocs_before;
  std::vector<double> waits;
  waits.reserve(handles.size());
  for (const auto& handle : handles) {
    const enactor::EnactmentResult* result = handle.try_result();
    if (result == nullptr) {
      std::fprintf(stderr, "run %s not terminal after wait_idle\n", handle.id().c_str());
      std::exit(1);
    }
    s.handle_invocations += result->invocations();
    waits.push_back(handle.admission_wait());
  }
  if (s.handle_invocations > 0) {
    s.allocs_per_invocation =
        static_cast<double>(s.allocations) / static_cast<double>(s.handle_invocations);
  }
  s.shard_stats = runs.shard_stats();
  if (!waits.empty()) s.p99_admission_wait = percentile(std::move(waits), 99.0);
  return s;
}

/// The per-shard counters must sum to what the handles reported.
bool counters_consistent(const Options& opt, const Scenario& s) {
  std::uint64_t shard_runs = 0;
  std::uint64_t shard_invocations = 0;
  for (const auto& st : s.shard_stats) {
    shard_runs += st.runs;
    shard_invocations += st.invocations;
  }
  bool ok = true;
  if (shard_runs != opt.runs) {
    std::fprintf(stderr, "FAIL: shard run counters sum to %llu, expected %zu\n",
                 static_cast<unsigned long long>(shard_runs), opt.runs);
    ok = false;
  }
  if (shard_invocations != s.handle_invocations) {
    std::fprintf(stderr,
                 "FAIL: shard invocation counters sum to %llu, handles report %llu\n",
                 static_cast<unsigned long long>(shard_invocations),
                 static_cast<unsigned long long>(s.handle_invocations));
    ok = false;
  }
  return ok;
}

void write_json(const Options& opt, const std::vector<Scenario>& scenarios) {
  std::ofstream out(opt.out);
  out << "{\n  \"config\": {\"runs\": " << opt.runs << ", \"items\": " << opt.items
      << ", \"stages\": " << opt.stages << ", \"threads\": " << opt.threads
      << ", \"max_active\": " << opt.max_active
      << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << "},\n  \"scenarios\": [";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"shards\": " << s.shards_effective
        << ", \"seconds\": " << s.seconds << ", \"runs_per_sec\": " << s.runs_per_sec
        << ", \"invocations\": " << s.handle_invocations
        << ", \"allocations\": " << s.allocations
        << ", \"allocs_per_invocation\": " << s.allocs_per_invocation
        << ", \"p99_admission_wait_seconds\": " << s.p99_admission_wait
        << ",\n     \"shards_detail\": [";
    for (std::size_t k = 0; k < s.shard_stats.size(); ++k) {
      const auto& st = s.shard_stats[k];
      out << (k == 0 ? "" : ", ") << "{\"shard\": " << st.shard
          << ", \"runs\": " << st.runs << ", \"invocations\": " << st.invocations << "}";
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
}

/// The flags on the command line; a usage error, an unknown flag or a value
/// the util/flags parser refuses exits 1 with its message.
Options parse_args(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw ParseError("missing value for " + key);
        return argv[++i];
      };
      const auto count = [&] { return parse_positive_count(next(), key); };
      if (key == "--runs") opt.runs = count();
      else if (key == "--items") opt.items = count();
      else if (key == "--stages") opt.stages = count();
      else if (key == "--threads") opt.threads = count();
      else if (key == "--max-active") opt.max_active = count();
      else if (key == "--out") opt.out = next();
      else if (key == "--assert-speedup") opt.assert_speedup = true;
      else if (key == "--shards") {
        opt.shard_counts.clear();
        for (const auto& part : split(next(), ',')) {
          opt.shard_counts.push_back(parse_positive_count(part, key));
        }
      } else {
        throw ParseError("unknown flag " + key);
      }
    }
  } catch (const ParseError& e) {
    std::fprintf(stderr, "bench_scale: %s\n", e.what());
    std::exit(1);
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  std::puts("===================================================================");
  std::printf("E19: sharded enactment core, %zu runs x %zu stages x %zu items\n",
              opt.runs, opt.stages, opt.items);
  std::printf("     threaded backend, %zu workers, max_active %zu\n", opt.threads,
              opt.max_active);
  std::puts("===================================================================");

  std::vector<Scenario> scenarios;
  bool ok = true;
  for (const std::size_t shards : opt.shard_counts) {
    Scenario s = run_scenario(opt, shards);
    ok &= counters_consistent(opt, s);
    std::printf(
        "shards %zu: %8.2f s  %9.1f runs/s  %10llu invocations  %6.1f allocs/inv  "
        "p99 wait %.3f s\n",
        s.shards_effective, s.seconds, s.runs_per_sec,
        static_cast<unsigned long long>(s.handle_invocations), s.allocs_per_invocation,
        s.p99_admission_wait);
    scenarios.push_back(std::move(s));
  }

  const Scenario* base = nullptr;
  for (const auto& s : scenarios) {
    if (s.shards_effective == 1) base = &s;
  }
  if (base != nullptr) {
    for (const auto& s : scenarios) {
      if (&s == base) continue;
      const double speedup = base->seconds > 0.0 ? base->seconds / s.seconds : 0.0;
      std::printf("speedup %zu shards vs 1: %.2fx (p99 wait %.3f s vs %.3f s)\n",
                  s.shards_effective, speedup, s.p99_admission_wait,
                  base->p99_admission_wait);
      if (opt.assert_speedup && s.shards_effective >= 4) {
        const std::size_t cores = std::thread::hardware_concurrency();
        if (cores < s.shards_effective) {
          std::printf(
              "  [SKIP] speedup assertion: %zu core(s) < %zu shards — no parallel "
              "hardware to measure\n",
              cores, s.shards_effective);
          continue;
        }
        const bool fast_enough = speedup >= 3.0;
        const bool wait_ok = s.p99_admission_wait <= base->p99_admission_wait * 1.10 ||
                             s.p99_admission_wait < 0.001;
        std::printf("  [%s] >= 3x runs/sec at %zu shards\n", fast_enough ? "PASS" : "FAIL",
                    s.shards_effective);
        std::printf("  [%s] p99 admission wait no worse\n", wait_ok ? "PASS" : "FAIL");
        ok &= fast_enough && wait_ok;
      }
    }
  }

  write_json(opt, scenarios);
  std::printf("results written to %s\n", opt.out.c_str());
  return ok ? 0 : 1;
}
