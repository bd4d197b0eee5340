#include "workloads.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "app/bronze_standard.hpp"
#include "calibrate.hpp"
#include "data/invocation_cache.hpp"
#include "data/provenance_xml.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/enactor.hpp"
#include "enactor/manifest.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/threaded_backend.hpp"
#include "enactor/timeline_csv.hpp"
#include "grid/grid.hpp"
#include "obs/recorder.hpp"
#include "probe.hpp"
#include "service/run_service.hpp"
#include "services/catalog.hpp"
#include "services/functional_service.hpp"
#include "services/registry.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

using namespace moteur;

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Consumes the pending deliberate break of an output check, once.
bool take_corruption(const Options& opt) {
  static bool taken = false;
  if (opt.corrupt != "output" || taken) return false;
  taken = true;
  return true;
}

/// Measured section of one run: wall, CPU and allocations around it.
struct Meter {
  std::int64_t wall_start = now_ns();
  double cpu_start = cpu_seconds();
  std::uint64_t allocs_start = allocations();

  /// Adds the section to `out`; returns its wall seconds.
  double add_to(BatchResult& out) const {
    const double wall = seconds_since(wall_start);
    out.wall_s += wall;
    out.cpu_s += cpu_seconds() - cpu_start;
    out.allocations += allocations() - allocs_start;
    return wall;
  }
};

/// Times `passes` reference passes beside the measured work.
void calibrate(BatchResult& out, std::size_t passes) {
  for (std::size_t i = 0; i < passes; ++i) out.ref_s += reference_seconds();
  out.ref_passes += passes;
}

void fail(BatchResult& out, const std::string& why) {
  ++out.failed;
  if (out.first_error.empty()) out.first_error = why;
}

/// Pins the calling thread, and every thread it starts in the scope, to one
/// CPU, batch by batch in turn over the CPUs it may use, then restores its
/// mask. On a shared host vCPU speeds differ by up to 1.7x for seconds at a
/// time. With the whole batch on one CPU, the reference passes timed on the
/// calling thread sample the speed every thread of the batch ran at, and
/// thread hand-offs are context switches rather than cross-CPU wake-ups.
class RotatingPin {
 public:
  explicit RotatingPin(std::size_t index) {
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    const int count = CPU_COUNT(&saved_);
    if (count <= 1) return;
    int nth = static_cast<int>(index % static_cast<std::size_t>(count));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || nth-- != 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
      break;
    }
  }
  ~RotatingPin() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  RotatingPin(const RotatingPin&) = delete;
  RotatingPin& operator=(const RotatingPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// ---------------------------------------------------------------------------
// chain / chain-recorded: tiny zero-work runs through a RunService
// ---------------------------------------------------------------------------

constexpr std::size_t kStages = 4;
constexpr std::size_t kItems = 16;
// One shard thread and one pool worker, pinned with the generator to one CPU
// per batch: with 2 + 2 on a 4-core host, runs/s spread twice as much from
// run to run as with 1 + 1, and cross-CPU wake-ups add the host's noise.
constexpr std::size_t kShards = 1;
constexpr std::size_t kWorkers = 1;
constexpr std::size_t kClients = 16;  // closed loop; equals max_active
// Runs per batch: a batch of 100 takes 60-80 ms, short enough for the
// reference passes before and after it to track the host's speed.
constexpr std::size_t kChainRuns = 100;
constexpr std::size_t kReferencePasses = 4;  // before the batch, and after it

workflow::Workflow chain_workflow() {
  workflow::Workflow wf("chain");
  wf.add_source("src");
  std::string prev = "src";
  for (std::size_t i = 0; i < kStages; ++i) {
    const std::string name = "p" + std::to_string(i);
    wf.add_processor(name, {"in"}, {"out"});
    wf.link(prev, "out", name, "in");
    prev = name;
  }
  wf.add_sink("sink");
  wf.link(prev, "out", "sink", "in");
  return wf;
}

/// Zero-work stages that pass their input payload (the run id) along.
void register_chain_services(services::ServiceRegistry& registry) {
  for (std::size_t i = 0; i < kStages; ++i) {
    registry.add(std::make_shared<services::FunctionalService>(
        "p" + std::to_string(i), std::vector<std::string>{"in"},
        std::vector<std::string>{"out"}, [](const services::Inputs& inputs) {
          services::Result result;
          result.outputs["out"].payload = inputs.begin()->second.payload();
          result.outputs["out"].repr = "x";
          return result;
        }));
  }
}

std::uint64_t run_number(const std::string& run_id) {
  return run_id.empty() ? 0 : std::strtoull(run_id.c_str(), nullptr, 10);
}

std::string check_chain_run(const Options& opt, const service::RunHandle& handle,
                            std::uint64_t id) {
  if (handle.poll() != service::RunState::kFinished) {
    return "chain run " + std::to_string(id) + " ended " + to_string(handle.poll());
  }
  const enactor::EnactmentResult& result = handle.result();
  const auto sink = result.sink_outputs.find("sink");
  std::size_t tokens = sink == result.sink_outputs.end() ? 0 : sink->second.size();
  if (take_corruption(opt)) --tokens;
  if (tokens != kItems || result.failures() != 0 ||
      result.invocations() != kStages * kItems) {
    return "chain run " + std::to_string(id) + ": " + std::to_string(tokens) +
           " sink tokens, " + std::to_string(result.invocations()) + " invocations";
  }
  for (const data::Token& token : sink->second) {
    if (!token.holds<std::uint64_t>() || token.as<std::uint64_t>() != id) {
      return "chain run " + std::to_string(id) + " received another run's token";
    }
  }
  return {};
}

BatchResult chain_batch(const Options& opt, std::size_t index, bool traced, bool recorded) {
  const RotatingPin pin(index);
  BatchResult out;
  out.wall_makespan = true;
  calibrate(out, kReferencePasses);
  const std::size_t runs = opt.smoke ? 24 : kChainRuns;
  const std::int64_t setup_start = now_ns();

  enactor::ThreadedBackend threaded(kWorkers);
  std::optional<TimedBackend> timed;
  if (traced) timed.emplace(threaded);
  enactor::ExecutionBackend& backend =
      timed ? static_cast<enactor::ExecutionBackend&>(*timed) : threaded;
  services::ServiceRegistry registry;
  register_chain_services(registry);
  obs::RunRecorder recorder;
  obs::RunRecorder shadow;

  service::RunServiceConfig config;
  config.admission.max_active = kClients;
  config.admission.max_inflight = 0;
  config.sharding.shards = kShards;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  service::RunService service(backend, registry, config);
  if (recorded) {
    if (traced) {
      // RunService calls the recorder's (non-virtual) on_event itself, so
      // the traced run times a second recorder fed the very same events.
      service.add_event_subscriber([&shadow](const obs::RunEvent& event) {
        Span span(Layer::kObs, run_number(event.run_id));
        shadow.on_event(event);
      });
    }
    service.set_recorder(&recorder);
  }

  const workflow::Workflow wf = chain_workflow();
  data::InputDataSet inputs;
  inputs.declare_input("src");
  for (std::size_t j = 0; j < kItems; ++j) {
    inputs.add_item("src", "s" + std::to_string(opt.seed) + "i" + std::to_string(j));
  }
  std::vector<enactor::RunRequest> requests(runs);
  std::vector<std::uint64_t> ids(runs);
  for (std::size_t i = 0; i < runs; ++i) {
    ids[i] = (opt.seed % 1000000) * 1000000000ull + index * 1000000ull + i + 1;
    requests[i].name = std::to_string(ids[i]);
    requests[i].workflow = wf;
    requests[i].inputs = inputs;
    requests[i].resolver = [id = ids[i]](const std::string&, std::size_t,
                                         const std::string&) -> std::any { return id; };
  }
  out.setup_s = seconds_since(setup_start);

  // Closed loop: each client resubmits as soon as its run is terminal.
  std::vector<service::RunHandle> clients(std::min(kClients, runs));
  std::vector<std::int64_t> submitted_at(clients.size());
  std::vector<std::size_t> client_run(clients.size());
  std::size_t next = 0;
  const auto submit = [&](std::size_t slot) {
    std::optional<Span> span;
    if (traced) span.emplace(Layer::kSubmit, ids[next]);
    client_run[slot] = next;
    submitted_at[slot] = now_ns();
    clients[slot] = service.submit(std::move(requests[next]));
    ++next;
  };
  const Meter meter;
  for (std::size_t slot = 0; slot < clients.size(); ++slot) submit(slot);
  for (std::size_t done = 0; done < runs; ++done) {
    const std::size_t slot = service.wait_any(clients);
    out.latency_ms.push_back(static_cast<double>(now_ns() - submitted_at[slot]) / 1e6);
    const service::RunHandle& handle = clients[slot];
    const std::string error = check_chain_run(opt, handle, ids[client_run[slot]]);
    if (!error.empty()) fail(out, error);
    if (const enactor::EnactmentResult* result = handle.try_result()) {
      out.invocations += result->invocations();
      out.submissions += result->submissions();
      out.makespan_sum += result->makespan();
    }
    if (next < runs) {
      submit(slot);
    } else {
      clients[slot] = service::RunHandle{};
    }
  }
  meter.add_to(out);
  out.runs = runs;
  calibrate(out, kReferencePasses);

  // The shard counters must account for exactly the runs the handles saw. A
  // handle turns terminal just before its shard counts the run.
  service.wait_idle();
  const std::vector<service::ShardStats> shards = service.shard_stats();
  std::uint64_t shard_runs = 0;
  std::uint64_t shard_invocations = 0;
  std::uint64_t busiest = 0;
  for (const auto& s : shards) {
    shard_runs += s.runs;
    shard_invocations += s.invocations;
    busiest = std::max(busiest, s.runs);
  }
  if (shard_runs != runs || shard_invocations != out.invocations) {
    fail(out, "shard counters sum to " + std::to_string(shard_runs) + " runs / " +
                  std::to_string(shard_invocations) + " invocations, handles saw " +
                  std::to_string(runs) + " / " + std::to_string(out.invocations));
  }
  service.shutdown();
  if (traced) {
    if (shard_runs > 0) {
      out.facts.shard_skew.push_back(static_cast<double>(busiest) * shards.size() /
                                     static_cast<double>(shard_runs));
    }
    out.facts.retained_spans += recorder.tracer().spans().size();
  }
  return out;
}

// ---------------------------------------------------------------------------
// bronze-sim / bronze-dataplane: the Bronze Standard on the simulated grid
// ---------------------------------------------------------------------------

constexpr std::size_t kBronzePairs = 126;    // the paper's largest data set
constexpr std::size_t kDataPlanePairs = 32;  // two passes per run
constexpr const char* kStorageElements[] = {"se-north", "se-south", "se-east"};

/// Processors fire once per pair, bar the synchronized MultiTransfoTest.
std::size_t bronze_invocations(std::size_t pairs) { return 6 * pairs + 1; }

struct BronzeInputs {
  enactor::RunManifest manifest;
  services::ServiceRegistry registry;
  data::InputDataSet inputs;
};

/// Set-up shared by a batch: manifest and service catalog parse, data set.
std::unique_ptr<BronzeInputs> bronze_inputs(const Options& opt, std::size_t pairs) {
  auto in = std::make_unique<BronzeInputs>();
  in->manifest = enactor::RunManifest::from_xml(
      read_file(opt.root + "/examples/data/bronze_run.xml"));
  services::load_catalog(read_file(opt.root + "/examples/data/bronze_services.xml"),
                         in->registry);
  in->inputs = app::bronze_standard_dataset(pairs);
  return in;
}

/// One fresh simulated grid and its backend, decorated when traced.
struct SimRig {
  data::ReplicaCatalog catalog;
  sim::Simulator simulator;
  grid::Grid grid;
  enactor::SimGridBackend backend;
  std::optional<TimedBackend> timed;

  SimRig(grid::GridConfig config, bool traced, bool data_plane)
      : grid(simulator, std::move(config)), backend(grid) {
    if (data_plane) backend.set_catalog(&catalog);
    if (traced) timed.emplace(backend);
  }
  enactor::ExecutionBackend& exec() {
    return timed ? static_cast<enactor::ExecutionBackend&>(*timed) : backend;
  }
};

grid::GridConfig data_plane_grid(std::uint64_t seed) {
  grid::GridConfig cfg = grid::GridConfig::egee2006(seed);
  for (const char* name : kStorageElements) {
    grid::StorageElementConfig se;
    se.name = name;
    se.transfer_latency_seconds = 2.0;
    se.transfer_bandwidth_mb_per_s = 10.0;
    cfg.storage_elements.push_back(se);
  }
  for (std::size_t i = 0; i < cfg.computing_elements.size(); ++i) {
    cfg.computing_elements[i].close_storage_element = kStorageElements[i % 3];
  }
  cfg.remote_transfer_penalty = 3.0;
  cfg.matchmaking_policy = "data-gravity";
  cfg.replication_policy = "push-to-consumer";
  return cfg;
}

std::string check_bronze_result(const enactor::EnactmentResult& result, std::size_t pairs,
                                const char* what, bool corrupt) {
  std::size_t invocations = result.invocations();
  if (corrupt) --invocations;
  std::size_t sink_tokens = 0;
  for (const auto& [sink, tokens] : result.sink_outputs) sink_tokens += tokens.size();
  if (result.failures() != 0 || invocations != bronze_invocations(pairs) ||
      result.sink_outputs.size() != 2 || sink_tokens != 2) {
    return std::string(what) + ": " + std::to_string(invocations) + " invocations (expected " +
           std::to_string(bronze_invocations(pairs)) + "), " + std::to_string(sink_tokens) +
           " sink tokens, " + std::to_string(result.failures()) + " failures";
  }
  return {};
}

void note_grid(LayerFacts& facts, const SimRig& rig) {
  const grid::Grid::Stats& stats = rig.grid.stats();
  facts.sim_events += rig.simulator.executed_events();
  facts.grid_jobs += stats.submitted;
  facts.grid_failed_attempts += stats.failed_attempts;
  facts.ui_mb += stats.ui_megabytes;
  facts.peer_mb += stats.transfer_megabytes;
  for (const grid::JobRecord& job : rig.grid.completed_jobs()) {
    facts.overhead_sim_s.push_back(job.overhead_seconds());
    if (job.queue_exit_time >= job.match_time && job.match_time >= 0.0) {
      facts.queue_wait_sim_s.push_back(job.queue_seconds());
    }
    facts.staged_mb += job.staged_in_megabytes;
    facts.remote_mb += job.remote_input_megabytes;
  }
  ++facts.grid_runs;
}

/// About half a second of work per batch, so a run has dozens of batches,
/// and enough runs per batch that the tail latency is a high percentile.
std::size_t bronze_runs(const Options& opt, std::size_t index) {
  if (opt.smoke) return 2;
  return index == 0 ? 3 : 50;
}

BatchResult bronze_batch(const Options& opt, std::size_t index, bool traced, bool data_plane) {
  const RotatingPin pin(index);
  BatchResult out;
  const std::size_t pairs = opt.smoke ? 12 : (data_plane ? kDataPlanePairs : kBronzePairs);
  const std::size_t runs = bronze_runs(opt, index);
  std::int64_t setup_start = now_ns();
  const std::unique_ptr<BronzeInputs> in = bronze_inputs(opt, pairs);
  enactor::EnactmentPolicy policy = in->manifest.policy;  // SP+DP+JG
  if (data_plane) {
    policy = enactor::EnactmentPolicy::sp_dp();
    policy.cache = true;
    policy.matchmaking = "data-gravity";
  }
  out.setup_s = seconds_since(setup_start);

  for (std::size_t i = 0; i < runs; ++i) {
    // Every batch replays the same runs: grid seeds derive from the workload
    // seed and the run's position only.
    const std::uint64_t grid_seed = splitmix64(opt.seed * 1000003ull + i);
    const std::uint64_t run_id = index * 1000 + i + 1;
    setup_start = now_ns();
    SimRig rig(data_plane ? data_plane_grid(grid_seed) : grid::GridConfig::egee2006(grid_seed),
               traced, data_plane);
    enactor::Enactor enactor(rig.exec(), in->registry, policy);
    enactor::RunRequest request;
    request.workflow = in->manifest.workflow;
    request.inputs = in->inputs;
    out.setup_s += seconds_since(setup_start);

    calibrate(out, 1);
    set_current_run(run_id);
    const Meter meter;
    std::optional<enactor::EnactmentResult> cold;
    std::optional<enactor::EnactmentResult> warm;
    double cold_ms = 0.0;
    {
      std::optional<Span> span;
      if (traced) span.emplace(Layer::kRun, run_id);
      request.name = "cold";
      cold = enactor.run(request);
      cold_ms = static_cast<double>(now_ns() - meter.wall_start) / 1e6;
      if (data_plane) {
        request.name = "warm";
        warm = enactor.run(request);
      }
    }
    out.latency_ms.push_back(1e3 * meter.add_to(out));
    ++out.runs;

    out.invocations += cold->invocations();
    out.submissions += cold->submissions();
    out.makespan_sum += cold->makespan();
    std::string error = check_bronze_result(*cold, pairs, "cold pass", take_corruption(opt));
    if (data_plane) {
      out.invocations += warm->invocations();
      out.submissions += warm->submissions();
      out.makespan_sum += warm->makespan();
      if (error.empty()) error = check_bronze_result(*warm, pairs, "warm pass", false);
      if (error.empty() && warm->cache_hits() == 0) error = "warm pass had no cache hits";
      if (error.empty() && data::export_provenance(warm->sink_outputs) !=
                               data::export_provenance(cold->sink_outputs)) {
        error = "warm-pass provenance differs from the cold pass";
      }
    }
    if (!error.empty()) fail(out, "run " + std::to_string(run_id) + " " + error);
    if (!traced) continue;
    // Per-layer facts, read from the layers' public stats.
    if (data_plane) {
      if (const data::InvocationCache* cache = enactor.invocation_cache()) {
        const data::InvocationCache::Stats hot = cache->stats("warm");
        const data::InvocationCache::Stats all = cache->totals();
        out.facts.warm_hits += hot.hits;
        out.facts.warm_misses += hot.misses;
        out.facts.cache_insertions += all.insertions;
        out.facts.cache_invalidations += all.invalidations;
      }
      out.facts.catalog_invalidations += rig.catalog.invalidation_count();
      out.facts.evictions += rig.catalog.eviction_count();
      out.facts.cold_pass_ms.push_back(cold_ms);
      out.facts.warm_pass_ms.push_back(out.latency_ms.back() - cold_ms);
    }
    note_grid(out.facts, rig);
  }
  set_current_run(0);
  return out;
}

}  // namespace

void LayerFacts::merge(const LayerFacts& o) {
  shard_skew.insert(shard_skew.end(), o.shard_skew.begin(), o.shard_skew.end());
  sim_events += o.sim_events;
  grid_jobs += o.grid_jobs;
  grid_failed_attempts += o.grid_failed_attempts;
  overhead_sim_s.insert(overhead_sim_s.end(), o.overhead_sim_s.begin(), o.overhead_sim_s.end());
  queue_wait_sim_s.insert(queue_wait_sim_s.end(), o.queue_wait_sim_s.begin(),
                          o.queue_wait_sim_s.end());
  warm_hits += o.warm_hits;
  warm_misses += o.warm_misses;
  cache_insertions += o.cache_insertions;
  cache_invalidations += o.cache_invalidations;
  catalog_invalidations += o.catalog_invalidations;
  evictions += o.evictions;
  cold_pass_ms.insert(cold_pass_ms.end(), o.cold_pass_ms.begin(), o.cold_pass_ms.end());
  warm_pass_ms.insert(warm_pass_ms.end(), o.warm_pass_ms.begin(), o.warm_pass_ms.end());
  staged_mb += o.staged_mb;
  remote_mb += o.remote_mb;
  ui_mb += o.ui_mb;
  peer_mb += o.peer_mb;
  retained_spans += o.retained_spans;
  grid_runs += o.grid_runs;
}

bool known_workload(const std::string& name) {
  return name == "chain" || name == "chain-recorded" || name == "bronze-sim" ||
         name == "bronze-dataplane";
}

BatchResult run_batch(const Options& opt, std::size_t index, bool traced) {
  if (opt.workload == "chain") return chain_batch(opt, index, traced, false);
  if (opt.workload == "chain-recorded") return chain_batch(opt, index, traced, true);
  return bronze_batch(opt, index, traced, opt.workload == "bronze-dataplane");
}

std::string golden_gate(const Options& opt) {
  const enactor::RunManifest manifest = enactor::RunManifest::from_xml(
      read_file(opt.root + "/examples/data/bronze_run.xml"));
  services::ServiceRegistry registry;
  services::load_catalog(read_file(opt.root + "/examples/data/bronze_services.xml"),
                         registry);
  sim::Simulator simulator;
  grid::Grid grid(simulator, manifest.make_grid_config());
  enactor::SimGridBackend backend(grid);
  enactor::Enactor moteur(backend, registry, manifest.policy);
  enactor::RunRequest request;
  request.workflow = manifest.workflow;
  request.inputs = manifest.inputs;
  const enactor::EnactmentResult result = moteur.run(request);

  std::string csv = enactor::timeline_to_csv(result.timeline, /*data_plane_columns=*/false);
  if (opt.corrupt == "golden") csv.back() ^= 1;
  if (csv != read_file(opt.root + "/tests/golden/bronze_timeline.csv")) {
    return "timeline CSV differs from tests/golden/bronze_timeline.csv";
  }
  if (data::export_provenance(result.sink_outputs) !=
      read_file(opt.root + "/tests/golden/bronze_provenance.xml")) {
    return "provenance differs from tests/golden/bronze_provenance.xml";
  }
  return {};
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace perfbench
