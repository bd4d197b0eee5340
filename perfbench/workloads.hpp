// The four workloads. Each batch is a fixed amount of work built from the
// seed: its set-up is timed on its own, then its runs are measured and every
// run's output is checked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;        // tiny load, for the benchmark's own tests
  std::string corrupt;       // "golden" / "output": break one check on purpose
  std::string root = ".";    // repository checkout (examples/, tests/golden/)
  std::string source_id = "unknown";
  std::string trace_out;     // span file of a traced run
};

/// Per-layer facts read from the layers' public stats during traced batches.
struct LayerFacts {
  std::vector<double> shard_skew;
  std::uint64_t sim_events = 0;
  std::uint64_t grid_jobs = 0;
  std::uint64_t grid_failed_attempts = 0;
  std::vector<double> overhead_sim_s;
  std::vector<double> queue_wait_sim_s;
  std::uint64_t warm_hits = 0;
  std::uint64_t warm_misses = 0;
  std::uint64_t cache_insertions = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t catalog_invalidations = 0;
  std::uint64_t evictions = 0;
  std::vector<double> cold_pass_ms;
  std::vector<double> warm_pass_ms;
  double staged_mb = 0.0;
  double remote_mb = 0.0;
  double ui_mb = 0.0;
  double peer_mb = 0.0;
  std::uint64_t retained_spans = 0;  // recorder spans left after the batch
  std::size_t grid_runs = 0;         // runs that built a grid (per-run means)

  void merge(const LayerFacts& other);
};

struct BatchResult {
  double setup_s = 0.0;  // building the batch's inputs and services
  double wall_s = 0.0;   // measured: the runs themselves
  double cpu_s = 0.0;    // process user + sys CPU over the measured part
  double ref_s = 0.0;    // reference kernel passes timed beside the work
  std::size_t ref_passes = 0;
  std::uint64_t allocations = 0;
  std::size_t runs = 0;
  std::size_t failed = 0;  // runs whose outputs failed a check
  std::uint64_t invocations = 0;
  std::uint64_t submissions = 0;
  double makespan_sum = 0.0;  // backend seconds, summed over runs
  bool wall_makespan = false;  // the backend's clock is the wall (threaded)
  std::vector<double> latency_ms;
  LayerFacts facts;  // gathered by traced batches only
  std::string first_error;  // first failed check, for the report
};

bool known_workload(const std::string& name);

/// One batch of `workload`; `index` numbers batches within a run (0 is the
/// warm-up). `traced` runs it through the probes.
BatchResult run_batch(const Options& opt, std::size_t index, bool traced);

/// Enact examples/data/bronze_run.xml as the golden-file test does and
/// compare the timeline CSV and provenance byte for byte. Empty on success,
/// else what differed.
std::string golden_gate(const Options& opt);

double cpu_seconds();

}  // namespace perfbench
