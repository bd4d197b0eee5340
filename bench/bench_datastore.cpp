// E18 (data-plane extension) — warm-cache reprocessing of the Bronze
// Standard on a multi-SE EGEE grid: blind brokering with no memoization vs
// the full data plane (replica catalog, data-aware matchmaking, invocation
// cache).
//
// The workload is the daily-reprocessing pattern of §1's data-intensive
// applications: the same N-pair Bronze Standard is enacted twice through one
// enactor. Blind, the second pass resubmits every invocation; with the data
// plane on, the second pass is served from the invocation cache (no grid
// jobs at all) and the first pass places each job next to its input
// replicas, avoiding the remote-transfer penalty on intermediate files.
//
// Acceptance (ISSUE 5): the data plane must cut grid submissions by at
// least 30% and lower the total makespan. The measured numbers are written
// to BENCH_datastore.json.
#include <cstdio>
#include <string>

#include "app/bronze_standard.hpp"
#include "data/invocation_cache.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/enactor.hpp"
#include "enactor/run_request.hpp"
#include "enactor/sim_backend.hpp"
#include "grid/grid.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace moteur;

constexpr std::uint64_t kSeed = 20060619;
constexpr std::size_t kPairs = 64;
constexpr const char* kStorageElements[] = {"se-north", "se-south", "se-east"};

// EGEE 2006 sites, each attached to one of three regional storage elements.
// Fetching an input whose replica lives on another region's SE costs the
// remote-transfer penalty, so placement matters.
grid::GridConfig data_grid_config(bool data_gravity) {
  grid::GridConfig cfg = grid::GridConfig::egee2006(kSeed);
  for (const char* name : kStorageElements) {
    grid::StorageElementConfig se;
    se.name = name;
    se.transfer_latency_seconds = 2.0;
    se.transfer_bandwidth_mb_per_s = 10.0;
    cfg.storage_elements.push_back(se);
  }
  for (std::size_t i = 0; i < cfg.computing_elements.size(); ++i)
    cfg.computing_elements[i].close_storage_element = kStorageElements[i % 3];
  cfg.remote_transfer_penalty = 3.0;
  if (data_gravity) cfg.matchmaking_policy = "data-gravity";
  return cfg;
}

struct ScenarioResult {
  std::size_t submissions = 0;
  double makespan_pass1 = 0.0;
  double makespan_pass2 = 0.0;
  data::InvocationCache::Stats cache;
  std::size_t cache_entries = 0;

  double makespan_total() const { return makespan_pass1 + makespan_pass2; }
};

ScenarioResult run_scenario(bool data_plane) {
  sim::Simulator simulator;
  grid::Grid grid(simulator, data_grid_config(/*data_gravity=*/data_plane));
  enactor::SimGridBackend backend(grid);
  data::ReplicaCatalog catalog;
  if (data_plane) backend.set_catalog(&catalog);

  services::ServiceRegistry registry;
  app::register_simulated_services(registry);

  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.cache = data_plane;
  enactor::Enactor moteur(backend, registry, policy);

  ScenarioResult out;
  out.makespan_pass1 = moteur
                           .run({.workflow = app::bronze_standard_workflow(),
                                 .inputs = app::bronze_standard_dataset(kPairs)})
                           .makespan();
  out.makespan_pass2 = moteur
                           .run({.workflow = app::bronze_standard_workflow(),
                                 .inputs = app::bronze_standard_dataset(kPairs)})
                           .makespan();
  out.submissions = backend.jobs_submitted();
  if (const data::InvocationCache* cache = moteur.invocation_cache()) {
    out.cache = cache->totals();
    out.cache_entries = cache->entry_count();
  }
  return out;
}

void print_scenario(const char* name, const ScenarioResult& r) {
  std::printf("  %-12s %11zu %12.0f %12.0f %12.0f %8zu %8zu\n", name, r.submissions,
              r.makespan_pass1, r.makespan_pass2, r.makespan_total(), r.cache.hits,
              r.cache.misses);
}

bool check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

void write_report(const ScenarioResult& blind, const ScenarioResult& plane,
                  double reduction, double speedup) {
  std::FILE* out = std::fopen("BENCH_datastore.json", "w");
  if (out == nullptr) {
    std::perror("BENCH_datastore.json");
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"workload\": \"bronze-standard x2\",\n");
  std::fprintf(out, "  \"pairs\": %zu,\n", kPairs);
  std::fprintf(out,
               "  \"blind\": {\"submissions\": %zu, \"makespan_pass1\": %.3f, "
               "\"makespan_pass2\": %.3f, \"makespan_total\": %.3f},\n",
               blind.submissions, blind.makespan_pass1, blind.makespan_pass2,
               blind.makespan_total());
  std::fprintf(out,
               "  \"data_plane\": {\"submissions\": %zu, \"makespan_pass1\": %.3f, "
               "\"makespan_pass2\": %.3f, \"makespan_total\": %.3f, "
               "\"cache_hits\": %zu, \"cache_misses\": %zu, \"cache_entries\": %zu},\n",
               plane.submissions, plane.makespan_pass1, plane.makespan_pass2,
               plane.makespan_total(), plane.cache.hits, plane.cache.misses,
               plane.cache_entries);
  std::fprintf(out, "  \"submission_reduction\": %.4f,\n", reduction);
  std::fprintf(out, "  \"makespan_speedup\": %.4f\n", speedup);
  std::fprintf(out, "}\n");
  std::fclose(out);
}

}  // namespace

int main() {
  std::puts("====================================================================");
  std::puts("E18: data plane (replica catalog + data-aware broker + invocation");
  std::puts("     cache) vs blind brokering, Bronze Standard enacted twice");
  std::puts("====================================================================");

  const ScenarioResult blind = run_scenario(false);
  const ScenarioResult plane = run_scenario(true);

  std::printf("  %-12s %11s %12s %12s %12s %8s %8s\n", "scenario", "submissions",
              "pass1 (s)", "pass2 (s)", "total (s)", "hits", "misses");
  print_scenario("blind", blind);
  print_scenario("data-plane", plane);
  std::puts("");

  const double reduction =
      1.0 - static_cast<double>(plane.submissions) / static_cast<double>(blind.submissions);
  const double speedup = blind.makespan_total() / plane.makespan_total();

  bool ok = true;
  ok &= check(reduction >= 0.30, ">=30% fewer grid submissions than the blind broker");
  ok &= check(plane.makespan_total() < blind.makespan_total(),
              "lower total makespan than the blind broker");
  ok &= check(plane.cache.hits > 0 && plane.makespan_pass2 < plane.makespan_pass1,
              "second pass served from the invocation cache");
  ok &= check(blind.cache.hits == 0 && blind.cache.misses == 0,
              "blind scenario never touches the cache");

  std::printf("\nsubmission reduction %.0f%%, total-makespan speed-up %.2fx\n",
              100.0 * reduction, speedup);
  write_report(blind, plane, reduction, speedup);
  return ok ? 0 : 1;
}
