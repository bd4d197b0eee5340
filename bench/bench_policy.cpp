// E21 (policy-engine extension) — A/B of the pluggable decision policies on
// a storage-skewed EGEE grid.
//
// Matchmaking: the Bronze Standard on three regional SEs with a stiff
// remote-transfer penalty, enacted once per built-in matchmaking policy
// selected purely through EnactmentPolicy::matchmaking (the per-run API).
// queue-rank runs blind (no stage-in estimator — the historical broker);
// data-gravity and locality-first bring up the replica catalog through
// wants_stage_in() and must beat the blind baseline on makespan; k-choices
// must be deterministic under the grid seed.
//
// Admission: two concurrent Bronze runs with skewed requested weights
// (8 vs 1) through one RunService and a tight submission gate, under the
// `weighted` policy (honor the request) vs `round-robin` (flatten to 1).
// Weighted must serve the heavy tenant no later than round-robin does, and
// round-robin must narrow the finish-time gap between the tenants.
//
// The measured numbers are written to BENCH_policy.json; the checks are the
// exit status.
#include <cstdio>
#include <string>
#include <vector>

#include "app/bronze_standard.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/enactor.hpp"
#include "enactor/run_request.hpp"
#include "enactor/sim_backend.hpp"
#include "grid/grid.hpp"
#include "service/run_service.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace moteur;

constexpr std::uint64_t kSeed = 20060619;
constexpr std::size_t kPairs = 48;
constexpr const char* kStorageElements[] = {"se-north", "se-south", "se-east"};

// EGEE 2006 sites spread across three regional SEs: an input replica on
// another region's SE costs the remote-transfer penalty, so where the
// matchmaker lands a job decides how much of the timeline is wire time.
grid::GridConfig skewed_grid_config(const std::string& matchmaking) {
  grid::GridConfig cfg = grid::GridConfig::egee2006(kSeed);
  for (const char* name : kStorageElements) {
    grid::StorageElementConfig se;
    se.name = name;
    se.transfer_latency_seconds = 2.0;
    se.transfer_bandwidth_mb_per_s = 4.0;
    cfg.storage_elements.push_back(se);
  }
  for (std::size_t i = 0; i < cfg.computing_elements.size(); ++i)
    cfg.computing_elements[i].close_storage_element = kStorageElements[i % 3];
  cfg.remote_transfer_penalty = 12.0;
  cfg.matchmaking_policy = matchmaking;
  return cfg;
}

struct MatchmakingResult {
  std::string policy;
  double makespan = 0.0;
  std::size_t submissions = 0;
  double staged_mb = 0.0;
  double remote_mb = 0.0;
};

MatchmakingResult run_matchmaking(const std::string& name) {
  sim::Simulator simulator;
  grid::Grid grid(simulator, skewed_grid_config(name));
  enactor::SimGridBackend backend(grid);
  // Every scenario stages through the same replica catalog so the staged /
  // remote byte accounting is comparable; only stage-in-aware policies get
  // the estimator, so queue-rank and k-choices still rank blind.
  data::ReplicaCatalog catalog;
  backend.set_catalog(&catalog);

  services::ServiceRegistry registry;
  app::register_simulated_services(registry);

  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.matchmaking = name;
  enactor::Enactor moteur(backend, registry, policy);

  MatchmakingResult out;
  out.policy = name;
  const enactor::EnactmentResult result =
      moteur.run({.workflow = app::bronze_standard_workflow(),
                  .inputs = app::bronze_standard_dataset(kPairs)});
  out.makespan = result.makespan();
  out.submissions = backend.jobs_submitted();
  for (const auto& trace : result.timeline.traces()) {
    if (!trace.job) continue;
    out.staged_mb += trace.job->staged_in_megabytes;
    out.remote_mb += trace.job->remote_input_megabytes;
  }
  return out;
}

struct AdmissionResult {
  std::string policy;
  double heavy_makespan = 0.0;
  double light_makespan = 0.0;
  std::size_t failures = 0;

  double gap() const {
    const double d = heavy_makespan - light_makespan;
    return d < 0.0 ? -d : d;
  }
};

// Two tenants race for a tight submission gate; only the admission policy
// differs between scenarios, so any heavy/light asymmetry is its doing.
AdmissionResult run_admission(const std::string& name) {
  sim::Simulator simulator;
  grid::Grid grid(simulator, skewed_grid_config("queue-rank"));
  enactor::SimGridBackend backend(grid);

  services::ServiceRegistry registry;
  app::register_simulated_services(registry);

  service::RunServiceConfig config;
  config.admission.max_active = 2;
  config.admission.max_inflight = 4;
  config.admission.policy = name;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  service::RunService runs(backend, registry, config);

  std::vector<enactor::RunRequest> requests(2);
  requests[0].name = "heavy";
  requests[0].workflow = app::bronze_standard_workflow();
  requests[0].inputs = app::bronze_standard_dataset(kPairs);
  requests[0].weight = 8;
  requests[1].name = "light";
  requests[1].workflow = app::bronze_standard_workflow();
  requests[1].inputs = app::bronze_standard_dataset(kPairs);
  requests[1].weight = 1;
  auto handles = runs.submit_all(std::move(requests));
  runs.wait_idle();

  AdmissionResult out;
  out.policy = name;
  for (auto& handle : handles) {
    const enactor::EnactmentResult* result = handle.try_result();
    if (result == nullptr) {
      out.failures += 1;
      continue;
    }
    out.failures += result->failures();
    (handle.id() == "heavy" ? out.heavy_makespan : out.light_makespan) =
        result->makespan();
  }
  return out;
}

bool check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

void write_report(const std::vector<MatchmakingResult>& matchmaking,
                  const AdmissionResult& weighted, const AdmissionResult& rr,
                  double gravity_speedup) {
  std::FILE* out = std::fopen("BENCH_policy.json", "w");
  if (out == nullptr) {
    std::perror("BENCH_policy.json");
    return;
  }
  std::fprintf(out, "{\n  \"workload\": \"bronze-standard on 3 regional SEs\",\n");
  std::fprintf(out, "  \"pairs\": %zu,\n  \"matchmaking\": {\n", kPairs);
  for (std::size_t i = 0; i < matchmaking.size(); ++i) {
    std::fprintf(out,
                 "    \"%s\": {\"makespan\": %.3f, \"submissions\": %zu, "
                 "\"staged_mb\": %.3f, \"remote_mb\": %.3f}%s\n",
                 matchmaking[i].policy.c_str(), matchmaking[i].makespan,
                 matchmaking[i].submissions, matchmaking[i].staged_mb,
                 matchmaking[i].remote_mb, i + 1 < matchmaking.size() ? "," : "");
  }
  std::fprintf(out, "  },\n  \"data_gravity_speedup\": %.4f,\n", gravity_speedup);
  const auto admission = [out](const char* key, const AdmissionResult& r,
                               const char* tail) {
    std::fprintf(out,
                 "    \"%s\": {\"heavy_makespan\": %.3f, \"light_makespan\": %.3f, "
                 "\"gap\": %.3f}%s\n",
                 key, r.heavy_makespan, r.light_makespan, r.gap(), tail);
  };
  std::fprintf(out, "  \"admission\": {\n");
  admission("weighted", weighted, ",");
  admission("round-robin", rr, "");
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
}

}  // namespace

int main() {
  std::puts("====================================================================");
  std::puts("E21: pluggable policies A/B — matchmaking on a storage-skewed grid,");
  std::puts("     weighted vs round-robin admission under a tight gate");
  std::puts("====================================================================");

  const std::vector<std::string> names = {"queue-rank", "data-gravity",
                                          "locality-first", "k-choices"};
  std::vector<MatchmakingResult> matchmaking;
  for (const auto& name : names) matchmaking.push_back(run_matchmaking(name));
  const MatchmakingResult k_again = run_matchmaking("k-choices");

  std::printf("  %-16s %12s %12s %11s %11s\n", "matchmaking", "makespan (s)",
              "submissions", "staged (MB)", "remote (MB)");
  for (const auto& r : matchmaking) {
    std::printf("  %-16s %12.0f %12zu %11.0f %11.0f\n", r.policy.c_str(),
                r.makespan, r.submissions, r.staged_mb, r.remote_mb);
  }
  std::puts("");

  const AdmissionResult weighted = run_admission("weighted");
  const AdmissionResult rr = run_admission("round-robin");
  std::printf("  %-16s %14s %14s %10s\n", "admission", "heavy (s)", "light (s)",
              "gap (s)");
  for (const auto& r : {weighted, rr}) {
    std::printf("  %-16s %14.0f %14.0f %10.0f\n", r.policy.c_str(),
                r.heavy_makespan, r.light_makespan, r.gap());
  }
  std::puts("");

  const MatchmakingResult& blind = matchmaking[0];
  const MatchmakingResult& gravity = matchmaking[1];
  const double gravity_speedup = blind.makespan / gravity.makespan;

  bool ok = true;
  ok &= check(gravity.makespan < blind.makespan,
              "data-gravity beats the blind queue-rank baseline on makespan");
  ok &= check(gravity.remote_mb < blind.remote_mb,
              "data-gravity moves fewer remote megabytes than the blind broker");
  ok &= check(matchmaking[3].makespan == k_again.makespan,
              "k-choices is deterministic under the grid seed");
  ok &= check(weighted.failures == 0 && rr.failures == 0,
              "both admission scenarios retire every run cleanly");
  ok &= check(weighted.heavy_makespan <= rr.heavy_makespan,
              "weighted admission serves the heavy tenant no later than round-robin");
  ok &= check(rr.gap() <= weighted.gap(),
              "round-robin narrows the heavy/light finish-time gap");

  std::printf("\ndata-gravity speed-up over blind queue-rank: %.2fx\n",
              gravity_speedup);
  write_report(matchmaking, weighted, rr, gravity_speedup);
  return ok ? 0 : 1;
}
