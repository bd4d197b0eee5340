// E20 (data-plane fault tolerance) — SE outages and replica loss on a
// three-SE EGEE grid: stage-in failover + lineage-driven recovery vs a
// recovery-off baseline.
//
// The workload is the Bronze Standard with the full data plane on (replica
// catalog, data-aware matchmaking, invocation cache). Faults are injected on
// the storage side: a grid-wide replica-loss probability models replicas
// silently disappearing, and one regional SE ("se-north") goes down
// mid-run. With recovery on, stage-in fails over to surviving replicas and
// files with no surviving replica are regenerated by re-firing their
// producer invocations; with --no-recovery semantics (lineage_recovery off)
// the same faults lose tuples for good.
//
// Acceptance (ISSUE 8): with one SE failing mid-run, failover + lineage
// recovery completes the run with the baseline's sink signatures while the
// recovery-off baseline loses tuples; the zero-fault path is identical with
// recovery on and off. Numbers land in BENCH_dataplane_faults.json.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "app/bronze_standard.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/enactor.hpp"
#include "enactor/run_request.hpp"
#include "enactor/sim_backend.hpp"
#include "grid/grid.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace moteur;

constexpr std::uint64_t kSeed = 20060619;
constexpr std::size_t kPairs = 32;
constexpr const char* kStorageElements[] = {"se-north", "se-south", "se-east"};

struct FaultPlan {
  double loss_probability = 0.0;
  // Downtime window for se-north; duration 0 = no outage.
  double outage_start = 0.0;
  double outage_duration = 0.0;
};

grid::GridConfig fault_grid_config(const FaultPlan& plan) {
  grid::GridConfig cfg = grid::GridConfig::egee2006(kSeed);
  for (const char* name : kStorageElements) {
    grid::StorageElementConfig se;
    se.name = name;
    se.transfer_latency_seconds = 2.0;
    se.transfer_bandwidth_mb_per_s = 10.0;
    if (plan.outage_duration > 0.0 && std::string(name) == "se-north") {
      se.outages.push_back(
          grid::StorageOutageWindow{plan.outage_start, plan.outage_duration});
    }
    cfg.storage_elements.push_back(se);
  }
  for (std::size_t i = 0; i < cfg.computing_elements.size(); ++i)
    cfg.computing_elements[i].close_storage_element = kStorageElements[i % 3];
  cfg.remote_transfer_penalty = 3.0;
  cfg.matchmaking_policy = "data-gravity";
  cfg.replica_loss_probability = plan.loss_probability;
  return cfg;
}

struct FaultResult {
  double makespan = 0.0;
  std::size_t submissions = 0;
  std::size_t failures = 0;      // tuples definitively lost
  std::size_t rederived = 0;     // files regenerated by lineage recovery
  std::size_t replica_faults = 0;
  std::size_t replica_failovers = 0;
  std::size_t data_lost_jobs = 0;
  std::size_t sink_tokens = 0;
  // Sorted provenance keys of the sink tokens. The Bronze Standard ends in a
  // synchronization barrier whose aggregate inputs carry no content digest,
  // so the provenance key — which encodes the full surviving lineage — is
  // the discriminating signature of what reached the sinks.
  std::vector<std::string> sink_signatures;
};

FaultResult run_scenario(const FaultPlan& plan, bool recovery) {
  sim::Simulator simulator;
  grid::Grid grid(simulator, fault_grid_config(plan));
  enactor::SimGridBackend backend(grid);
  data::ReplicaCatalog catalog;
  backend.set_catalog(&catalog);

  services::ServiceRegistry registry;
  app::register_simulated_services(registry);

  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.cache = true;
  policy.lineage_recovery = recovery;
  policy.failure_policy = enactor::FailurePolicy::kContinue;
  enactor::Enactor moteur(backend, registry, policy);

  const enactor::EnactmentResult result =
      moteur.run({.workflow = app::bronze_standard_workflow(),
                  .inputs = app::bronze_standard_dataset(kPairs)});

  FaultResult out;
  out.makespan = result.makespan();
  out.submissions = result.submissions();
  out.failures = result.failures();
  out.rederived = result.rederived();
  out.replica_faults = grid.stats().replica_faults;
  out.replica_failovers = grid.stats().replica_failovers;
  out.data_lost_jobs = grid.stats().data_lost_jobs;
  for (const auto& [sink, tokens] : result.sink_outputs) {
    out.sink_tokens += tokens.size();
    for (const auto& token : tokens) out.sink_signatures.push_back(token.id());
  }
  std::sort(out.sink_signatures.begin(), out.sink_signatures.end());
  return out;
}

void print_row(const char* name, const FaultResult& r) {
  std::printf("  %-22s %10.0f %7zu %7zu %8zu %9zu %9zu %6zu\n", name, r.makespan,
              r.submissions, r.failures, r.rederived, r.replica_faults,
              r.replica_failovers, r.sink_tokens);
}

bool check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  return ok;
}

void write_result(std::FILE* out, const char* key, const FaultResult& r,
                  const char* trailer) {
  std::fprintf(out,
               "    \"%s\": {\"makespan\": %.3f, \"submissions\": %zu, "
               "\"failures\": %zu, \"rederived\": %zu, \"replica_faults\": %zu, "
               "\"replica_failovers\": %zu, \"data_lost_jobs\": %zu, "
               "\"sink_tokens\": %zu}%s\n",
               key, r.makespan, r.submissions, r.failures, r.rederived,
               r.replica_faults, r.replica_failovers, r.data_lost_jobs,
               r.sink_tokens, trailer);
}

}  // namespace

int main() {
  std::puts("====================================================================");
  std::puts("E20: data-plane fault tolerance — SE outages and replica loss vs");
  std::puts("     stage-in failover + lineage-driven recovery (Bronze Standard)");
  std::puts("====================================================================");

  // Zero-fault reference: also pins the mid-run outage window to the
  // measured makespan (the SE fails at 30% of the run and stays down for
  // another 40% of it).
  const FaultPlan clean;
  const FaultResult baseline_on = run_scenario(clean, /*recovery=*/true);
  const FaultResult baseline_off = run_scenario(clean, /*recovery=*/false);

  FaultPlan outage;
  outage.loss_probability = 0.12;
  outage.outage_start = 0.30 * baseline_on.makespan;
  outage.outage_duration = 0.40 * baseline_on.makespan;
  const FaultResult faulty_on = run_scenario(outage, /*recovery=*/true);
  const FaultResult faulty_off = run_scenario(outage, /*recovery=*/false);

  std::printf("  %-22s %10s %7s %7s %8s %9s %9s %6s\n", "scenario", "makespan",
              "submits", "lost", "rederiv", "faults", "failover", "sinks");
  print_row("clean/recovery-on", baseline_on);
  print_row("clean/recovery-off", baseline_off);
  print_row("faulty/recovery-on", faulty_on);
  print_row("faulty/recovery-off", faulty_off);
  std::puts("");

  // Makespan vs replica-loss rate, recovery on and off.
  const double kLossRates[] = {0.05, 0.10, 0.20};
  std::vector<FaultPlan> sweep_plans;
  std::vector<FaultResult> sweep_on, sweep_off;
  for (const double rate : kLossRates) {
    FaultPlan plan;
    plan.loss_probability = rate;
    sweep_plans.push_back(plan);
    sweep_on.push_back(run_scenario(plan, true));
    sweep_off.push_back(run_scenario(plan, false));
    std::printf("  loss %.2f: recovery-on makespan %.0f (%zu re-derived, %zu lost), "
                "recovery-off makespan %.0f (%zu lost)\n",
                rate, sweep_on.back().makespan, sweep_on.back().rederived,
                sweep_on.back().failures, sweep_off.back().makespan,
                sweep_off.back().failures);
  }
  std::puts("");

  bool ok = true;
  ok &= check(baseline_on.makespan == baseline_off.makespan &&
                  baseline_on.submissions == baseline_off.submissions &&
                  baseline_on.sink_signatures == baseline_off.sink_signatures,
              "zero-fault path identical with recovery on and off");
  ok &= check(baseline_on.failures == 0 && baseline_on.sink_tokens > 0,
              "zero-fault reference run is clean");
  ok &= check(faulty_on.failures == 0 &&
                  faulty_on.sink_signatures == baseline_on.sink_signatures,
              "recovery-on completes the faulty run with the baseline sink signatures");
  ok &= check(faulty_on.rederived > 0,
              "lineage recovery actually re-derived lost files");
  ok &= check(faulty_on.replica_failovers > 0,
              "stage-in failed over to surviving replicas");
  // The Bronze Standard reduces into aggregate sinks, so lost tuples shrink
  // the aggregation instead of dropping sink tokens — compare digests.
  ok &= check(faulty_off.failures > 0 &&
                  faulty_off.sink_signatures != baseline_on.sink_signatures,
              "recovery-off baseline loses tuples under the same faults");

  std::FILE* out = std::fopen("BENCH_dataplane_faults.json", "w");
  if (out == nullptr) {
    std::perror("BENCH_dataplane_faults.json");
    return 1;
  }
  std::fprintf(out, "{\n  \"workload\": \"bronze-standard\",\n  \"pairs\": %zu,\n",
               kPairs);
  std::fprintf(out, "  \"outage\": {\"se\": \"se-north\", \"start\": %.3f, "
                    "\"duration\": %.3f, \"loss_probability\": %.3f},\n",
               outage.outage_start, outage.outage_duration, outage.loss_probability);
  std::fprintf(out, "  \"scenarios\": {\n");
  write_result(out, "clean_recovery_on", baseline_on, ",");
  write_result(out, "clean_recovery_off", baseline_off, ",");
  write_result(out, "faulty_recovery_on", faulty_on, ",");
  write_result(out, "faulty_recovery_off", faulty_off, "");
  std::fprintf(out, "  },\n  \"loss_sweep\": [\n");
  for (std::size_t i = 0; i < sweep_plans.size(); ++i) {
    std::fprintf(out, "    {\"loss_probability\": %.3f,\n", sweep_plans[i].loss_probability);
    write_result(out, "recovery_on", sweep_on[i], ",");
    write_result(out, "recovery_off", sweep_off[i], "");
    std::fprintf(out, "    }%s\n", i + 1 < sweep_plans.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::puts("report written to BENCH_dataplane_faults.json");
  return ok ? 0 : 1;
}
