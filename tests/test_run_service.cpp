// Multi-tenant RunService: concurrent runs over one shared backend, fault
// isolation between tenants, fair-share admission, cancellation mid-run,
// runs that settle beside a held tenant, and the threaded backend under
// real concurrency (run under TSan by the tsan-enactor preset).
#include <gtest/gtest.h>

#include <any>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/bronze_standard.hpp"
#include "data/dataset.hpp"
#include "data/provenance_xml.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/enactor.hpp"
#include "enactor/manifest.hpp"
#include "enactor/run_request.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/threaded_backend.hpp"
#include "failing_site_grid.hpp"
#include "grid/grid.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "service/run_service.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "test_workflows.hpp"
#include "util/error.hpp"
#include "workflow/patterns.hpp"

namespace moteur::service {
namespace {

using services::FunctionalService;
using services::Inputs;
using services::JobProfile;
using services::Result;

data::InputDataSet items(const std::string& source, std::size_t count) {
  data::InputDataSet ds;
  ds.declare_input(source);
  for (std::size_t j = 0; j < count; ++j) {
    ds.add_item(source, "item" + std::to_string(j));
  }
  return ds;
}

// A linear chain whose processors all carry `prefix` in their names, so a
// failure report entry can be attributed to exactly one tenant.
workflow::Workflow prefixed_chain(const std::string& prefix, std::size_t stages) {
  workflow::Workflow wf(prefix);
  wf.add_source("src");
  std::string prev = "src";
  for (std::size_t i = 0; i < stages; ++i) {
    const std::string name = prefix + "-p" + std::to_string(i);
    wf.add_processor(name, {"in"}, {"out"});
    wf.link(prev, "out", name, "in");
    prev = name;
  }
  wf.add_sink("sink");
  wf.link(prev, "out", "sink", "in");
  return wf;
}

enactor::RunRequest make_request(const std::string& name,
                                 const workflow::Workflow& wf,
                                 std::size_t count) {
  enactor::RunRequest request;
  request.name = name;
  request.workflow = wf;
  request.inputs = items("src", count);
  return request;
}

// ---------------------------------------------------------------------------
// Simulated backend: determinism, isolation, fair share
// ---------------------------------------------------------------------------

struct ServiceRig {
  sim::Simulator simulator;
  grid::Grid grid;
  enactor::SimGridBackend backend;
  services::ServiceRegistry registry;

  explicit ServiceRig(grid::GridConfig config)
      : grid(simulator, config), backend(grid) {}

  void add_prefixed_chain(const std::string& prefix, std::size_t stages,
                          double compute_seconds) {
    for (std::size_t i = 0; i < stages; ++i) {
      registry.add(services::make_simulated_service(
          prefix + "-p" + std::to_string(i), {"in"}, {"out"},
          JobProfile{compute_seconds}));
    }
  }
};

TEST(RunService, ConcurrentRunsProduceIsolatedResults) {
  grid::GridConfig cfg = grid::GridConfig::constant(5.0, 4096, 17);
  cfg.failure_probability = 0.35;
  cfg.max_attempts = 1;  // every grid-level failure is visible to the enactor
  ServiceRig rig(cfg);
  for (const char* prefix : {"alpha", "beta", "gamma"}) {
    rig.add_prefixed_chain(prefix, 2, 20.0);
  }

  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.retry = enactor::RetryPolicy::resubmit(2);
  policy.failure_policy = enactor::FailurePolicy::kContinue;

  RunServiceConfig config;
  config.admission.max_active = 3;
  config.admission.max_inflight = 6;
  config.defaults.policy = policy;
  RunService service(rig.backend, rig.registry, config);

  std::vector<enactor::RunRequest> requests;
  for (const char* prefix : {"alpha", "beta", "gamma"}) {
    requests.push_back(make_request(prefix, prefixed_chain(prefix, 2), 10));
  }
  auto handles = service.submit_all(std::move(requests));
  ASSERT_EQ(handles.size(), 3u);

  std::size_t total_failures = 0;
  for (auto& handle : handles) {
    EXPECT_EQ(handle.wait(), RunState::kFinished) << handle.id();
    const auto& result = handle.result();
    EXPECT_EQ(result.run_id, handle.id());
    // Continue-policy accounting: every source item either reached the sink
    // or is accounted for in this run's own failure report.
    const auto sink = result.sink_outputs.find("sink");
    const std::size_t delivered =
        sink == result.sink_outputs.end() ? 0 : sink->second.size();
    std::size_t poisoned = 0;
    for (const auto& [_, count] : result.failure_report.poisoned_at_sink) {
      poisoned += count;
    }
    EXPECT_EQ(delivered + poisoned, 10u) << handle.id();
    total_failures += result.failures() + result.skipped();
    // Isolation: the report references only this tenant's processors.
    const std::string prefix = handle.id() + "-";
    for (const auto& lost : result.failure_report.lost) {
      EXPECT_EQ(lost.processor.rfind(prefix, 0), 0u) << lost.processor;
    }
    for (const auto& skipped : result.failure_report.skipped) {
      EXPECT_EQ(skipped.processor.rfind(prefix, 0), 0u) << skipped.processor;
      EXPECT_EQ(skipped.origin_processor.rfind(prefix, 0), 0u)
          << skipped.origin_processor;
    }
  }
  // The injected fault rate makes losses overwhelmingly likely; if the seed
  // ever yields a clean triple run the isolation assertions are vacuous, so
  // pin the expectation here.
  EXPECT_GT(total_failures, 0u);
  service.wait_idle();
}

TEST(RunService, FairShareKeepsSmallRunResponsive) {
  const auto make_rig = [] {
    auto rig = std::make_unique<ServiceRig>(grid::GridConfig::constant(0.0));
    rig->add_prefixed_chain("big", 1, 10.0);
    rig->add_prefixed_chain("small", 1, 10.0);
    return rig;
  };
  RunServiceConfig config;
  config.admission.max_active = 2;
  config.admission.max_inflight = 4;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();

  // Baseline: the small run alone on an identical rig.
  double solo = 0.0;
  {
    auto rig = make_rig();
    RunService service(rig->backend, rig->registry, config);
    auto handle =
        service.submit(make_request("small", prefixed_chain("small", 1), 12));
    ASSERT_EQ(handle.wait(), RunState::kFinished);
    solo = handle.result().makespan();
  }
  ASSERT_GT(solo, 0.0);

  // Contended: a 126-item run and a 12-item run sharing the 4-slot gate.
  auto rig = make_rig();
  RunService service(rig->backend, rig->registry, config);
  std::vector<enactor::RunRequest> requests;
  requests.push_back(make_request("big", prefixed_chain("big", 1), 126));
  requests.push_back(make_request("small", prefixed_chain("small", 1), 12));
  auto handles = service.submit_all(std::move(requests));
  ASSERT_EQ(handles[0].wait(), RunState::kFinished);
  ASSERT_EQ(handles[1].wait(), RunState::kFinished);
  const double big = handles[0].result().makespan();
  const double small = handles[1].result().makespan();

  // Weighted round-robin splits the gate evenly while both runs have queued
  // work, so the small run finishes at ~2x its solo makespan — FIFO
  // admission would have it wait for most of the big run's 126 submissions.
  // One 10 s wave of slack: the first tenant's engine fills every slot
  // before the second tenant's submissions reach the gate.
  EXPECT_LE(small, 2.0 * solo + 10.0 + 1e-9);
  EXPECT_LT(small, 0.5 * big);
  service.wait_idle();
}

TEST(RunService, WeightTiltsAdmissionTowardHeavyTenant) {
  auto rig = std::make_unique<ServiceRig>(grid::GridConfig::constant(0.0));
  rig->add_prefixed_chain("gold", 1, 10.0);
  rig->add_prefixed_chain("econ", 1, 10.0);

  RunServiceConfig config;
  config.admission.max_active = 2;
  config.admission.max_inflight = 4;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  RunService service(rig->backend, rig->registry, config);

  auto gold = make_request("gold", prefixed_chain("gold", 1), 48);
  gold.weight = 3;  // 3 grants per round-robin visit
  auto econ = make_request("econ", prefixed_chain("econ", 1), 48);
  std::vector<enactor::RunRequest> requests;
  requests.push_back(std::move(gold));
  requests.push_back(std::move(econ));
  auto handles = service.submit_all(std::move(requests));
  ASSERT_EQ(handles[0].wait(), RunState::kFinished);
  ASSERT_EQ(handles[1].wait(), RunState::kFinished);
  // Equal demand, 3:1 weights: the gold tenant clears its queue first.
  EXPECT_LT(handles[0].result().makespan(), handles[1].result().makespan());
  service.wait_idle();
}

TEST(RunService, SubmitAssignsUniqueIds) {
  ServiceRig rig(grid::GridConfig::constant(0.0));
  rig.add_prefixed_chain("dup", 1, 1.0);
  RunService service(rig.backend, rig.registry);

  const auto wf = prefixed_chain("dup", 1);
  std::vector<enactor::RunRequest> requests;
  requests.push_back(make_request("", wf, 1));     // no name: generated id
  requests.push_back(make_request("dup", wf, 1));  // name free: kept
  requests.push_back(make_request("dup", wf, 1));  // name taken: generated
  auto handles = service.submit_all(std::move(requests));

  EXPECT_FALSE(handles[0].id().empty());
  EXPECT_EQ(handles[1].id(), "dup");
  EXPECT_NE(handles[2].id(), "dup");
  EXPECT_NE(handles[0].id(), handles[2].id());
  for (auto& handle : handles) {
    EXPECT_EQ(handle.wait(), RunState::kFinished);
  }
  service.wait_idle();
}

TEST(RunService, RecorderSeparatesConcurrentRuns) {
  ServiceRig rig(grid::GridConfig::constant(2.0));
  rig.add_prefixed_chain("left", 1, 10.0);
  rig.add_prefixed_chain("right", 1, 10.0);

  obs::RunRecorder recorder;
  RunServiceConfig config;
  config.admission.max_active = 2;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  RunService service(rig.backend, rig.registry, config);
  service.set_recorder(&recorder);

  std::vector<enactor::RunRequest> requests;
  requests.push_back(make_request("left", prefixed_chain("left", 1), 4));
  requests.push_back(make_request("right", prefixed_chain("right", 1), 4));
  auto handles = service.submit_all(std::move(requests));
  for (auto& handle : handles) {
    ASSERT_EQ(handle.wait(), RunState::kFinished);
  }
  service.wait_idle();

  // Every span closed despite the interleaving, and each run kept its own
  // root span.
  EXPECT_EQ(recorder.tracer().open_count(), 0u);
  std::vector<std::string> run_roots;
  for (const auto& span : recorder.tracer().spans()) {
    if (span.category == "run") run_roots.push_back(span.name);
  }
  ASSERT_EQ(run_roots.size(), 2u);
  EXPECT_NE(run_roots[0], run_roots[1]);

  // The Chrome trace gives each run its own process lane.
  const std::string trace = obs::chrome_trace_json(recorder.tracer());
  EXPECT_NE(trace.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(trace.find("\"pid\":2"), std::string::npos);

  // Per-run metric series exist alongside the service-wide ones.
  const std::string prom = obs::prometheus_text(recorder.metrics());
  EXPECT_NE(prom.find("moteur_run_invocations_total{run=\"left\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("moteur_run_invocations_total{run=\"right\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("moteur_service_runs_total"), std::string::npos);
}

TEST(RunService, QueuedRunCancelledBeforeStart) {
  // The front run's service blocks on a latch, pinning it in kRunning while
  // the queued run is cancelled — with admission.max_active = 1 the back run
  // deterministically never starts.
  enactor::ThreadedBackend backend(2);
  services::ServiceRegistry registry;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  registry.add(std::make_shared<FunctionalService>(
      "front-p0", std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
      [released](const Inputs&) {
        released.wait();
        Result r;
        r.outputs["out"] = services::OutputValue{1, "x"};
        return r;
      }));
  registry.add(std::make_shared<FunctionalService>(
      "back-p0", std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
      [](const Inputs&) {
        Result r;
        r.outputs["out"] = services::OutputValue{1, "x"};
        return r;
      }));

  RunServiceConfig config;
  config.admission.max_active = 1;  // the second run must queue
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  RunService service(backend, registry, config);

  std::vector<enactor::RunRequest> requests;
  requests.push_back(make_request("front", prefixed_chain("front", 1), 4));
  requests.push_back(make_request("back", prefixed_chain("back", 1), 4));
  auto handles = service.submit_all(std::move(requests));

  while (handles[0].poll() == RunState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(handles[1].poll(), RunState::kQueued);
  handles[1].cancel();
  release.set_value();

  EXPECT_EQ(handles[0].wait(), RunState::kFinished);
  EXPECT_EQ(handles[1].wait(), RunState::kCancelled);
  // Never started: no partial outputs, no invocations.
  EXPECT_EQ(handles[1].result().invocations(), 0u);
  EXPECT_TRUE(handles[1].result().sink_outputs.empty());
  service.wait_idle();
}

TEST(RunService, UnknownRunPolicyNamesFailOnlyTheirRun) {
  ServiceRig rig(grid::GridConfig::constant(0.0));
  for (const char* prefix : {"good", "matchmaking", "placement", "later"}) {
    rig.add_prefixed_chain(prefix, 1, 1.0);
  }
  RunServiceConfig config;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  RunService service(rig.backend, rig.registry, config);

  std::vector<enactor::RunRequest> requests;
  requests.push_back(make_request("good", prefixed_chain("good", 1), 3));
  // Each bad run is named after the field it misspells.
  for (const auto& [field, name] :
       {std::pair{"matchmaking", &enactor::EnactmentPolicy::matchmaking},
        std::pair{"placement", &enactor::EnactmentPolicy::placement}}) {
    enactor::RunRequest request = make_request(field, prefixed_chain(field, 1), 3);
    enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
    policy.*name = "bogus";
    request.policy = policy;
    requests.push_back(std::move(request));
  }
  auto handles = service.submit_all(std::move(requests));
  for (std::size_t i = 1; i < handles.size(); ++i) {
    EXPECT_EQ(handles[i].wait(), RunState::kFailed) << handles[i].id();
    const std::string& error = handles[i].error();
    EXPECT_NE(error.find("run " + handles[i].id() + " policy"), std::string::npos) << error;
    EXPECT_NE(error.find("'bogus'"), std::string::npos) << error;
  }
  EXPECT_EQ(handles[0].wait(), RunState::kFinished);
  EXPECT_EQ(handles[0].result().sink_outputs.at("sink").size(), 3u);
  // The shard that refused them keeps serving.
  RunHandle later = service.submit(make_request("later", prefixed_chain("later", 1), 2));
  EXPECT_EQ(later.wait(), RunState::kFinished);
  service.wait_idle();
}

TEST(RunService, UnknownServiceAdmissionPolicyThrowsFromTheConstructor) {
  RunServiceConfig config;
  config.admission.policy = "bogus";
  ServiceRig rig(grid::GridConfig::constant(0.0));
  try {
    RunService service(rig.backend, rig.registry, config);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("service admission policy"), std::string::npos) << what;
    EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
  }
  // Sharded: the shards built before the refusal are torn down cleanly.
  enactor::ThreadedBackend backend(2);
  services::ServiceRegistry registry;
  config.sharding.shards = 2;
  EXPECT_THROW(RunService(backend, registry, config), ParseError);
}

TEST(RunService, RejectsSubmissionsAfterShutdown) {
  ServiceRig rig(grid::GridConfig::constant(0.0));
  rig.add_prefixed_chain("w", 1, 1.0);
  RunService service(rig.backend, rig.registry);
  service.shutdown();
  EXPECT_THROW(service.submit(make_request("w", prefixed_chain("w", 1), 1)),
               ExecutionError);
}

/// One Bronze Standard run on a fresh `config` grid, enacted alone through
/// an Enactor (which owns each run's breaker ledger) and through a one-shard
/// service with the gate off (whose ledger is shared): both results.
std::pair<enactor::EnactmentResult, enactor::EnactmentResult> bronze_alone_and_in_service(
    const grid::GridConfig& config, const enactor::EnactmentPolicy& policy) {
  enactor::RunRequest request;
  request.name = "bronze";
  request.workflow = app::bronze_standard_workflow();
  request.inputs = app::bronze_standard_dataset(12);
  const bool data_plane = enactor::needs_replica_catalog(config, policy);

  ServiceRig alone(config);
  app::register_simulated_services(alone.registry);
  data::ReplicaCatalog alone_catalog;
  if (data_plane) alone.backend.set_catalog(&alone_catalog);
  enactor::EnactmentResult expected =
      enactor::Enactor(alone.backend, alone.registry, policy).run(request);

  ServiceRig shared(config);
  app::register_simulated_services(shared.registry);
  data::ReplicaCatalog shared_catalog;
  if (data_plane) shared.backend.set_catalog(&shared_catalog);
  RunServiceConfig service_config;
  service_config.admission.max_inflight = 0;
  service_config.defaults.policy = policy;
  RunService service(shared.backend, shared.registry, service_config);
  const RunHandle handle = service.submit(std::move(request));
  EXPECT_EQ(handle.wait(), RunState::kFinished);
  return {std::move(expected), handle.result()};
}

TEST(RunService, SharedBreakerTransitionsReachTheRunTimeline) {
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp_jg();
  policy.retry.max_attempts = 2;
  policy.failure_policy = enactor::FailurePolicy::kContinue;
  policy.breaker = grid::BreakerPolicy{true, 6, 3, 3600.0};
  grid::GridConfig config = grid::GridConfig::egee2006();
  config.failure_probability = 0.35;
  config.max_attempts = 1;
  const auto [alone, in_service] = bronze_alone_and_in_service(config, policy);

  const auto& want = alone.timeline.breaker_transitions();
  const auto& got = in_service.timeline.breaker_transitions();
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].time, want[i].time) << i;
    EXPECT_EQ(got[i].computing_element, want[i].computing_element) << i;
    EXPECT_EQ(got[i].from, want[i].from) << i;
    EXPECT_EQ(got[i].to, want[i].to) << i;
    EXPECT_EQ(got[i].failures_in_window, want[i].failures_in_window) << i;
  }
}

TEST(RunService, LineageRecoveryReachesTheReplicaCatalog) {
  // Replica loss plus an se0 outage: lineage recovery re-derives the lost
  // files, inside the service as alone.
  grid::GridConfig config = grid::GridConfig::egee2006();
  config.replica_loss_probability = 0.1;
  config.default_se_outages.push_back({2000.0, 1500.0});
  const auto [alone, in_service] =
      bronze_alone_and_in_service(config, enactor::EnactmentPolicy::sp_dp_jg());
  ASSERT_GT(alone.rederived(), 0u);
  EXPECT_EQ(alone.failures(), 0u);
  EXPECT_EQ(in_service.failures(), 0u);
  EXPECT_EQ(in_service.rederived(), alone.rederived());
  EXPECT_EQ(data::export_provenance(in_service.sink_outputs),
            data::export_provenance(alone.sink_outputs));
}

TEST(RunService, BackendTransferEventsReachSubscribersAndTheRecorder) {
  // A 3-SE grid that pushes outputs to their consumers' SEs: the simulated
  // backend reports each SE-to-SE transfer to the service's event stream,
  // outside any run.
  constexpr const char* kStorageElements[] = {"se-north", "se-south", "se-east"};
  grid::GridConfig config = grid::GridConfig::egee2006(20060619);
  for (const char* name : kStorageElements) {
    grid::StorageElementConfig se;
    se.name = name;
    se.transfer_latency_seconds = 2.0;
    se.transfer_bandwidth_mb_per_s = 10.0;
    config.storage_elements.push_back(se);
  }
  for (std::size_t i = 0; i < config.computing_elements.size(); ++i) {
    config.computing_elements[i].close_storage_element = kStorageElements[i % 3];
  }
  config.remote_transfer_penalty = 3.0;
  config.replication_policy = "push-to-consumer";
  ServiceRig rig(config);
  app::register_simulated_services(rig.registry);
  data::ReplicaCatalog catalog;
  rig.backend.set_catalog(&catalog);

  RunService service(rig.backend, rig.registry, RunServiceConfig{});
  std::mutex mu;
  std::size_t started = 0;
  std::size_t done = 0;
  std::vector<std::string> run_ids;  // of the transfer events
  service.add_event_subscriber([&](const obs::RunEvent& event) {
    if (event.kind != obs::RunEvent::Kind::kTransferStarted &&
        event.kind != obs::RunEvent::Kind::kTransferDone) {
      return;
    }
    std::lock_guard<std::mutex> lock(mu);
    ++(event.kind == obs::RunEvent::Kind::kTransferStarted ? started : done);
    run_ids.push_back(event.run_id);
  });
  obs::RunRecorder recorder;
  service.set_recorder(&recorder);

  enactor::RunRequest request;
  request.name = "bronze";
  request.workflow = app::bronze_standard_workflow();
  request.inputs = app::bronze_standard_dataset(4);
  const RunHandle handle = service.submit(std::move(request));
  ASSERT_EQ(handle.wait(), RunState::kFinished);
  service.shutdown();  // the shard is joined: the grid and the recorder are quiet

  const grid::Grid::Stats& stats = rig.grid.stats();
  ASSERT_GT(stats.transfers_completed, 0u);
  EXPECT_EQ(started, stats.transfers_started);
  EXPECT_EQ(done, stats.transfers_completed);
  for (const std::string& id : run_ids) EXPECT_EQ(id, "");
  const auto counter = [&](const std::string& name) {
    const obs::MetricsRegistry::Family* family = recorder.metrics().find(name);
    if (family == nullptr) return 0.0;
    const auto it = family->series.find(obs::Labels{});
    return it == family->series.end() ? 0.0 : it->second.counter->value();
  };
  EXPECT_EQ(counter("moteur_transfer_started_total"), stats.transfers_started);
  EXPECT_EQ(counter("moteur_transfer_done_total"), stats.transfers_completed);
}

// ---------------------------------------------------------------------------
// Threaded backend: real concurrency (TSan target)
// ---------------------------------------------------------------------------

std::shared_ptr<FunctionalService> sleeping_service(const std::string& name,
                                                    std::chrono::milliseconds nap) {
  return std::make_shared<FunctionalService>(
      name, std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
      [nap](const Inputs&) {
        std::this_thread::sleep_for(nap);
        Result r;
        r.outputs["out"] = services::OutputValue{1, "x"};
        return r;
      });
}

TEST(RunService, DetachesItsBreakerLedgerWhenDestroyed) {
  // The service's shared ledger dies with the service; a run enacted on the
  // backend afterwards must not route through it.
  sim::Simulator simulator;
  grid::Grid grid(simulator, grid::GridConfig::constant(0.0));
  testkit::LedgerCountingBackend backend(grid);
  services::ServiceRegistry registry;
  registry.add(sleeping_service("w-p0", std::chrono::milliseconds(0)));
  enactor::EnactmentPolicy policy = enactor::EnactmentPolicy::sp_dp();
  policy.breaker.enabled = true;
  {
    RunServiceConfig config;
    config.defaults.policy = policy;
    RunService service(backend, registry, config);
    EXPECT_EQ(service.submit(make_request("w", prefixed_chain("w", 1), 1)).wait(),
              RunState::kFinished);
    service.shutdown();
  }
  EXPECT_EQ(backend.added, 1);
  EXPECT_EQ(backend.removed, 1);
  enactor::Enactor enactor(backend, registry, policy);
  const enactor::EnactmentResult result =
      enactor.run(make_request("w", prefixed_chain("w", 1), 2));
  EXPECT_EQ(result.sink_outputs.at("sink").size(), 2u);
  EXPECT_EQ(backend.added, backend.removed);
}

TEST(RunService, ThreadedBackendInterleavesRunsAndTagsEvents) {
  enactor::ThreadedBackend backend(4);
  services::ServiceRegistry registry;
  for (const char* prefix : {"r1", "r2", "r3"}) {
    registry.add(sleeping_service(std::string(prefix) + "-p0",
                                  std::chrono::milliseconds(2)));
  }

  RunServiceConfig config;
  config.admission.max_active = 3;
  config.admission.max_inflight = 8;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  RunService service(backend, registry, config);

  // Subscribers run on the worker thread; reads below happen after
  // wait_idle(), whose mutex hand-off orders them after the writes.
  std::map<std::string, int> started, finished;
  service.add_event_subscriber([&](const obs::RunEvent& event) {
    if (event.kind == obs::RunEvent::Kind::kRunStarted) ++started[event.run_id];
    if (event.kind == obs::RunEvent::Kind::kRunFinished) ++finished[event.run_id];
  });

  std::vector<enactor::RunRequest> requests;
  for (const char* prefix : {"r1", "r2", "r3"}) {
    requests.push_back(make_request(prefix, prefixed_chain(prefix, 1), 8));
  }
  auto handles = service.submit_all(std::move(requests));

  // Poll from this thread while the worker races: exercises the handle's
  // cross-thread state access under TSan.
  bool all_done = false;
  while (!all_done) {
    all_done = true;
    for (auto& handle : handles) {
      if (!is_terminal(handle.poll())) all_done = false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.wait_idle();

  for (auto& handle : handles) {
    EXPECT_EQ(handle.wait(), RunState::kFinished);
    EXPECT_EQ(handle.result().sink_outputs.at("sink").size(), 8u);
    EXPECT_EQ(started[handle.id()], 1) << handle.id();
    EXPECT_EQ(finished[handle.id()], 1) << handle.id();
  }
}

/// A 40-item victim run and a 10-item bystander share a 2-worker threaded
/// backend; the victim is cancelled mid-run. `config` sets the gate.
void expect_cancellation_drains_to_partial_result(RunServiceConfig config) {
  enactor::ThreadedBackend backend(2);
  services::ServiceRegistry registry;
  registry.add(sleeping_service("victim-p0", std::chrono::milliseconds(20)));
  registry.add(sleeping_service("bystander-p0", std::chrono::milliseconds(1)));

  config.admission.max_active = 2;
  RunService service(backend, registry, config);

  std::vector<enactor::RunRequest> requests;
  requests.push_back(make_request("victim", prefixed_chain("victim", 1), 40));
  requests.push_back(make_request("bystander", prefixed_chain("bystander", 1), 10));
  auto handles = service.submit_all(std::move(requests));

  // Let the victim make some progress, then pull the plug.
  while (handles[0].poll() == RunState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  handles[0].cancel();
  handles[0].cancel();  // idempotent

  EXPECT_EQ(handles[0].wait(), RunState::kCancelled);
  EXPECT_EQ(handles[1].wait(), RunState::kFinished);
  service.wait_idle();

  // The cancelled run drained to a partial result: it did not complete all
  // 40 items, and its gated submissions failed definitively.
  const auto& partial = handles[0].result();
  EXPECT_EQ(partial.run_id, "victim");
  EXPECT_LT(partial.invocations(), 40u);
  EXPECT_GT(partial.failures(), 0u);

  // The sibling run was untouched.
  EXPECT_EQ(handles[1].result().sink_outputs.at("sink").size(), 10u);
  EXPECT_EQ(handles[1].result().failures(), 0u);
}

TEST(RunService, CancellationMidRunDrainsToPartialResult) {
  RunServiceConfig config;
  config.admission.max_inflight = 2;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  expect_cancellation_drains_to_partial_result(config);
}

TEST(RunService, CancellationMidRunWithTheGateOff) {
  RunServiceConfig config;
  config.admission.max_inflight = 0;  // submissions go straight to the backend
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  // Two invocations in flight per service: the victim still submits after
  // the cancel, and its gated backend must fail those submissions itself.
  config.defaults.policy.data_parallelism_cap = 2;
  expect_cancellation_drains_to_partial_result(config);
}

TEST(RunService, ShutdownCancelsEverythingAndJoins) {
  enactor::ThreadedBackend backend(2);
  services::ServiceRegistry registry;
  registry.add(sleeping_service("s-p0", std::chrono::milliseconds(10)));

  auto service = std::make_unique<RunService>(backend, registry);
  std::vector<enactor::RunRequest> requests;
  for (int i = 0; i < 3; ++i) {
    requests.push_back(make_request("", prefixed_chain("s", 1), 20));
  }
  auto handles = service->submit_all(std::move(requests));
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  service.reset();  // destructor calls shutdown()

  // Handles outlive the service and report a terminal state.
  for (auto& handle : handles) {
    EXPECT_TRUE(is_terminal(handle.poll())) << handle.id();
  }
}

TEST(RunService, FinishedRunsAreReleased) {
  // Every run's resolver captures `probe`, and so does each token it
  // resolves: a run the service kept would hold 17 references to it.
  const auto probe = std::make_shared<int>(0);
  enactor::ThreadedBackend backend(2);
  services::ServiceRegistry registry;
  registry.add(std::make_shared<FunctionalService>(
      "f-p0", std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
      [](const Inputs& inputs) {
        Result result;
        result.outputs["out"].payload = inputs.begin()->second.payload();
        result.outputs["out"].repr = "x";
        return result;
      }));
  RunService service(backend, registry);
  for (int i = 0; i < 50; ++i) {
    enactor::RunRequest request = make_request("", prefixed_chain("f", 1), 16);
    request.resolver = [probe](const std::string&, std::size_t,
                               const std::string&) -> std::any { return probe; };
    service.submit(std::move(request));  // the handle is dropped at once
  }
  service.wait_idle();
  // A pool worker drops its task, and the input tokens bound to it, just
  // after it hands the completion over: give the last one a moment.
  for (int i = 0; i < 2000 && probe.use_count() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(probe.use_count(), 1);
}

/// Holds every invocation of the services it makes until release(), which
/// its destructor calls at the latest. Declared after the RunService, it
/// frees a blocked worker on every path, failed assertions included, before
/// the service shuts down and waits for that worker.
class Hold {
 public:
  ~Hold() { release(); }

  void release() {
    if (released_) return;
    released_ = true;
    promise_.set_value();
  }

  /// A one-port service whose every invocation waits for release().
  std::shared_ptr<services::Service> service(const std::string& id) const {
    return std::make_shared<FunctionalService>(
        id, std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
        [future = future_](const Inputs&) {
          future.wait();
          Result r;
          r.outputs["out"] = services::OutputValue{1, "x"};
          return r;
        });
  }

 private:
  std::promise<void> promise_;
  std::shared_future<void> future_ = promise_.get_future().share();
  bool released_ = false;
};

/// The optimization loop of Figure 2 over `count` items.
enactor::RunRequest loop_request(std::size_t count) {
  enactor::RunRequest request;
  request.name = "loop";
  request.workflow = workflow::make_optimization_loop();
  request.inputs = items("Source", count);
  return request;
}

TEST(RunService, LoopRunFinishesBesideAHeldRun) {
  // One shard holds a run whose only job is blocked. The loop beside it
  // closes on its own run's state, not once the shard runs out of work.
  enactor::ThreadedBackend backend(2);
  services::ServiceRegistry registry;
  testkit::add_loop_services(registry);
  RunService service(backend, registry);
  Hold hold;
  registry.add(hold.service("held-p0"));
  const RunHandle held = service.submit(make_request("held", prefixed_chain("held", 1), 1));
  const RunHandle loop = service.submit(loop_request(2));

  ASSERT_EQ(loop.wait_for(std::chrono::seconds(5)), RunState::kFinished);
  EXPECT_EQ(held.poll(), RunState::kRunning);
  ASSERT_EQ(loop.result().sink_outputs.at("Sink").size(), 2u);
  for (const auto& token : loop.result().sink_outputs.at("Sink")) {
    EXPECT_EQ(token.as<int>(), 2);
  }
}

TEST(RunService, BatchedLoopFinishesBesideAHeldRun) {
  // With a batch of 2 and one item, the loop head holds a partial batch
  // that nothing else can fill. It fires it once nothing of its loop is in
  // flight and P1 has finished, on its own run's state, while the held run
  // beside it still runs.
  enactor::ThreadedBackend backend(2);
  services::ServiceRegistry registry;
  testkit::add_loop_services(registry);
  RunService service(backend, registry);
  Hold hold;
  registry.add(hold.service("held-p0"));
  const RunHandle held = service.submit(make_request("held", prefixed_chain("held", 1), 1));
  enactor::RunRequest request = loop_request(1);
  request.policy = enactor::EnactmentPolicy::sp_dp();
  request.policy->batch_size = 2;
  const RunHandle loop = service.submit(std::move(request));

  ASSERT_EQ(loop.wait_for(std::chrono::seconds(5)), RunState::kFinished);
  EXPECT_EQ(held.poll(), RunState::kRunning);
  ASSERT_EQ(loop.result().sink_outputs.at("Sink").size(), 1u);
  EXPECT_EQ(loop.result().sink_outputs.at("Sink")[0].as<int>(), 2);
}

TEST(RunService, EngineErrorFailsOnlyItsRun) {
  // A completion makes the engine throw (a duplicate token on C's port a).
  // The run fails with the error's text; the shard goes on driving the run
  // beside it, which finishes once its held job is released.
  testkit::ConflictingFeeds conflict;
  enactor::ThreadedBackend backend(2);
  RunService service(backend, conflict.registry);
  Hold hold;
  conflict.registry.add(hold.service("held-p0"));
  const RunHandle held = service.submit(make_request("held", prefixed_chain("held", 1), 1));
  const RunHandle failing = service.submit(
      {.name = "conflict", .workflow = conflict.workflow, .inputs = conflict.inputs()});

  EXPECT_EQ(failing.wait(), RunState::kFailed);
  EXPECT_EQ(failing.error(), testkit::ConflictingFeeds::kError);
  EXPECT_EQ(held.poll(), RunState::kRunning);
  hold.release();
  EXPECT_EQ(held.wait(), RunState::kFinished);
  EXPECT_EQ(held.result().sink_outputs.at("sink").size(), 1u);
}

}  // namespace
}  // namespace moteur::service
