// Sharded enactment core: MPSC queue stress (run under TSan by the
// tsan-enactor preset), shards=1 vs shards=N equivalence on the threaded
// backend, clamping on backends without channels, mid-run cancellation on a
// sharded service, pin policies, the redesigned RunHandle waiting API, and
// the null-handle regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "data/invocation_cache.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/manifest.hpp"
#include "enactor/run_request.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/threaded_backend.hpp"
#include "grid/grid.hpp"
#include "obs/recorder.hpp"
#include "service/run_service.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/mpsc_queue.hpp"
#include "workflow/graph.hpp"

namespace moteur::service {
namespace {

using services::FunctionalService;
using services::Inputs;
using services::Result;

// ---------------------------------------------------------------------------
// MpscQueue
// ---------------------------------------------------------------------------

struct Item {
  std::size_t producer;
  std::size_t seq;
};

TEST(MpscQueue, ManyProducersPreservePerProducerOrder) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 5000;
  constexpr std::size_t kChunk = 500;
  MpscQueue<Item> queue;
  std::atomic<std::size_t> drains{0};  // drain() calls that returned items

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &drains, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        queue.push(Item{p, i});
        // After each chunk, hold back until the consumer has drained once per
        // chunk so far, so every run sees many drain rounds.
        if ((i + 1) % kChunk == 0) {
          while (drains.load() < (i + 1) / kChunk) std::this_thread::yield();
        }
      }
    });
  }

  std::vector<std::size_t> next_seq(kProducers, 0);
  std::size_t received = 0;
  std::vector<Item> batch;
  while (received < kProducers * kPerProducer) {
    // Alternate drains go into an empty vector (the swap path) and into one
    // still holding the previous drain's items, which must stay in front.
    if (drains.load() % 2 == 0) batch.clear();
    const std::vector<Item> held = batch;
    const std::size_t arrived = queue.drain(batch);
    ASSERT_EQ(batch.size(), held.size() + arrived);
    for (std::size_t i = 0; i < held.size(); ++i) {
      EXPECT_EQ(batch[i].producer, held[i].producer);
      EXPECT_EQ(batch[i].seq, held[i].seq);
    }
    if (arrived == 0) {
      queue.wait(std::nullopt);
      continue;
    }
    for (std::size_t i = held.size(); i < batch.size(); ++i) {
      const Item& item = batch[i];
      ASSERT_LT(item.producer, kProducers);
      EXPECT_EQ(item.seq, next_seq[item.producer]) << "producer " << item.producer;
      ++next_seq[item.producer];
    }
    received += arrived;
    drains.fetch_add(1);
  }
  for (auto& t : producers) t.join();
  EXPECT_TRUE(queue.empty());
  EXPECT_GE(drains.load(), kPerProducer / kChunk);
  for (std::size_t p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

TEST(MpscQueue, NotifyWakesAnEmptyWait) {
  MpscQueue<int> queue;
  std::thread waker([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.notify();
  });
  // Returns true (woken), not by deadline, despite no items arriving.
  EXPECT_TRUE(queue.wait(std::chrono::steady_clock::now() + std::chrono::seconds(30)));
  waker.join();
}

TEST(MpscQueue, WaitHonorsDeadline) {
  MpscQueue<int> queue;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
  EXPECT_FALSE(queue.wait(deadline));
}

// ---------------------------------------------------------------------------
// RunHandle API
// ---------------------------------------------------------------------------

TEST(RunHandle, DefaultConstructedHandleHasEmptySentinels) {
  RunHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_TRUE(handle.id().empty());  // used to dereference a null record
}

// ---------------------------------------------------------------------------
// Sharded RunService on the threaded backend
// ---------------------------------------------------------------------------

workflow::Workflow chain(std::size_t stages) {
  workflow::Workflow wf("chain");
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

data::InputDataSet items(std::size_t count) {
  data::InputDataSet ds;
  ds.declare_input("src");
  for (std::size_t j = 0; j < count; ++j) ds.add_item("src", "item" + std::to_string(j));
  return ds;
}

/// Stateless pass-through services p0..p{stages-1}; optional per-invocation
/// sleep and a shared invocation counter.
void add_chain_services(services::ServiceRegistry& registry, std::size_t stages,
                        std::atomic<std::size_t>* counter = nullptr,
                        std::chrono::milliseconds sleep = {}) {
  for (std::size_t i = 0; i < stages; ++i) {
    registry.add(std::make_shared<FunctionalService>(
        "p" + std::to_string(i), std::vector<std::string>{"in"},
        std::vector<std::string>{"out"}, [counter, sleep](const Inputs& in) {
          if (sleep.count() != 0) std::this_thread::sleep_for(sleep);
          if (counter != nullptr) counter->fetch_add(1);
          Result result;
          result.outputs["out"].payload = 0;
          result.outputs["out"].repr = "out:" + in.at("in").repr();
          return result;
        }));
  }
}

struct RunOutcome {
  std::size_t invocations = 0;
  std::size_t failures = 0;
  std::vector<std::string> sink_reprs;  // sorted
};

std::map<std::string, RunOutcome> enact(std::size_t shards, std::size_t runs,
                                        std::size_t stages, std::size_t n_items,
                                        std::vector<ShardStats>* stats_out = nullptr) {
  enactor::ThreadedBackend backend(4);
  services::ServiceRegistry registry;
  add_chain_services(registry, stages);

  RunServiceConfig config;
  config.admission.max_active = 8;
  config.admission.max_inflight = 16;
  config.sharding.shards = shards;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  RunService service(backend, registry, config);
  EXPECT_EQ(service.shards(), shards);  // threaded backend supports channels

  std::vector<enactor::RunRequest> requests;
  for (std::size_t i = 0; i < runs; ++i) {
    enactor::RunRequest request;
    request.name = "run-" + std::to_string(i);
    request.workflow = chain(stages);
    request.inputs = items(n_items);
    requests.push_back(std::move(request));
  }
  auto handles = service.submit_all(std::move(requests));
  service.wait_idle();

  std::map<std::string, RunOutcome> outcomes;
  for (const auto& handle : handles) {
    EXPECT_EQ(handle.wait(), RunState::kFinished) << handle.id() << ": " << handle.error();
    const auto& result = handle.result();
    RunOutcome outcome;
    outcome.invocations = result.invocations();
    outcome.failures = result.failures();
    for (const auto& [sink, tokens] : result.sink_outputs) {
      for (const auto& token : tokens) outcome.sink_reprs.push_back(token.repr());
    }
    std::sort(outcome.sink_reprs.begin(), outcome.sink_reprs.end());
    outcomes[handle.id()] = std::move(outcome);
  }
  if (stats_out != nullptr) *stats_out = service.shard_stats();
  return outcomes;
}

TEST(ShardedRunService, FourShardsMatchSingleShardRunForRun) {
  constexpr std::size_t kRuns = 12, kStages = 3, kItems = 6;
  std::vector<ShardStats> stats1, stats4;
  const auto single = enact(1, kRuns, kStages, kItems, &stats1);
  const auto sharded = enact(4, kRuns, kStages, kItems, &stats4);

  ASSERT_EQ(single.size(), kRuns);
  ASSERT_EQ(sharded.size(), kRuns);
  for (const auto& [id, expected] : single) {
    ASSERT_TRUE(sharded.count(id)) << id;
    const RunOutcome& got = sharded.at(id);
    EXPECT_EQ(got.invocations, expected.invocations) << id;
    EXPECT_EQ(got.failures, expected.failures) << id;
    EXPECT_EQ(got.sink_reprs, expected.sink_reprs) << id;
  }

  // Per-shard counters sum to identical totals in both configurations.
  const auto totals = [](const std::vector<ShardStats>& stats) {
    std::pair<std::uint64_t, std::uint64_t> t{0, 0};
    for (const auto& s : stats) {
      t.first += s.runs;
      t.second += s.invocations;
    }
    return t;
  };
  ASSERT_EQ(stats1.size(), 1u);
  ASSERT_EQ(stats4.size(), 4u);
  EXPECT_EQ(totals(stats1), totals(stats4));
  EXPECT_EQ(totals(stats4).first, kRuns);
  EXPECT_EQ(totals(stats4).second, kRuns * kStages * kItems);
}

TEST(ShardedRunService, TwoShardsDeliverEveryRunInOrderToSubscribersAndTheRecorder) {
  // Two shards batch their events; delivery interleaves runs but keeps each
  // run's events in order, and the recorder sees every one of them.
  constexpr std::size_t kRuns = 6, kStages = 2, kItems = 5;
  enactor::ThreadedBackend backend(2);
  services::ServiceRegistry registry;
  add_chain_services(registry, kStages);
  RunServiceConfig config;
  config.admission.max_active = 4;
  config.sharding.shards = 2;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  RunService service(backend, registry, config);
  ASSERT_EQ(service.shards(), 2u);
  std::map<std::string, std::vector<obs::RunEvent>> events;  // by run id
  service.add_event_subscriber([&events](const obs::RunEvent& event) {
    if (!event.run_id.empty()) events[event.run_id].push_back(event);
  });
  obs::RunRecorder recorder;
  service.set_recorder(&recorder);

  std::vector<enactor::RunRequest> requests;
  for (std::size_t i = 0; i < kRuns; ++i) {
    enactor::RunRequest request;
    request.name = "run-" + std::to_string(i);
    request.workflow = chain(kStages);
    request.inputs = items(kItems);
    requests.push_back(std::move(request));
  }
  const auto handles = service.submit_all(std::move(requests));
  service.wait_idle();

  std::size_t invocations = 0;
  std::size_t submissions = 0;
  for (const auto& handle : handles) {
    ASSERT_EQ(handle.wait(), RunState::kFinished) << handle.id() << ": " << handle.error();
    const enactor::EnactmentResult& result = handle.result();
    invocations += result.invocations();
    submissions += result.submissions();
    const std::vector<obs::RunEvent>& run = events[handle.id()];
    ASSERT_GE(run.size(), 2u) << handle.id();
    EXPECT_EQ(run.front().kind, obs::RunEvent::Kind::kRunStarted) << handle.id();
    EXPECT_EQ(run.back().kind, obs::RunEvent::Kind::kRunFinished) << handle.id();
    // Each invocation starts before its attempt, which starts before it ends.
    std::map<std::uint64_t, std::vector<obs::RunEvent::Kind>> by_invocation;
    std::size_t attempts = 0;
    for (std::size_t i = 1; i + 1 < run.size(); ++i) {
      EXPECT_NE(run[i].kind, obs::RunEvent::Kind::kRunStarted) << handle.id();
      EXPECT_NE(run[i].kind, obs::RunEvent::Kind::kRunFinished) << handle.id();
      if (run[i].invocation != 0) by_invocation[run[i].invocation].push_back(run[i].kind);
      if (run[i].kind == obs::RunEvent::Kind::kAttemptStarted) ++attempts;
    }
    EXPECT_EQ(attempts, result.submissions()) << handle.id();
    for (const auto& [id, kinds] : by_invocation) {
      EXPECT_EQ(kinds, (std::vector<obs::RunEvent::Kind>{
                           obs::RunEvent::Kind::kInvocationStarted,
                           obs::RunEvent::Kind::kAttemptStarted,
                           obs::RunEvent::Kind::kAttemptEnded,
                           obs::RunEvent::Kind::kInvocationCompleted}))
          << handle.id() << " invocation " << id;
    }
  }
  EXPECT_EQ(invocations, kRuns * kStages * kItems);

  service.with_observability([&](obs::RunRecorder& r) {
    const auto value = [&r](const std::string& name, const obs::Labels& labels) {
      const obs::MetricsRegistry::Family* family = r.metrics().find(name);
      return family == nullptr ? -1.0 : family->series.at(labels).counter->value();
    };
    EXPECT_EQ(value("moteur_invocations_total", {}), invocations);
    EXPECT_EQ(value("moteur_submissions_total", {}), submissions);
    for (const auto& handle : handles) {
      const obs::Labels run{{"run", handle.id()}};
      EXPECT_EQ(value("moteur_run_invocations_total", run), handle.result().invocations());
      EXPECT_EQ(value("moteur_run_submissions_total", run), handle.result().submissions());
    }
  });
}

TEST(ShardedRunService, BackendWithoutChannelsClampsToOneShard) {
  sim::Simulator simulator;
  grid::Grid grid(simulator, grid::GridConfig::constant(5.0, 4096, 7));
  enactor::SimGridBackend backend(grid);
  services::ServiceRegistry registry;
  RunServiceConfig config;
  config.sharding.shards = 4;  // the simulator cannot be multi-driven
  RunService service(backend, registry, config);
  EXPECT_EQ(service.shards(), 1u);
}

TEST(ShardedRunService, CancellationMidRunOnShardedService) {
  enactor::ThreadedBackend backend(4);
  services::ServiceRegistry registry;
  std::atomic<std::size_t> invoked{0};
  add_chain_services(registry, 2, &invoked, std::chrono::milliseconds(5));

  RunServiceConfig config;
  config.admission.max_active = 8;
  config.admission.max_inflight = 4;  // most submissions queue in the gates
  config.sharding.shards = 4;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  RunService service(backend, registry, config);
  ASSERT_EQ(service.shards(), 4u);

  std::vector<enactor::RunRequest> requests;
  for (std::size_t i = 0; i < 4; ++i) {
    enactor::RunRequest request;
    request.name = "victim-" + std::to_string(i);
    request.workflow = chain(2);
    request.inputs = items(64);
    requests.push_back(std::move(request));
  }
  auto handles = service.submit_all(std::move(requests));

  // Let the runs make real progress, then cancel them all mid-flight.
  while (invoked.load() < 8) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (auto& handle : handles) handle.cancel();

  constexpr std::size_t kTotal = 4 * 2 * 64;
  for (auto& handle : handles) {
    EXPECT_EQ(handle.wait(), RunState::kCancelled) << handle.id();
    // Partial result: cancelled well before the full item set completed.
    EXPECT_LT(handle.result().invocations(), 2 * 64u) << handle.id();
  }
  EXPECT_LT(invoked.load(), kTotal);
  service.wait_idle();
}

TEST(ShardedRunService, CacheInvalidationAndCatalogChurnDuringShardedRuns) {
  // Run under TSan by the tsan-enactor preset: shards enacting through the
  // shared InvocationCache while antagonist threads hammer cache
  // invalidation and replica-catalog failover bookkeeping (register /
  // invalidate / availability flips) the whole time. Results must stay
  // complete and correct regardless of which entries the antagonists evict.
  enactor::ThreadedBackend backend(4);
  services::ServiceRegistry registry;
  add_chain_services(registry, 2, nullptr, std::chrono::milliseconds(1));

  RunServiceConfig config;
  config.admission.max_active = 8;
  config.admission.max_inflight = 16;
  config.sharding.shards = 4;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  config.defaults.policy.cache = true;
  RunService service(backend, registry, config);
  ASSERT_EQ(service.shards(), 4u);

  // The shared cache is materialized lazily by the first cached run.
  {
    enactor::RunRequest warmup;
    warmup.name = "warmup";
    warmup.workflow = chain(2);
    warmup.inputs = items(2);
    auto handle = service.submit(std::move(warmup));
    ASSERT_EQ(handle.wait(), RunState::kFinished);
  }
  data::InvocationCache* cache = service.invocation_cache();
  ASSERT_NE(cache, nullptr);
  data::ReplicaCatalog catalog;  // shared failover bookkeeping under churn

  std::atomic<bool> stop{false};
  std::thread cache_antagonist([&] {
    std::size_t n = 0;
    while (!stop.load()) {
      const std::string key =
          data::InvocationCache::cache_key(n % 7, {{"in", n}});
      cache->invalidate(key, "antagonist");
      cache->peek(key);
      (void)cache->entry_count();
      (void)cache->totals();
      ++n;
    }
  });
  std::thread catalog_antagonist([&] {
    std::size_t n = 0;
    while (!stop.load()) {
      const std::string lfn = "lfn://" + std::to_string(n % 16);
      const std::string se = "se-" + std::to_string(n % 3);
      catalog.register_replica(lfn, se, 1.0);
      catalog.set_se_available(se, n % 2 == 0);
      (void)catalog.locate(lfn);
      (void)catalog.se_available(se);
      catalog.invalidate_replica(lfn, se);
      ++n;
    }
  });

  constexpr std::size_t kRuns = 8, kStages = 2, kItems = 16;
  std::vector<enactor::RunRequest> requests;
  for (std::size_t i = 0; i < kRuns; ++i) {
    enactor::RunRequest request;
    request.name = "churn-" + std::to_string(i);
    request.workflow = chain(kStages);
    request.inputs = items(kItems);
    requests.push_back(std::move(request));
  }
  auto handles = service.submit_all(std::move(requests));
  for (auto& handle : handles) {
    EXPECT_EQ(handle.wait(), RunState::kFinished) << handle.id();
    EXPECT_EQ(handle.result().failures(), 0u) << handle.id();
    std::size_t sink_tokens = 0;
    for (const auto& [sink, tokens] : handle.result().sink_outputs) {
      sink_tokens += tokens.size();
    }
    EXPECT_EQ(sink_tokens, kItems) << handle.id();
  }
  service.wait_idle();
  stop.store(true);
  cache_antagonist.join();
  catalog_antagonist.join();

  // The catalog survived the churn with a consistent view: every replica the
  // antagonist left behind is locatable, and the counters kept pace.
  EXPECT_LE(catalog.replica_count(), 16u * 3u);
  EXPECT_GT(catalog.invalidation_count(), 0u);
}

TEST(ShardedRunService, LeastLoadedPinSpreadsABatch) {
  enactor::ThreadedBackend backend(2);
  services::ServiceRegistry registry;
  add_chain_services(registry, 1);

  RunServiceConfig config;
  config.sharding.shards = 4;
  config.sharding.pin = PinPolicy::kLeastLoaded;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  RunService service(backend, registry, config);

  std::vector<enactor::RunRequest> requests;
  for (std::size_t i = 0; i < 8; ++i) {
    enactor::RunRequest request;
    request.name = "spread-" + std::to_string(i);
    request.workflow = chain(1);
    request.inputs = items(2);
    requests.push_back(std::move(request));
  }
  service.submit_all(std::move(requests));
  service.wait_idle();

  // In-batch tentative accounting: one batch of 8 lands 2 runs per shard.
  for (const auto& stats : service.shard_stats()) {
    EXPECT_EQ(stats.runs, 2u) << "shard " << stats.shard;
  }
}

TEST(ShardedRunService, WaitPrimitives) {
  enactor::ThreadedBackend backend(2);
  services::ServiceRegistry registry;
  add_chain_services(registry, 1, nullptr, std::chrono::milliseconds(3));

  RunServiceConfig config;
  config.sharding.shards = 2;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  RunService service(backend, registry, config);

  std::vector<enactor::RunRequest> requests;
  for (const char* name : {"wait-a", "wait-b"}) {
    enactor::RunRequest request;
    request.name = name;
    request.workflow = chain(1);
    request.inputs = items(8);
    requests.push_back(std::move(request));
  }
  auto handles = service.submit_all(std::move(requests));

  // wait_for with a tiny timeout observes a (most likely) non-terminal state
  // without blocking; try_result mirrors it.
  const RunState early = handles[0].wait_for(std::chrono::microseconds(1));
  if (!is_terminal(early)) EXPECT_EQ(handles[0].try_result(), nullptr);

  const std::size_t first = service.wait_any(handles);
  ASSERT_LT(first, handles.size());
  EXPECT_TRUE(is_terminal(handles[first].poll()));
  EXPECT_NE(handles[first].try_result(), nullptr);

  for (auto& handle : handles) {
    EXPECT_EQ(handle.wait_for(std::chrono::seconds(60)), RunState::kFinished);
    EXPECT_NE(handle.try_result(), nullptr);
  }
}

TEST(ShardedRunService, StragglerAfterShutdownIsDropped) {
  // A watchdog clone settles item0 and finishes the run while item0's first
  // attempt still runs on a worker. Shutting the service down destroys the
  // shards and, with two of them, their completion lanes; the straggler then
  // completes into a lane that is gone. Its completion must be dropped
  // without touching freed memory (the asan preset catches a push into a
  // destroyed queue), and shutdown must not wait for it.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::atomic<bool> blocked{false};
    auto backend = std::make_unique<enactor::ThreadedBackend>(2);
    services::ServiceRegistry registry;
    registry.add(std::make_shared<FunctionalService>(
        "p0", std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
        [&blocked, released](const Inputs& in) {
          // The first attempt to reach item0 blocks; the racing one passes.
          if (in.at("in").repr() == "item0" && !blocked.exchange(true)) released.wait();
          Result result;
          result.outputs["out"].payload = 0;
          result.outputs["out"].repr = "out:" + in.at("in").repr();
          return result;
        }));

    RunServiceConfig config;
    config.sharding.shards = shards;
    config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
    config.defaults.policy.retry.max_attempts = 2;
    config.defaults.policy.retry.timeout_multiplier = 2;
    config.defaults.policy.retry.timeout_min_samples = 3;
    auto service = std::make_unique<RunService>(*backend, registry, config);
    EXPECT_EQ(service->shards(), shards);

    enactor::RunRequest request;
    request.name = "straggler";
    request.workflow = chain(1);
    request.inputs = items(4);
    RunHandle handle = service->submit(std::move(request));
    // No ASSERT before the latch opens: an early return would leave the
    // straggler blocked and the backend's destructor joining it forever.
    EXPECT_EQ(handle.wait(), RunState::kFinished) << handle.error();
    EXPECT_EQ(handle.result().invocations(), 4u);
    EXPECT_EQ(handle.result().failures(), 0u);
    EXPECT_EQ(handle.result().timeouts(), 1u);

    service.reset();      // joins the shards and destroys their lanes
    release.set_value();  // the straggler completes after its lane is gone
    backend.reset();      // joins the workers
  }
}

TEST(ShardedRunService, WaitAnyRequiresAValidHandle) {
  enactor::ThreadedBackend backend(1);
  services::ServiceRegistry registry;
  RunService service(backend, registry, {});
  std::vector<RunHandle> invalid(3);
  EXPECT_THROW(service.wait_any(invalid), ExecutionError);
}

// ---------------------------------------------------------------------------
// Config surface: pin policy parsing + manifest round-trip
// ---------------------------------------------------------------------------

TEST(ShardingConfig, PinPolicyParsesAndPrints) {
  EXPECT_EQ(parse_pin_policy("hash"), PinPolicy::kHash);
  EXPECT_EQ(parse_pin_policy("least-loaded"), PinPolicy::kLeastLoaded);
  EXPECT_STREQ(to_string(PinPolicy::kHash), "hash");
  EXPECT_STREQ(to_string(PinPolicy::kLeastLoaded), "least-loaded");
  EXPECT_THROW(parse_pin_policy("round-robin"), ParseError);
}

TEST(ShardingConfig, ManifestRoundTripsShardingFields) {
  enactor::RunManifest manifest;
  manifest.workflow = chain(1);
  manifest.inputs = items(1);
  manifest.shards = 4;
  manifest.pin_policy = "least-loaded";
  const auto restored = enactor::RunManifest::from_xml(manifest.to_xml());
  EXPECT_EQ(restored.shards, 4u);
  EXPECT_EQ(restored.pin_policy, "least-loaded");

  enactor::RunManifest defaults;
  defaults.workflow = chain(1);
  defaults.inputs = items(1);
  const auto restored_defaults = enactor::RunManifest::from_xml(defaults.to_xml());
  EXPECT_EQ(restored_defaults.shards, 1u);
  EXPECT_EQ(restored_defaults.pin_policy, "hash");
}

}  // namespace
}  // namespace moteur::service
