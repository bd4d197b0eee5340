// The live telemetry plane: JSONL frame schema, the TelemetryHub's sampler
// and HTTP scrape endpoint, the RunService wiring (snapshots, admission
// wait, critical-path attribution on real runs), and the crash flight
// recorder's dump-on-abnormal-exit path.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "enactor/enactor.hpp"
#include "enactor/run_request.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/threaded_backend.hpp"
#include "grid/grid.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/snapshot.hpp"
#include "obs/telemetry.hpp"
#include "service/run_service.hpp"
#include "services/functional_service.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "workflow/patterns.hpp"

namespace moteur::obs {
namespace {

using services::FunctionalService;
using services::Inputs;
using services::JobProfile;
using services::Result;

std::string temp_path(const std::string& leaf) {
  return ::testing::TempDir() + "moteur_telemetry_" + leaf;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Minimal HTTP/1.1 GET against 127.0.0.1:`port`; returns the raw response
/// (status line + headers + body) or "" on connection failure.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

// ---------------------------------------------------------------------------
// Frame schema
// ---------------------------------------------------------------------------

TEST(TelemetryFrame, CarriesCumulativeWindowedAndShardReadings) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("moteur_invocations_total", "Invocations");
  Gauge& gauge = registry.gauge("moteur_service_active_runs", "Active");
  Histogram& h = registry.histogram("moteur_wait_seconds", "Wait", {1.0, 2.0});
  counter.inc(10.0);
  gauge.set(2.0);
  h.observe(0.5);
  const MetricsSnapshot before = MetricsSnapshot::capture(registry, 100.0);
  counter.inc(5.0);
  h.observe(1.5);
  const MetricsSnapshot after = MetricsSnapshot::capture(registry, 102.0);

  const std::vector<ShardSample> shards = {{0, 3, 12, 1.0, 2.0}};
  const std::string frame =
      telemetry_frame_json(after, after.delta_since(before), shards, 7);
  for (const char* needle :
       {"\"seq\":7", "\"interval_seconds\":2", "\"ts\":102",
        "\"name\":\"moteur_invocations_total\"", "\"value\":15", "\"delta\":5",
        "\"rate\":2.5", "\"type\":\"gauge\"", "\"count\":2", "\"delta_count\":1",
        "\"window_p50\":", "\"shards\":[{\"shard\":0,\"runs\":3,\"invocations\":12,"
        "\"active\":1,\"queued\":2}]"}) {
    EXPECT_NE(frame.find(needle), std::string::npos)
        << "missing " << needle << " in\n" << frame;
  }
  // A frame is exactly one JSONL line.
  EXPECT_EQ(frame.find('\n'), std::string::npos);
}

// ---------------------------------------------------------------------------
// TelemetryHub standalone (no service): sampler thread + scrape endpoint
// ---------------------------------------------------------------------------

TEST(TelemetryHub, StreamsFramesAndServesPrometheusScrapes) {
  MetricsRegistry registry;
  std::mutex mu;  // the hub's callbacks serialize against this "recorder"
  Counter& ticks = registry.counter("ticks_total", "Ticks");

  TelemetryHub::Config config;
  config.interval_seconds = 0.05;
  config.jsonl_path = temp_path("hub_frames.jsonl");
  config.scrape_port = 0;  // ephemeral
  TelemetryHub hub(
      config,
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        return MetricsSnapshot::capture(registry, 1.0);
      },
      [&] {
        std::lock_guard<std::mutex> lock(mu);
        return prometheus_text(registry);
      },
      [] { return std::vector<ShardSample>{{0, 1, 2, 0.0, 0.0}}; });

  hub.start();
  ASSERT_TRUE(hub.running());
  ASSERT_GT(hub.port(), 0);
  {
    std::lock_guard<std::mutex> lock(mu);
    ticks.inc(3.0);
  }

  const std::string ok = http_get(hub.port(), "/metrics");
  EXPECT_NE(ok.find("200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("text/plain; version=0.0.4"), std::string::npos) << ok;
  EXPECT_NE(ok.find("ticks_total 3"), std::string::npos) << ok;
  const std::string root = http_get(hub.port(), "/");
  EXPECT_NE(root.find("200 OK"), std::string::npos);
  const std::string missing = http_get(hub.port(), "/no-such-path");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;
  EXPECT_GE(hub.scrapes_served(), 2u);  // /no-such-path is not a scrape

  // Let at least one interval tick pass, then stop: first + final frames are
  // guaranteed, interval frames land in between.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  hub.stop();
  EXPECT_FALSE(hub.running());
  hub.stop();  // idempotent

  const std::vector<std::string> frames = read_lines(config.jsonl_path);
  ASSERT_GE(frames.size(), 2u);
  EXPECT_EQ(hub.frames_written(), frames.size());
  EXPECT_NE(frames.front().find("\"seq\":0"), std::string::npos);
  // The final frame sees the counter increment.
  EXPECT_NE(frames.back().find("\"name\":\"ticks_total\""), std::string::npos);
  for (const std::string& frame : frames) {
    EXPECT_EQ(frame.front(), '{');
    EXPECT_EQ(frame.back(), '}');
  }
  std::remove(config.jsonl_path.c_str());
}

TEST(TelemetryHub, StartFailsOnUnwritableFramePath) {
  TelemetryHub::Config config;
  config.jsonl_path = "/no/such/dir/frames.jsonl";
  TelemetryHub hub(config, [] { return MetricsSnapshot{}; }, [] { return ""; });
  EXPECT_THROW(hub.start(), Error);
}

// ---------------------------------------------------------------------------
// RunService wiring: snapshots, frames, admission wait, critical path
// ---------------------------------------------------------------------------

data::InputDataSet items(std::size_t count) {
  data::InputDataSet ds;
  ds.declare_input("src");
  for (std::size_t j = 0; j < count; ++j) ds.add_item("src", "item" + std::to_string(j));
  return ds;
}

workflow::Workflow named_chain(const std::string& prefix, std::size_t stages) {
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

struct SimRig {
  sim::Simulator simulator;
  grid::Grid grid;
  enactor::SimGridBackend backend;
  services::ServiceRegistry registry;

  explicit SimRig(double compute_seconds = 10.0)
      : grid(simulator, grid::GridConfig::constant(5.0)), backend(grid) {
    for (const char* prefix : {"alpha", "beta"}) {
      for (std::size_t i = 0; i < 2; ++i) {
        registry.add(services::make_simulated_service(
            std::string(prefix) + "-p" + std::to_string(i), {"in"}, {"out"},
            JobProfile{compute_seconds}));
      }
    }
  }
};

enactor::RunRequest chain_request(const std::string& name, std::size_t count) {
  enactor::RunRequest request;
  request.name = name;
  request.workflow = named_chain(name, 2);
  request.inputs = items(count);
  return request;
}

TEST(RunServiceTelemetry, HubStreamsFramesAndSnapshotsAreLive) {
  SimRig rig;
  obs::RunRecorder recorder;
  service::RunServiceConfig config;
  config.admission.max_active = 2;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  config.telemetry.jsonl_path = temp_path("service_frames.jsonl");
  config.telemetry.scrape_port = 0;
  service::RunService service(rig.backend, rig.registry, config);
  service.set_recorder(&recorder);

  TelemetryHub* hub = service.telemetry();
  ASSERT_NE(hub, nullptr);
  EXPECT_TRUE(hub->running());
  EXPECT_GT(hub->port(), 0);

  std::vector<enactor::RunRequest> requests;
  requests.push_back(chain_request("alpha", 6));
  requests.push_back(chain_request("beta", 6));
  auto handles = service.submit_all(std::move(requests));
  service.wait_idle();

  // The live scrape serves the same registry the recorder fills.
  const std::string scrape = http_get(hub->port(), "/metrics");
  EXPECT_NE(scrape.find("moteur_run_invocations_total{run=\"alpha\"}"),
            std::string::npos);

  // metrics_snapshot() is the thread-safe read path to the same numbers.
  const MetricsSnapshot snap = service.metrics_snapshot();
  const MetricsSnapshot::Series* invocations =
      snap.find("moteur_run_invocations_total", {{"run", "alpha"}});
  ASSERT_NE(invocations, nullptr);
  EXPECT_DOUBLE_EQ(invocations->value, 12.0);  // 2 stages x 6 items

  service.shutdown();  // writes the final frame
  EXPECT_EQ(service.telemetry(), nullptr);

  const std::vector<std::string> frames = read_lines(config.telemetry.jsonl_path);
  ASSERT_GE(frames.size(), 2u);
  // The final frame carries the finished runs and the shard table.
  EXPECT_NE(frames.back().find("moteur_run_makespan_seconds"), std::string::npos);
  EXPECT_NE(frames.back().find("\"shards\":[{\"shard\":0,\"runs\":2"),
            std::string::npos)
      << frames.back();
  // No phantom activity after the last run retired.
  EXPECT_NE(frames.back().find("\"active\":0,\"queued\":0"), std::string::npos)
      << frames.back();
  std::remove(config.telemetry.jsonl_path.c_str());
}

TEST(RunServiceTelemetry, SnapshotIsEmptyWithoutARecorder) {
  SimRig rig;
  service::RunService service(rig.backend, rig.registry);
  EXPECT_TRUE(service.metrics_snapshot().families.empty());
  bool called = false;
  service.with_observability([&](obs::RunRecorder&) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(service.telemetry(), nullptr);  // telemetry is off by default
}

TEST(RunServiceTelemetry, AdmissionWaitIsExposedOnTheHandle) {
  SimRig rig;
  // alpha's first stage blocks on a latch, so alpha cannot finish (and beta
  // cannot be admitted) until the still-queued reads below are done.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  rig.registry.add(std::make_shared<FunctionalService>(
      "alpha-p0", std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
      FunctionalService::InvokeFn{}, [released](const Inputs&) {
        released.wait();
        grid::JobRequest profile;
        profile.name = "alpha-p0";
        profile.compute_seconds = 10.0;
        return profile;
      }));
  service::RunServiceConfig config;
  config.admission.max_active = 1;  // the second run must wait in line
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  service::RunService service(rig.backend, rig.registry, config);

  std::vector<enactor::RunRequest> requests;
  requests.push_back(chain_request("alpha", 4));
  requests.push_back(chain_request("beta", 4));
  auto handles = service.submit_all(std::move(requests));
  EXPECT_EQ(handles[1].poll(), service::RunState::kQueued);
  EXPECT_DOUBLE_EQ(handles[1].admission_wait(), 0.0);  // still queued: 0
  release.set_value();
  service.wait_idle();

  EXPECT_EQ(handles[0].poll(), service::RunState::kFinished);
  EXPECT_EQ(handles[1].poll(), service::RunState::kFinished);
  EXPECT_DOUBLE_EQ(handles[0].admission_wait(), 0.0);
  // The second run waited out the first one's full enactment (backend time).
  EXPECT_GT(handles[1].admission_wait(), 0.0);
  EXPECT_DOUBLE_EQ(service::RunHandle().admission_wait(), 0.0);  // invalid handle
}

TEST(RunServiceTelemetry, CriticalPathAttributesRealRunsWithinTolerance) {
  SimRig rig;
  obs::RunRecorder recorder;
  service::RunServiceConfig config;
  config.admission.max_active = 1;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  service::RunService service(rig.backend, rig.registry, config);
  service.set_recorder(&recorder);

  std::vector<enactor::RunRequest> requests;
  requests.push_back(chain_request("alpha", 4));
  requests.push_back(chain_request("beta", 4));
  auto handles = service.submit_all(std::move(requests));
  service.wait_idle();

  service.with_observability([&](obs::RunRecorder& rec) {
    for (auto& handle : handles) {
      const CriticalPathReport report =
          critical_path(rec.tracer(), handle.id(), handle.admission_wait());
      ASSERT_TRUE(report.found) << handle.id();
      const double makespan =
          handle.result().makespan() + handle.admission_wait();
      // The phases partition the attributed makespan exactly, and the
      // attributed makespan matches the run's own accounting.
      EXPECT_NEAR(report.attributed(), report.makespan, 1e-6) << handle.id();
      EXPECT_NEAR(report.makespan, makespan, 0.05 * makespan) << handle.id();
      EXPECT_GT(report.execution, 0.0) << handle.id();
      EXPECT_FALSE(report.steps.empty()) << handle.id();
    }
    // The second run's report includes its admission wait as a phase.
    const CriticalPathReport queued =
        critical_path(rec.tracer(), handles[1].id(), handles[1].admission_wait());
    EXPECT_GT(queued.admission_wait, 0.0);
  });
}

// ---------------------------------------------------------------------------
// Crash flight recorder through the service
// ---------------------------------------------------------------------------

TEST(RunServiceTelemetry, FlightRecorderDumpsCancelledRuns) {
  // The front run blocks on a latch so the queued back run is
  // deterministically cancelled before it starts; its dump must appear.
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

  service::RunServiceConfig config;
  config.admission.max_active = 1;
  config.defaults.policy = enactor::EnactmentPolicy::sp_dp();
  config.telemetry.flight_recorder_path = temp_path("dump_");
  config.telemetry.flight_recorder_events = 32;
  service::RunService service(backend, registry, config);

  std::vector<enactor::RunRequest> requests;
  requests.push_back(
      {.name = "front", .workflow = named_chain("front", 1), .inputs = items(2)});
  requests.push_back(
      {.name = "back", .workflow = named_chain("back", 1), .inputs = items(2)});
  auto handles = service.submit_all(std::move(requests));
  while (handles[0].poll() == service::RunState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  handles[1].cancel();
  release.set_value();
  EXPECT_EQ(handles[0].wait(), service::RunState::kFinished);
  EXPECT_EQ(handles[1].wait(), service::RunState::kCancelled);
  service.wait_idle();
  service.shutdown();

  const std::string dump_path = config.telemetry.flight_recorder_path + "back.json";
  const std::vector<std::string> dump_lines = read_lines(dump_path);
  ASSERT_FALSE(dump_lines.empty()) << "no flight-recorder dump at " << dump_path;
  std::string dump;
  for (const std::string& line : dump_lines) dump += line + "\n";
  EXPECT_NE(dump.find("\"run\": \"back\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"state\": \"cancelled\""), std::string::npos) << dump;
  // The finished front run left no dump behind.
  EXPECT_TRUE(
      read_lines(config.telemetry.flight_recorder_path + "front.json").empty());
  std::remove(dump_path.c_str());
}

}  // namespace
}  // namespace moteur::obs
