#include "service/run_service.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "service/shard.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace moteur::service {

const char* to_string(RunState s) {
  switch (s) {
    case RunState::kQueued: return "queued";
    case RunState::kRunning: return "running";
    case RunState::kFinished: return "finished";
    case RunState::kFailed: return "failed";
    case RunState::kCancelled: return "cancelled";
  }
  return "?";
}

bool is_terminal(RunState s) {
  return s == RunState::kFinished || s == RunState::kFailed || s == RunState::kCancelled;
}

const char* to_string(PinPolicy p) {
  switch (p) {
    case PinPolicy::kHash: return "hash";
    case PinPolicy::kLeastLoaded: return "least-loaded";
  }
  return "?";
}

PinPolicy parse_pin_policy(const std::string& text) {
  if (text == "hash") return PinPolicy::kHash;
  if (text == "least-loaded") return PinPolicy::kLeastLoaded;
  throw ParseError("unknown pin policy '" + text + "' (hash | least-loaded)");
}

using detail::RunRecord;

const std::string& RunHandle::id() const {
  static const std::string kEmpty;
  return rec_ != nullptr ? rec_->id : kEmpty;
}

RunState RunHandle::poll() const {
  std::lock_guard<std::mutex> lock(rec_->mu);
  return rec_->state;
}

RunState RunHandle::wait() const {
  std::unique_lock<std::mutex> lock(rec_->mu);
  rec_->cv.wait(lock, [&] { return is_terminal(rec_->state); });
  return rec_->state;
}

RunState RunHandle::wait_for_ns(std::chrono::nanoseconds timeout) const {
  std::unique_lock<std::mutex> lock(rec_->mu);
  rec_->cv.wait_for(lock, timeout, [&] { return is_terminal(rec_->state); });
  return rec_->state;
}

void RunHandle::cancel() {
  std::lock_guard<std::mutex> lock(rec_->mu);
  if (is_terminal(rec_->state) || rec_->cancel_requested) return;
  rec_->cancel_requested = true;
  if (rec_->poke) rec_->poke();
}

const enactor::EnactmentResult& RunHandle::result() const {
  std::unique_lock<std::mutex> lock(rec_->mu);
  rec_->cv.wait(lock, [&] { return is_terminal(rec_->state); });
  return rec_->result;  // immutable once terminal
}

const enactor::EnactmentResult* RunHandle::try_result() const {
  std::lock_guard<std::mutex> lock(rec_->mu);
  return is_terminal(rec_->state) ? &rec_->result : nullptr;
}

const std::string& RunHandle::error() const {
  std::unique_lock<std::mutex> lock(rec_->mu);
  rec_->cv.wait(lock, [&] { return is_terminal(rec_->state); });
  return rec_->error;
}

double RunHandle::admission_wait() const {
  if (rec_ == nullptr) return 0.0;
  std::lock_guard<std::mutex> lock(rec_->mu);
  return rec_->admission_wait;
}

/// The dispatcher side of the service: resolves the effective shard count,
/// owns the shards and the shared core, pins submissions, and fans control
/// operations (cancel wake-ups, shutdown) out to the owning shards.
struct RunService::Impl {
  detail::ServiceCore core;
  std::vector<std::unique_ptr<EngineShard>> shards;
  std::unique_ptr<obs::TelemetryHub> hub;
  PinPolicy pin;

  // Guarded by core.live_mu.
  bool stop = false;
  std::size_t next_run = 1;  // the <n> of the next generated "run-<n>"

  std::mutex join_mu;

  Impl(enactor::ExecutionBackend& backend_in, services::ServiceRegistry& registry_in,
       RunServiceConfig config_in)
      : core(backend_in, registry_in, std::move(config_in)),
        pin(core.config.sharding.pin) {
    const std::size_t requested = std::max<std::size_t>(1, core.config.sharding.shards);
    std::vector<std::unique_ptr<enactor::ExecutionBackend>> channels;
    if (requested > 1) {
      channels.reserve(requested);
      for (std::size_t i = 0; i < requested; ++i) {
        auto channel = backend_in.make_channel();
        if (channel == nullptr) {
          MOTEUR_LOG(kWarn, "service")
              << "backend does not support completion channels; clamping "
              << requested << " shards to 1";
          channels.clear();
          break;
        }
        channels.push_back(std::move(channel));
      }
    }
    const std::size_t effective = channels.empty() ? 1 : requested;
    core.config.sharding.shards = effective;  // record what we actually run

    // Even active-run slice, rounded up so the aggregate never shrinks;
    // a single shard keeps the service-wide cap verbatim.
    const std::size_t total_active = core.config.admission.max_active;
    const std::size_t per_shard_active =
        effective == 1 ? total_active : (total_active + effective - 1) / effective;
    // A single shard delivers each event directly (synchronous, bit-identical
    // to the pre-shard service); multi-shard batches amortize the obs lock.
    const std::size_t obs_batch = effective == 1 ? 1 : 64;

    shards.reserve(effective);
    for (std::size_t i = 0; i < effective; ++i) {
      auto channel = channels.empty() ? nullptr : std::move(channels[i]);
      shards.push_back(std::make_unique<EngineShard>(i, core, std::move(channel),
                                                     per_shard_active, obs_batch));
    }
  }

  /// Requires core.live_mu. The request's name when no live run holds it,
  /// else a generated id.
  std::string make_id(const std::string& name) {
    if (!name.empty() && core.live.count(name) == 0) return name;
    for (;;) {
      std::string id = "run-" + std::to_string(next_run++);
      if (core.live.count(id) == 0) return id;
    }
  }

  /// Pin a run to a shard. `tentative` counts this batch's assignments so a
  /// least-loaded burst spreads instead of dog-piling one shard.
  std::size_t pick_shard(const std::string& id,
                         const std::vector<std::size_t>& tentative) const {
    const std::size_t n = shards.size();
    if (n == 1) return 0;
    if (pin == PinPolicy::kLeastLoaded) {
      std::size_t best = 0;
      std::size_t best_load = shards[0]->load() + tentative[0];
      for (std::size_t i = 1; i < n; ++i) {
        const std::size_t load = shards[i]->load() + tentative[i];
        if (load < best_load) {
          best = i;
          best_load = load;
        }
      }
      return best;
    }
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the run id
    for (const char c : id) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h % n);
  }
};

RunService::RunService(enactor::ExecutionBackend& backend,
                       services::ServiceRegistry& registry, RunServiceConfig config)
    : impl_(std::make_unique<Impl>(backend, registry, std::move(config))) {
  for (auto& shard : impl_->shards) shard->start();
  Impl& im = *impl_;
  // Backend-originated service-scope events (SE→SE transfer start/done)
  // join the service's event stream: subscribers first, then the recorder,
  // under the same obs lock as run events. Detached in shutdown() once the
  // shards are quiet.
  im.core.backend.set_event_sink([&core = im.core](const obs::RunEvent& event) {
    core.deliver(event);
  });
  const RunServiceConfig::Telemetry& telemetry = im.core.config.telemetry;
  if (telemetry.hub_enabled()) {
    obs::TelemetryHub::Config hub_config;
    hub_config.interval_seconds = telemetry.interval_seconds;
    hub_config.jsonl_path = telemetry.jsonl_path;
    hub_config.scrape_port = telemetry.scrape_port;
    im.hub = std::make_unique<obs::TelemetryHub>(
        std::move(hub_config),
        // Snapshot and scrape read the recorder under the same lock that
        // serializes the shards' event delivery — consistent captures, and
        // a recorder attached after construction is picked up on the next
        // tick.
        [this] { return metrics_snapshot(); },
        [&im] {
          std::lock_guard<std::mutex> lock(im.core.obs_mu);
          return im.core.recorder != nullptr
                     ? obs::prometheus_text(im.core.recorder->metrics())
                     : std::string{};
        },
        [&im] {
          std::vector<obs::ShardSample> samples;
          samples.reserve(im.shards.size());
          for (const auto& shard : im.shards) {
            const ShardStats stats = shard->stats();
            obs::ShardSample sample;
            sample.shard = stats.shard;
            sample.runs = stats.runs;
            sample.invocations = stats.invocations;
            sample.active = static_cast<double>(shard->active_now());
            sample.queued = static_cast<double>(shard->queued_now());
            samples.push_back(sample);
          }
          return samples;
        });
    im.hub->start();
  }
}

RunService::~RunService() { shutdown(); }

RunHandle RunService::submit(enactor::RunRequest request) {
  std::vector<enactor::RunRequest> batch;
  batch.push_back(std::move(request));
  return submit_all(std::move(batch)).front();
}

std::vector<RunHandle> RunService::submit_all(std::vector<enactor::RunRequest> requests) {
  Impl& im = *impl_;
  const std::size_t n = im.shards.size();
  std::vector<RunHandle> handles;
  handles.reserve(requests.size());
  std::vector<std::vector<std::shared_ptr<RunRecord>>> per_shard(n);
  std::vector<std::size_t> tentative(n, 0);
  {
    // Live before any shard can retire a member of the batch.
    std::lock_guard<std::mutex> lock(im.core.live_mu);
    MOTEUR_REQUIRE(!im.stop, ExecutionError, "RunService is shut down");
    for (auto& request : requests) {
      auto rec = std::make_shared<RunRecord>();
      rec->id = im.make_id(request.name);
      rec->request = std::move(request);
      const std::size_t shard = im.pick_shard(rec->id, tentative);
      ++tentative[shard];
      rec->shard = shard;
      EngineShard* owner = im.shards[shard].get();
      rec->poke = [owner] { owner->wake(); };
      im.core.live.emplace(rec->id, rec);
      handles.push_back(RunHandle(rec));
      per_shard[shard].push_back(std::move(rec));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!per_shard[i].empty()) im.shards[i]->enqueue(std::move(per_shard[i]));
  }
  return handles;
}

void RunService::add_event_subscriber(enactor::EventSubscriber subscriber) {
  std::lock_guard<std::mutex> lock(impl_->core.obs_mu);
  impl_->core.subscribers.push_back(std::move(subscriber));
}

void RunService::set_recorder(obs::RunRecorder* recorder) {
  // Under obs_mu: the telemetry hub may already be sampling.
  std::lock_guard<std::mutex> lock(impl_->core.obs_mu);
  impl_->core.recorder = recorder;
}

obs::MetricsSnapshot RunService::metrics_snapshot() const {
  const double at = std::chrono::duration<double>(
                        std::chrono::system_clock::now().time_since_epoch())
                        .count();
  std::lock_guard<std::mutex> lock(impl_->core.obs_mu);
  if (impl_->core.recorder == nullptr) return {};
  return obs::MetricsSnapshot::capture(impl_->core.recorder->metrics(), at);
}

void RunService::with_observability(
    const std::function<void(obs::RunRecorder&)>& fn) const {
  std::lock_guard<std::mutex> lock(impl_->core.obs_mu);
  if (impl_->core.recorder != nullptr) fn(*impl_->core.recorder);
}

obs::TelemetryHub* RunService::telemetry() { return impl_->hub.get(); }

data::InvocationCache* RunService::invocation_cache() {
  std::lock_guard<std::mutex> lock(impl_->core.lazy_mu);
  return impl_->core.shared_cache.get();
}

std::size_t RunService::shards() const { return impl_->shards.size(); }

std::vector<ShardStats> RunService::shard_stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(impl_->shards.size());
  for (const auto& shard : impl_->shards) stats.push_back(shard->stats());
  return stats;
}

void RunService::wait_idle() {
  Impl& im = *impl_;
  std::unique_lock<std::mutex> lock(im.core.live_mu);
  im.core.idle_cv.wait(lock, [&] { return im.core.live.empty(); });
}

std::size_t RunService::wait_any(std::span<const RunHandle> handles) {
  Impl& im = *impl_;
  bool any_valid = false;
  for (const auto& handle : handles) {
    if (handle.valid()) {
      any_valid = true;
      break;
    }
  }
  MOTEUR_REQUIRE(any_valid, ExecutionError, "wait_any needs at least one valid handle");
  std::unique_lock<std::mutex> lock(im.core.live_mu);
  for (;;) {
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (!handles[i].valid()) continue;
      if (is_terminal(handles[i].poll())) return i;
    }
    // No lost wakeup: a shard publishes the terminal state (under the
    // record's own mutex) before it can acquire live_mu to notify, and we
    // hold live_mu from the scan until the wait releases it.
    im.core.terminal_cv.wait(lock);
  }
}

void RunService::shutdown() {
  Impl& im = *impl_;
  std::vector<std::shared_ptr<RunRecord>> records;
  {
    std::lock_guard<std::mutex> lock(im.core.live_mu);
    im.stop = true;
    for (const auto& [id, rec] : im.core.live) records.push_back(rec);
  }
  for (const auto& rec : records) {
    std::lock_guard<std::mutex> lock(rec->mu);
    if (!is_terminal(rec->state)) rec->cancel_requested = true;
  }
  for (auto& shard : im.shards) shard->request_stop();
  {
    std::lock_guard<std::mutex> lock(im.join_mu);
    for (auto& shard : im.shards) shard->join();
  }
  // No shard drives the backend any more, so no transfer event can fire;
  // drop the sink before the core (and its recorder) go away.
  im.core.backend.set_event_sink(nullptr);
  // Nor can a run record into the shared breaker ledger: detach it, since
  // the backend outlives it.
  if (im.core.shared_health != nullptr) {
    im.core.backend.remove_health(im.core.shared_health.get());
    im.core.shared_health.reset();
  }
  // Shards are quiet: the hub's final frame sees the complete event stream.
  // Destroying it here keeps the telemetry() contract (valid until
  // shutdown) and releases the scrape socket with the service.
  if (im.hub != nullptr) {
    im.hub->stop();
    im.hub.reset();
  }
  // The workers are gone; make sure no handle can poke a dead service (a
  // retired run's poke is already cleared).
  for (const auto& rec : records) {
    std::lock_guard<std::mutex> lock(rec->mu);
    rec->poke = nullptr;
  }
}

}  // namespace moteur::service
