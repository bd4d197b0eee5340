#include "grid/grid.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace moteur::grid {

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kSubmitted: return "Submitted";
    case JobState::kScheduled: return "Scheduled";
    case JobState::kTransferringIn: return "TransferringIn";
    case JobState::kRunning: return "Running";
    case JobState::kTransferringOut: return "TransferringOut";
    case JobState::kDone: return "Done";
    case JobState::kFailed: return "Failed";
    case JobState::kCancelled: return "Cancelled";
  }
  return "?";
}

Grid::Grid(sim::Simulator& simulator, GridConfig config)
    : simulator_(simulator),
      config_(std::move(config)),
      replica_(
          policy::parse<policy::Replica>(config_.replica_policy, "grid replica policy")),
      replication_(policy::parse<policy::Replication>(config_.replication_policy,
                                                      "grid replication policy")),
      eviction_(policy::parse<policy::Eviction>(config_.replica_eviction_policy,
                                                "grid eviction policy")),
      rng_(config_.seed),
      overhead_(config_, rng_),
      ui_(simulator, 1),
      ui_rng_(rng_.fork("ui")),
      broker_(simulator, overhead_, config_.broker_concurrency,
              config_.broker_occupancy_fraction, rng_,
              policy::parse<policy::Matchmaking>(config_.matchmaking_policy,
                                                 "grid matchmaking policy")),
      storage_(simulator, "se0", config_.transfer_latency_seconds,
               config_.transfer_bandwidth_mb_per_s),
      se_rng_(rng_.fork("se.faults")) {
  MOTEUR_REQUIRE(!config_.computing_elements.empty(), ExecutionError,
                 "grid config has no computing elements");
  storage_by_name_[storage_.name()] = &storage_;
  storage_.set_outages(config_.default_se_outages);
  storage_.set_replica_fault_probabilities(config_.replica_loss_probability,
                                           config_.replica_corruption_probability);
  for (const auto& se_config : config_.storage_elements) {
    auto se = std::make_unique<StorageElement>(
        simulator, se_config.name, se_config.transfer_latency_seconds,
        se_config.transfer_bandwidth_mb_per_s, se_config.channels);
    se->set_outages(se_config.outages);
    se->set_replica_fault_probabilities(
        se_config.replica_loss_probability < 0.0 ? config_.replica_loss_probability
                                                 : se_config.replica_loss_probability,
        se_config.replica_corruption_probability < 0.0
            ? config_.replica_corruption_probability
            : se_config.replica_corruption_probability);
    storage_by_name_[se->name()] = se.get();
    extra_storage_.push_back(std::move(se));
  }
  for (const auto& [se_name, se] : storage_by_name_) {
    if (se->replica_loss_probability() > 0.0 ||
        se->replica_corruption_probability() > 0.0 || !se->outages().empty()) {
      storage_faults_enabled_ = true;
    }
    // Mirror the deterministic outage schedule into the catalog's per-SE
    // health view at each window boundary, so data-aware matchmaking (and
    // the enactor) see dead SEs without polling. Only scheduled when
    // outages exist: the zero-fault event queue is untouched.
    for (const auto& window : se->outages()) {
      const double now = simulator_.now();
      const double down_at = window.start_seconds;
      const double up_at = window.start_seconds + window.duration_seconds;
      StorageElement* element = se;
      if (down_at >= now) {
        simulator_.schedule(down_at - now, [this, element] {
          if (catalog_ != nullptr) {
            catalog_->set_se_available(element->name(),
                                       element->available_at(simulator_.now()));
          }
        });
      }
      if (up_at >= now) {
        simulator_.schedule(up_at - now, [this, element] {
          if (catalog_ != nullptr) {
            catalog_->set_se_available(element->name(),
                                       element->available_at(simulator_.now()));
          }
        });
      }
    }
  }
  for (const auto& [se_name, se] : storage_by_name_) storage_names_.push_back(se_name);
  if (config_.orchestrator_bandwidth_mbps > 0.0) {
    ui_link_ = std::make_unique<sim::Resource>(simulator, 1);
  }
  for (const auto& ce_config : config_.computing_elements) {
    auto close = storage_by_name_.find(ce_config.close_storage_element);
    close_storage_[ce_config.name] =
        close == storage_by_name_.end() ? &storage_ : close->second;
    broker_.add_computing_element(
        std::make_unique<ComputingElement>(simulator, ce_config, rng_));
  }
  if (config_.background_jobs_per_hour > 0.0) {
    background_ = std::make_unique<BackgroundLoad>(
        simulator, broker_, config_.background_jobs_per_hour,
        config_.background_mean_duration, config_.background_horizon_seconds, rng_);
  }
}

JobId Grid::submit(JobRequest request, CompletionCallback on_complete) {
  auto job = std::make_shared<PendingJob>();
  job->record.id = next_job_id_++;
  job->record.name = request.name;
  job->record.submit_time = simulator_.now();
  job->request = std::move(request);
  job->on_complete = std::move(on_complete);
  ++stats_.submitted;
  MOTEUR_LOG(kDebug, "grid") << "submit job " << job->record.id << " '" << job->request.name
                             << "' compute=" << job->request.compute_seconds << "s";
  start_attempt(job);
  if (config_.speculative_timeout_seconds > 0.0) arm_speculative_watchdog(job);
  return job->record.id;
}

void Grid::arm_speculative_watchdog(const std::shared_ptr<PendingJob>& job) {
  simulator_.schedule(config_.speculative_timeout_seconds, [this, job] {
    if (job->completed) return;
    if (job->clones_launched >= config_.speculative_max_clones) return;
    if (job->record.attempts >= config_.max_attempts) return;
    ++job->clones_launched;
    MOTEUR_LOG(kDebug, "grid") << "job " << job->record.id
                               << " exceeded the speculative timeout; racing a clone";
    start_attempt(job);
    arm_speculative_watchdog(job);  // a later clone may still be allowed
  });
}

void Grid::start_attempt(const std::shared_ptr<PendingJob>& job) {
  ++job->record.attempts;
  ++job->in_flight_attempts;
  job->record.state = JobState::kSubmitted;
  const AttemptKey attempt = attempts_.insert(Attempt{job});
  // The submission command serializes on the UI host before the request
  // reaches the broker (resubmissions pay it again).
  ui_.acquire([this, attempt] {
    const double ui_seconds =
        OverheadModel::sample(config_.ui_submission_latency, ui_rng_);
    simulator_.schedule(ui_seconds, [this, attempt] {
      ui_.release();
      submit_to_broker(attempt);
    });
  });
}

void Grid::submit_to_broker(AttemptKey attempt) {
  const JobRequest& request = attempts_[attempt].job->request;
  ResourceBroker::StageInEstimator stage_in;
  if (catalog_ != nullptr && !request.input_refs.empty() &&
      policy::wants_stage_in(request.matchmaking.value_or(broker_.default_matchmaking()))) {
    stage_in = [this, attempt](const ComputingElement& ce) {
      return stage_in_estimate_seconds(attempts_[attempt].job->request, ce.name());
    };
  }
  broker_.submit([this, attempt](ComputingElement& ce) { on_matched(attempt, ce); },
                 std::move(stage_in), {request.matchmaking, request.avoid_ces});
}

void Grid::on_matched(AttemptKey attempt, ComputingElement& ce) {
  attempts_[attempt].ce = &ce;
  PendingJob& job = *attempts_[attempt].job;
  job.record.match_time = simulator_.now();
  job.record.state = JobState::kScheduled;
  job.record.computing_element = ce.name();
  if (replication_ == policy::Replication::kPushToConsumer) {
    // Start copying missing inputs toward the matched CE's close SE now,
    // overlapping the transfer with the queueing delay.
    maybe_push_for_match(job.request, ce.name());
  }
  enter_site(attempt);
}

void Grid::set_metrics(obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  broker_.set_metrics(metrics);
}

void Grid::set_catalog(data::ReplicaCatalog* catalog) {
  catalog_ = catalog;
  if (catalog_ == nullptr) return;
  if (config_.default_se_capacity_mb > 0.0) {
    catalog_->set_se_capacity(storage_.name(), config_.default_se_capacity_mb);
  }
  for (const auto& se_config : config_.storage_elements) {
    if (se_config.capacity_mb > 0.0) {
      catalog_->set_se_capacity(se_config.name, se_config.capacity_mb);
    }
  }
  catalog_->set_eviction_policy(eviction_);
}

void Grid::record_ui_bytes(double megabytes) {
  if (megabytes <= 0.0) return;
  stats_.ui_megabytes += megabytes;
  if (metrics_ != nullptr) {
    metrics_
        ->counter("moteur_ui_bytes_total",
                  "Megabytes staged through the orchestrator/UI link")
        .inc(megabytes);
  }
}

void Grid::ui_stage(double megabytes, sim::Function<void(double)> on_done) {
  if (ui_link_ == nullptr || megabytes <= 0.0) {
    // Unlimited link: no queueing, no extra event — the historical path.
    on_done(0.0);
    return;
  }
  const auto staging = ui_stagings_.insert(
      {simulator_.now(), megabytes / config_.orchestrator_bandwidth_mbps, std::move(on_done)});
  ui_link_->acquire([this, staging] {
    simulator_.schedule(ui_stagings_[staging].seconds, [this, staging] {
      const UiStaging done = ui_stagings_.take(staging);
      ui_link_->release();
      ui_busy_seconds_ += done.seconds;
      if (metrics_ != nullptr && simulator_.now() > 0.0) {
        metrics_
            ->gauge("moteur_ui_link_utilization",
                    "Busy fraction of the finite orchestrator/UI link")
            .set(ui_busy_seconds_ / simulator_.now());
      }
      done.on_done(simulator_.now() - done.start);
    });
  });
}

std::string Grid::cheapest_live_source(const std::string& lfn,
                                       const std::string& to_se) {
  if (catalog_ == nullptr) return {};
  auto to_it = storage_by_name_.find(to_se);
  if (to_it == storage_by_name_.end()) return {};
  StorageElement& to = *to_it->second;
  const double now = simulator_.now();
  const double megabytes = catalog_->size_mb(lfn);
  std::string best;
  double best_cost = 0.0;
  for (const std::string& candidate : catalog_->locate(lfn)) {
    if (candidate == to_se) return {};  // already resident at the destination
    auto it = storage_by_name_.find(candidate);
    if (it == storage_by_name_.end()) continue;
    if (!it->second->available_at(now)) continue;
    const double cost = to.pairwise_seconds(*it->second, megabytes);
    if (best.empty() || cost < best_cost) {  // ties keep registration order
      best = candidate;
      best_cost = cost;
    }
  }
  return best;
}

void Grid::start_transfer(const std::string& lfn, double megabytes,
                          const std::string& from_se, const std::string& to_se,
                          obs::Name trigger) {
  if (catalog_ == nullptr || from_se == to_se) return;
  if (storage_by_name_.count(from_se) == 0 || storage_by_name_.count(to_se) == 0) return;
  if (catalog_->has(lfn, to_se)) return;
  const std::string key = lfn + "|" + to_se;
  if (!pending_transfers_.insert(key).second) return;  // already in flight
  ++stats_.transfers_started;
  if (metrics_ != nullptr) {
    metrics_
        ->counter("moteur_transfer_requests_total",
                  "SE-to-SE third-party transfer requests by trigger",
                  {{"trigger", trigger.str()}})
        .inc();
  }
  if (transfer_listener_) {
    transfer_listener_({TransferEvent::Phase::kStarted, simulator_.now(), lfn,
                        storage_by_name_.at(from_se)->interned_name(),
                        storage_by_name_.at(to_se)->interned_name(), megabytes, trigger,
                        0.0});
  }
  begin_transfer(lfn, megabytes, from_se, to_se, trigger);
}

void Grid::begin_transfer(const std::string& lfn, double megabytes,
                          const std::string& from_se, const std::string& to_se,
                          obs::Name trigger) {
  const std::string key = lfn + "|" + to_se;
  StorageElement& to = *storage_by_name_.at(to_se);
  const double now = simulator_.now();
  // The source replica may have vanished (loss, corruption, eviction) since
  // the request was issued: re-pick the cheapest live copy, or abandon.
  std::string source = from_se;
  if (!catalog_->has(lfn, source) ||
      !storage_by_name_.at(source)->available_at(now)) {
    source = cheapest_live_source(lfn, to_se);
    if (source.empty()) {
      pending_transfers_.erase(key);
      return;
    }
  }
  StorageElement& from = *storage_by_name_.at(source);
  const double ready = std::max(from.next_available(now), to.next_available(now));
  if (ready > now) {
    // An endpoint is inside an outage window: defer the start until both
    // are reachable (deterministic — the schedule is config data).
    simulator_.schedule(ready - now, [this, lfn, megabytes, from_se, to_se, trigger] {
      begin_transfer(lfn, megabytes, from_se, to_se, trigger);
    });
    return;
  }
  to.transfer_from(from, megabytes, [this, lfn, megabytes, source, to_se, from_se,
                                     trigger](double elapsed) {
    StorageElement& dest = *storage_by_name_.at(to_se);
    const double done_at = simulator_.now();
    if (!dest.available_at(done_at)) {
      // The destination dropped mid-transfer; the copy restarts when the
      // outage window closes.
      simulator_.schedule(dest.next_available(done_at) - done_at,
                          [this, lfn, megabytes, from_se, to_se, trigger] {
                            begin_transfer(lfn, megabytes, from_se, to_se, trigger);
                          });
      return;
    }
    pending_transfers_.erase(lfn + "|" + to_se);
    catalog_->register_replica(lfn, to_se, megabytes);
    ++stats_.transfers_completed;
    stats_.transfer_megabytes += megabytes;
    if (metrics_ != nullptr) {
      metrics_
          ->counter("moteur_transfer_completed_total",
                    "SE-to-SE third-party transfers completed")
          .inc();
      metrics_
          ->counter("moteur_transfer_megabytes_total",
                    "Megabytes moved by SE-to-SE third-party transfers")
          .inc(megabytes);
    }
    if (transfer_listener_) {
      transfer_listener_({TransferEvent::Phase::kDone, done_at, lfn,
                          storage_by_name_.at(source)->interned_name(),
                          dest.interned_name(), megabytes, trigger, elapsed});
    }
  });
}

void Grid::maybe_push_for_match(const JobRequest& request, const std::string& ce_name) {
  if (catalog_ == nullptr || request.input_refs.empty()) return;
  static const obs::Name kMatch("match");
  const std::string target = close_storage_name(ce_name);
  for (const auto& ref : request.input_refs) {
    if (catalog_->has(ref.logical_name, target)) continue;
    const std::string source = cheapest_live_source(ref.logical_name, target);
    if (source.empty()) continue;
    start_transfer(ref.logical_name, ref.megabytes, source, target, kMatch);
  }
}

void Grid::note_replica_registered(const std::string& lfn, const std::string& se_name,
                                   double megabytes) {
  if (catalog_ == nullptr || replication_ != policy::Replication::kFanoutK) return;
  // fanout-k: copy to the first two other SEs, in deterministic order.
  static const obs::Name kFanout("fanout");
  std::size_t copies = 0;
  for (const std::string& target : storage_names_) {
    if (copies == 2) break;
    if (target == se_name) continue;
    start_transfer(lfn, megabytes, se_name, target, kFanout);
    ++copies;
  }
}

std::vector<std::string> Grid::replica_targets(const std::string& ce_name) {
  if (replica_ == policy::Replica::kBroadcast) return storage_names_;
  return {close_storage_name(ce_name)};
}

StorageElement& Grid::close_storage(const std::string& ce_name) {
  auto it = close_storage_.find(ce_name);
  return it == close_storage_.end() ? storage_ : *it->second;
}

const std::string& Grid::close_storage_name(const std::string& ce_name) {
  return close_storage(ce_name).name();
}

Grid::StagePlan Grid::plan_stage_in(const JobRequest& request,
                                    const std::string& ce_name) const {
  StagePlan plan;
  if (catalog_ == nullptr || request.input_refs.empty()) {
    plan.effective_megabytes = request.input_megabytes;
    return plan;
  }
  auto close = close_storage_.find(ce_name);
  const std::string& se_name =
      close == close_storage_.end() ? storage_.name() : close->second->name();
  for (const auto& ref : request.input_refs) {
    price_ref(plan, ref.megabytes, !catalog_->has(ref.logical_name, se_name));
  }
  return plan;
}

void Grid::price_ref(StagePlan& plan, double megabytes, bool remote) const {
  plan.effective_megabytes += remote ? megabytes * config_.remote_transfer_penalty : megabytes;
  if (remote) plan.remote_megabytes += megabytes;
}

double Grid::stage_in_estimate_seconds(const JobRequest& request,
                                       const std::string& ce_name) {
  if (catalog_ == nullptr) return 0.0;
  const StagePlan plan = plan_stage_in(request, ce_name);
  StorageElement& se = close_storage(ce_name);
  double estimate = se.nominal_seconds(plan.effective_megabytes);
  if (storage_faults_enabled_) {
    // A down close SE must stop attracting jobs: charge the wait until it
    // recovers, per the catalog's health view (maintained by the outage
    // schedule) and the SE's own deterministic windows.
    const double now = simulator_.now();
    if (!catalog_->se_available(se.name()) || !se.available_at(now)) {
      estimate += se.next_available(now) - now;
    }
  }
  return estimate;
}

Grid::StageResolution Grid::resolve_stage_in(const JobRequest& request,
                                             const std::string& se_name) {
  StageResolution res;
  if (catalog_ == nullptr || request.input_refs.empty()) {
    res.effective_megabytes = request.input_megabytes;
    return res;
  }
  for (const auto& ref : request.input_refs) {
    if (!storage_faults_enabled_) {
      price_ref(res, ref.megabytes, !catalog_->has(ref.logical_name, se_name));
      catalog_->touch(ref.logical_name);
      continue;
    }
    // Candidate replicas, the close SE's copy first, then the rest in
    // registration order. Each candidate is probed in turn — down SEs are
    // skipped, lost and corrupt copies are invalidated — until one survives
    // or the file is declared lost.
    std::vector<std::string> candidates = catalog_->locate(ref.logical_name);
    const auto close = std::find(candidates.begin(), candidates.end(), se_name);
    if (close != candidates.end()) std::rotate(candidates.begin(), close, close + 1);
    if (decentralized_reads() && candidates.size() > 1) {
      // Peer pulls probe the cheapest live copy first: order failover
      // candidates by pairwise transfer cost onto the close SE (the local
      // copy costs nothing and stays in front). Stable, so the close-first
      // registration order still breaks exact cost ties.
      auto dest_it = storage_by_name_.find(se_name);
      if (dest_it != storage_by_name_.end()) {
        StorageElement& dest = *dest_it->second;
        const double megabytes = ref.megabytes;
        auto cost_of = [&](const std::string& candidate) {
          if (candidate == se_name) return 0.0;
          auto it = storage_by_name_.find(candidate);
          if (it == storage_by_name_.end()) return 1e300;
          return dest.pairwise_seconds(*it->second, megabytes);
        };
        std::stable_sort(candidates.begin(), candidates.end(),
                         [&](const std::string& a, const std::string& b) {
                           return cost_of(a) < cost_of(b);
                         });
      }
    }
    const double now = simulator_.now();
    bool staged = false;
    int skipped = 0;
    for (const auto& candidate : candidates) {
      auto se_it = storage_by_name_.find(candidate);
      StorageElement* candidate_se = se_it == storage_by_name_.end() ? nullptr : se_it->second;
      if (candidate_se != nullptr && !candidate_se->available_at(now)) {
        // The hosting SE is down; the copy is intact and comes back with it.
        ++skipped;
        continue;
      }
      const double loss = candidate_se != nullptr ? candidate_se->replica_loss_probability()
                                                  : config_.replica_loss_probability;
      if (loss > 0.0 && se_rng_.bernoulli(loss)) {
        catalog_->invalidate_replica(ref.logical_name, candidate);
        ++res.faults;
        ++skipped;
        continue;
      }
      const bool remote = candidate != se_name;
      const double corruption = candidate_se != nullptr
                                    ? candidate_se->replica_corruption_probability()
                                    : config_.replica_corruption_probability;
      if (corruption > 0.0 && se_rng_.bernoulli(corruption)) {
        // The transfer completes but the DataRef digest check fails: the
        // bytes are wasted, the bad copy is dropped, and the next replica
        // is tried.
        price_ref(res, ref.megabytes, remote);
        catalog_->invalidate_replica(ref.logical_name, candidate);
        ++res.faults;
        ++skipped;
        continue;
      }
      price_ref(res, ref.megabytes, remote);
      if (skipped > 0) ++res.failovers;
      catalog_->touch(ref.logical_name);
      staged = true;
      break;
    }
    if (!staged) res.lost_files.push_back(ref.logical_name);
  }
  return res;
}

void Grid::enter_site(AttemptKey attempt) {
  // Residual middleware queueing latency, then the site batch system.
  const double queueing = overhead_.sample_queueing();
  simulator_.schedule(queueing, [this, attempt] {
    attempts_[attempt].ce->acquire_slot([this, attempt] {
      attempts_[attempt].job->record.queue_exit_time = simulator_.now();
      run_in_slot(attempt);
    });
  });
}

std::shared_ptr<Grid::PendingJob> Grid::end_attempt(AttemptKey attempt) {
  Attempt ended = attempts_.take(attempt);
  ended.ce->release_slot();
  --ended.job->in_flight_attempts;
  return std::move(ended.job);
}

void Grid::fail_attempt(AttemptKey attempt, bool se_down) {
  const ComputingElement& ce = *attempts_[attempt].ce;
  const std::shared_ptr<PendingJob> job = end_attempt(attempt);
  if (job->completed) return;  // a racing clone already finished the job
  ++stats_.failed_attempts;
  if (se_down) {
    MOTEUR_LOG(kDebug, "grid") << "job " << job->record.id << " attempt "
                               << job->record.attempts
                               << " could not stage in: close SE of " << ce.name()
                               << " is down";
  } else {
    MOTEUR_LOG(kDebug, "grid") << "job " << job->record.id << " attempt "
                               << job->record.attempts << " failed on " << ce.name();
  }
  if (job->record.attempts >= config_.max_attempts) {
    // Definitive only once no racing attempt can still succeed.
    if (job->in_flight_attempts == 0) finish(job, JobState::kFailed);
  } else {
    start_attempt(job);
  }
}

void Grid::run_in_slot(AttemptKey attempt) {
  Attempt& a = attempts_[attempt];
  PendingJob& job = *a.job;
  ComputingElement& ce = *a.ce;
  double payload_seconds =
      job.request.compute_seconds * overhead_.sample_compute_factor() / ce.speed_factor();
  if (overhead_.sample_stuck()) {
    payload_seconds *= config_.stuck_job_factor;
    MOTEUR_LOG(kDebug, "grid") << "job " << job.record.id << " attempt "
                               << job.record.attempts << " is stuck on " << ce.name()
                               << " (payload x" << config_.stuck_job_factor << ")";
  }

  StorageElement& se = close_storage(ce.name());
  const StagePlan stage = plan_stage_in(job.request, ce.name());

  if (overhead_.sample_failure(ce.failure_probability())) {
    // The attempt dies partway through: it wastes worker time, then either
    // resubmits (fresh overhead draw — the paper's "D0 was submitted twice"
    // scenario) or gives up.
    const double wasted =
        config_.failure_detection_fraction *
        (se.nominal_seconds(stage.effective_megabytes) + payload_seconds);
    simulator_.schedule(wasted, [this, attempt] { fail_attempt(attempt, false); });
    return;
  }

  // A losing clone may still be in the pipeline after a racer finished:
  // guard every stage so it neither touches the record nor finishes twice,
  // and releases its worker slot as soon as it notices.
  if (job.completed) {
    end_attempt(attempt);
    return;
  }

  if (storage_faults_enabled_ && !se.available_at(simulator_.now())) {
    // The close SE is down: the stage-in errors out after a detection
    // delay, the attempt dies, and the job resubmits (data-aware
    // matchmaking steers the retry toward CEs whose SE is up).
    const double wasted = config_.failure_detection_fraction *
                          se.nominal_seconds(stage.effective_megabytes);
    ++job.record.replica_faults;
    ++stats_.replica_faults;
    simulator_.schedule(wasted, [this, attempt] { fail_attempt(attempt, true); });
    return;
  }

  StageResolution resolution = resolve_stage_in(job.request, se.name());
  job.record.replica_faults += resolution.faults;
  job.record.replica_failovers += resolution.failovers;
  stats_.replica_faults += static_cast<std::size_t>(resolution.faults);
  stats_.replica_failovers += static_cast<std::size_t>(resolution.failovers);
  if (!resolution.lost_files.empty()) {
    // Every replica of at least one input is gone. Resubmitting cannot help
    // — only the enactor's lineage recovery can regenerate the file — so
    // the job fails immediately with the loss spelled out.
    const std::shared_ptr<PendingJob> lost = end_attempt(attempt);
    if (lost->completed) return;
    ++stats_.failed_attempts;
    ++stats_.data_lost_jobs;
    lost->record.lost_files = std::move(resolution.lost_files);
    MOTEUR_LOG(kDebug, "grid") << "job " << lost->record.id << " lost "
                               << lost->record.lost_files.size()
                               << " input file(s); no replica survives";
    if (lost->in_flight_attempts == 0) finish(lost, JobState::kFailed);
    return;
  }

  // Which bytes round-trip through the orchestrator: under a decentralized
  // replication policy reads come off the SE fabric (remote ones as peer
  // pulls), otherwise every staged byte crosses the UI link.
  a.se = &se;
  a.payload_seconds = payload_seconds;
  a.staged_megabytes = resolution.effective_megabytes;
  a.remote_megabytes = resolution.remote_megabytes;
  a.peer_routed = decentralized_reads() && catalog_ != nullptr;
  job.record.state = JobState::kTransferringIn;
  ui_stage(a.peer_routed ? 0.0 : a.staged_megabytes,
           [this, attempt](double ui_in_seconds) { on_ui_staged_in(attempt, ui_in_seconds); });
}

void Grid::on_ui_staged_in(AttemptKey attempt, double ui_in_seconds) {
  Attempt& a = attempts_[attempt];
  if (a.job->completed) {
    end_attempt(attempt);
    return;
  }
  a.ui_in_seconds = ui_in_seconds;
  a.se->transfer(a.staged_megabytes,
                 [this, attempt](double in_seconds) { on_staged_in(attempt, in_seconds); });
}

void Grid::on_staged_in(AttemptKey attempt, double in_seconds) {
  const Attempt& a = attempts_[attempt];
  JobRecord& record = a.job->record;
  if (a.job->completed) {
    end_attempt(attempt);
    return;
  }
  const double ui_in_mb = a.peer_routed ? 0.0 : a.staged_megabytes;
  record.input_transfer_seconds += in_seconds + a.ui_in_seconds;
  record.ui_transfer_seconds += a.ui_in_seconds;
  record.bytes_via_ui += ui_in_mb;
  record.bytes_peer += a.peer_routed ? a.remote_megabytes : 0.0;
  record_ui_bytes(ui_in_mb);
  record.staging_element = a.se->name();
  record.staged_in_megabytes += a.staged_megabytes;
  record.remote_input_megabytes += a.remote_megabytes;
  record.state = JobState::kRunning;
  record.run_start_time = simulator_.now();
  simulator_.schedule(a.payload_seconds, [this, attempt] { on_payload_done(attempt); });
}

void Grid::on_payload_done(AttemptKey attempt) {
  const Attempt& a = attempts_[attempt];
  PendingJob& job = *a.job;
  if (job.completed) {
    end_attempt(attempt);
    return;
  }
  job.record.run_end_time = simulator_.now();
  job.record.state = JobState::kTransferringOut;
  a.se->transfer(job.request.output_megabytes,
                 [this, attempt](double out_seconds) { on_staged_out(attempt, out_seconds); });
}

void Grid::on_staged_out(AttemptKey attempt, double out_seconds) {
  const Attempt& a = attempts_[attempt];
  PendingJob& job = *a.job;
  a.ce->release_slot();
  --job.in_flight_attempts;
  if (job.completed) {  // a racing clone won; discard this result
    attempts_.take(attempt);
    return;
  }
  job.record.output_transfer_seconds += out_seconds;
  // Centralized stage-out crosses the contended UI link after the SE
  // write; the worker slot is already free while the result drains.
  ui_stage(a.peer_routed ? 0.0 : job.request.output_megabytes,
           [this, attempt](double ui_out_seconds) { on_ui_staged_out(attempt, ui_out_seconds); });
}

void Grid::on_ui_staged_out(AttemptKey attempt, double ui_out_seconds) {
  const Attempt done = attempts_.take(attempt);
  JobRecord& record = done.job->record;
  if (done.job->completed) return;  // a racing clone finished meanwhile
  const double out_ui_mb = done.peer_routed ? 0.0 : done.job->request.output_megabytes;
  record.output_transfer_seconds += ui_out_seconds;
  record.ui_transfer_seconds += ui_out_seconds;
  record.bytes_via_ui += out_ui_mb;
  record_ui_bytes(out_ui_mb);
  // A still-racing clone's later match (or stage-in) may have overwritten
  // the placement fields; reassert the winning attempt's CE so replica
  // registration and completion consumers see where the job actually ran —
  // not where a losing clone was matched.
  record.computing_element = done.ce->name();
  record.staging_element = close_storage(done.ce->name()).name();
  finish(done.job, JobState::kDone);
}

void Grid::finish(const std::shared_ptr<PendingJob>& job, JobState final_state) {
  MOTEUR_REQUIRE(!job->completed, InternalError, "job finished twice");
  job->completed = true;
  job->record.state = final_state;
  job->record.completion_time = simulator_.now();
  if (final_state == JobState::kDone) {
    ++stats_.done;
    stats_.overhead_seconds.add(job->record.overhead_seconds());
    stats_.total_seconds.add(job->record.total_seconds());
    if (catalog_ != nullptr && !job->request.input_refs.empty()) {
      // After a successful stage-in the staging SE holds a copy of every
      // input file: register replicas on the replica policy's targets (the
      // close SE by default) so later jobs can be placed next to them.
      for (const std::string& se_name : replica_targets(job->record.computing_element)) {
        for (const auto& ref : job->request.input_refs) {
          catalog_->register_replica(ref.logical_name, se_name, ref.megabytes);
        }
      }
      if (metrics_ != nullptr) {
        metrics_
            ->counter("moteur_policy_decisions_total",
                      "Policy decisions by policy name and decision kind",
                      {{"policy", policy::to_string(replica_)}, {"kind", "replica"}})
            .inc();
      }
    }
  } else {
    ++stats_.failed;
  }
  completed_.push_back(job->record);
  MOTEUR_LOG(kDebug, "grid") << "job " << job->record.id << " "
                             << to_string(final_state) << " total="
                             << job->record.total_seconds() << "s";
  if (job->on_complete) job->on_complete(job->record);
}

}  // namespace moteur::grid
