#include "enactor/sim_backend.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/dataref.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace moteur::enactor {

void SimGridBackend::execute(std::shared_ptr<services::Service> service,
                             std::vector<services::Inputs> bindings,
                             Callback on_complete) {
  execute(std::move(service), std::move(bindings), ExecOptions{},
          std::move(on_complete));
}

void SimGridBackend::execute(std::shared_ptr<services::Service> service,
                             std::vector<services::Inputs> bindings,
                             ExecOptions options, Callback on_complete) {
  MOTEUR_REQUIRE(!bindings.empty(), InternalError, "execute with no bindings");

  // One grid job for the whole batch: compute accumulates, transfers
  // accumulate, the middleware overhead is paid once.
  grid::JobRequest request;
  request.name = service->id();
  // With a catalog attached, each input becomes a per-file reference the
  // grid stages individually (local replicas are cheap, remote ones pay the
  // penalty). The references fully replace the aggregate input_megabytes in
  // the staging plan, so the fallback stays authoritative when any token
  // lacks a digest.
  bool refs_complete = catalog_ != nullptr;
  std::vector<double> output_mb_per_binding;
  output_mb_per_binding.reserve(bindings.size());
  // Source registrations are deferred until the whole batch is known to
  // stage per-file: an undigested token anywhere reverts the job to the
  // aggregate input_megabytes plan, and the catalog must not keep replicas
  // the job never stages (they would skew later data-aware ranking).
  std::vector<std::pair<std::string, double>> pending_sources;
  for (const auto& binding : bindings) {
    const grid::JobRequest profile = service->job_profile(binding);
    request.compute_seconds += profile.compute_seconds;
    request.input_megabytes += profile.input_megabytes;
    request.output_megabytes += profile.output_megabytes;
    output_mb_per_binding.push_back(profile.output_megabytes);
    if (!refs_complete) continue;
    // Ref-carrying tokens are sized by their replica; the profile's
    // aggregate, minus those, is spread over the refless (source) tokens so
    // the per-file plan still sums to the profile's input_megabytes.
    double ref_mb = 0.0;
    std::size_t refless = 0;
    for (const auto& [port, token] : binding) {
      if (token.ref() != nullptr) {
        ref_mb += token.ref()->size_mb;
      } else {
        ++refless;
      }
    }
    const double per_token =
        refless == 0 ? 0.0
                     : std::max(0.0, profile.input_megabytes - ref_mb) /
                           static_cast<double>(refless);
    for (const auto& [port, token] : binding) {
      if (token.ref() != nullptr) {
        request.input_refs.push_back(
            grid::DataStageRef{token.ref()->logical_name, token.ref()->size_mb});
      } else if (token.digest() != 0) {
        // Refless but digested (a source item): its bytes live at the
        // default storage element until replicated elsewhere.
        const std::string lfn = "lfn://" + data::digest_hex(token.digest());
        pending_sources.emplace_back(lfn, per_token);
        request.input_refs.push_back(grid::DataStageRef{lfn, per_token});
      } else {
        refs_complete = false;  // aggregate/undigested input: no file plan
        break;
      }
    }
  }
  if (refs_complete) {
    for (const auto& [lfn, megabytes] : pending_sources) {
      // Pinned: workflow sources are the lineage roots — pin-aware eviction
      // policies must never drop the last authoritative copy.
      catalog_->register_replica(lfn, grid_.close_storage_name(std::string()),
                                 megabytes, /*pinned=*/true);
    }
  } else {
    request.input_refs.clear();
  }
  if (bindings.size() > 1) {
    request.name += "[x" + std::to_string(bindings.size()) + "]";
  }
  request.matchmaking = options.matchmaking;
  request.avoid_ces = std::move(options.avoid_ces);
  if (metrics_ != nullptr && options.placement && !request.avoid_ces.empty()) {
    metrics_
        ->counter("moteur_policy_decisions_total",
                  "Policy decisions by policy name and decision kind",
                  {{"policy", policy::to_string(*options.placement)},
                   {"kind", "placement"}})
        .inc();
  }

  ++jobs_submitted_;
  ++in_flight_;
  const double submit_time = grid_.simulator().now();
  grid_.submit(std::move(request), [this, service = std::move(service),
                                    bindings = std::move(bindings),
                                    on_complete = std::move(on_complete),
                                    output_mb_per_binding = std::move(output_mb_per_binding),
                                    submit_time](const grid::JobRecord& record) {
    --in_flight_;
    if (metrics_ != nullptr) {
      metrics_
          ->counter("moteur_grid_jobs_total", "Grid jobs by computing element and final state",
                    {{"ce", record.computing_element}, {"state", grid::to_string(record.state)}})
          .inc();
      if (record.queue_exit_time >= record.match_time && record.match_time >= 0.0) {
        metrics_
            ->histogram("moteur_grid_batch_queue_seconds",
                        "Site batch-queue residency of the last attempt, per CE",
                        obs::Histogram::latency_bounds(), {{"ce", record.computing_element}})
            .observe(record.queue_seconds());
      }
    }
    Outcome outcome;
    outcome.submit_time = submit_time;
    outcome.start_time = record.run_start_time;
    outcome.end_time = record.completion_time;
    outcome.job = record;
    if (record.state == grid::JobState::kDone) {
      outcome.results.reserve(bindings.size());
      const bool make_refs = catalog_ != nullptr && service->deterministic();
      const std::uint64_t service_digest = make_refs ? service->content_digest() : 0;
      for (std::size_t i = 0; i < bindings.size(); ++i) {
        services::Result result = service->synthesize_outputs(bindings[i]);
        // Stage-out bookkeeping: each produced output becomes a replica at
        // the executing CE's close storage element, addressed by its content
        // chain (H(service, port, (input port, input digest) pairs)), so
        // repeats of the same content share the same logical file.
        if (make_refs) {
          std::vector<data::PortDigest> input_digests;
          input_digests.reserve(bindings[i].size());
          bool digested = true;
          for (const auto& [port, token] : bindings[i]) {
            if (token.digest() == 0) {
              digested = false;
              break;
            }
            input_digests.emplace_back(port, token.digest());
          }
          if (digested && !result.outputs.empty()) {
            const double mb_per_output =
                output_mb_per_binding[i] / static_cast<double>(result.outputs.size());
            const std::vector<std::string> targets =
                grid_.replica_targets(record.computing_element);
            for (auto& [port, value] : result.outputs) {
              const std::uint64_t digest =
                  data::derived_digest(service_digest, port, input_digests);
              const std::string lfn = "lfn://" + data::digest_hex(digest);
              for (const std::string& se : targets) {
                catalog_->register_replica(lfn, se, mb_per_output);
              }
              // Background replication: `fanout-k` copies the fresh
              // output to further SEs via SE→SE transfers.
              grid_.note_replica_registered(
                  lfn, grid_.close_storage_name(record.computing_element),
                  mb_per_output);
              value.ref = std::make_shared<const data::DataRef>(
                  data::DataRef{lfn, mb_per_output, digest});
            }
            if (metrics_ != nullptr) {
              metrics_
                  ->counter("moteur_policy_decisions_total",
                            "Policy decisions by policy name and decision kind",
                            {{"policy", grid_.config().replica_policy},
                             {"kind", "replica"}})
                  .inc();
            }
          }
        }
        outcome.results.push_back(std::move(result));
      }
    } else if (!record.lost_files.empty()) {
      // Every replica of at least one input file is gone: resubmission
      // cannot help; the enactor's lineage recovery must regenerate it.
      outcome.status = OutcomeStatus::kDataLost;
      outcome.lost_files = record.lost_files;
      outcome.error = "grid job '" + record.name + "' lost " +
                      std::to_string(record.lost_files.size()) +
                      " input file(s): no replica survives (first: " +
                      record.lost_files.front() + ")";
    } else {
      // Middleware/site faults are transient by nature: a resubmission draws
      // a fresh broker match. Only cancellation is final.
      outcome.status = record.state == grid::JobState::kCancelled
                           ? OutcomeStatus::kDefinitive
                           : OutcomeStatus::kTransient;
      outcome.error = "grid job '" + record.name + "' ended in state " +
                      std::string(grid::to_string(record.state)) + " after " +
                      std::to_string(record.attempts) + " attempts";
    }
    on_complete(std::move(outcome));
  });
}

void SimGridBackend::set_event_sink(std::function<void(const obs::RunEvent&)> sink) {
  sink_ = std::move(sink);
  if (!sink_) {
    grid_.set_transfer_listener(nullptr);
    return;
  }
  grid_.set_transfer_listener([this](const grid::TransferEvent& transfer) {
    if (!sink_) return;
    obs::RunEvent event;
    event.kind = transfer.phase == grid::TransferEvent::Phase::kStarted
                     ? obs::RunEvent::Kind::kTransferStarted
                     : obs::RunEvent::Kind::kTransferDone;
    event.time = transfer.time;
    event.logical_file = transfer.lfn;
    event.from_se = transfer.from_se;
    event.to_se = transfer.to_se;
    event.megabytes = transfer.megabytes;
    event.trigger = transfer.trigger;
    event.end_time = transfer.time;
    event.stage_in_seconds = transfer.elapsed_seconds;
    sink_(event);
  });
}

ExecutionBackend::TimerId SimGridBackend::schedule(double delay_seconds,
                                                   std::function<void()> fn) {
  ++live_timers_;
  return grid_.simulator().schedule(delay_seconds, [this, fn = std::move(fn)] {
    --live_timers_;
    fn();
  });
}

void SimGridBackend::cancel(TimerId id) {
  if (grid_.simulator().cancel(id)) --live_timers_;
}

bool SimGridBackend::drive(const std::function<bool()>& done) {
  while (!done()) {
    // Live timers (resubmission watchdogs, backoff delays) are pending work
    // even when no job is in flight.
    if (in_flight_ == 0 && live_timers_ == 0) return false;
    if (!grid_.simulator().step()) return false;
  }
  return true;
}

}  // namespace moteur::enactor
