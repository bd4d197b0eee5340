#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "policy/policy.hpp"
#include "sim/simulator.hpp"

namespace moteur::grid {

using JobId = std::uint64_t;

/// LCG2-style job lifecycle, simplified to the states the paper's analysis
/// distinguishes: everything before Running is "overhead" (submission,
/// scheduling, queuing); Running is payload execution; transfers bracket it.
enum class JobState {
  kSubmitted,    // accepted by the user interface / resource broker
  kScheduled,    // matched to a computing element, in its batch queue
  kTransferringIn,
  kRunning,
  kTransferringOut,
  kDone,
  kFailed,       // exhausted retries
  kCancelled,
};

const char* to_string(JobState s);

/// One logical input file a job must stage in before running. When a
/// ReplicaCatalog is attached to the grid, per-file staging replaces the
/// aggregate `input_megabytes` cost: files replicated on the chosen CE's
/// close StorageElement are local, everything else pays the remote penalty.
struct DataStageRef {
  std::string logical_name;
  double megabytes = 0.0;
};

/// What the caller asks the grid to run. `compute_seconds` is wall time on a
/// reference worker node; actual duration scales with the node speed factor.
struct JobRequest {
  std::string name;
  double compute_seconds = 0.0;
  double input_megabytes = 0.0;
  double output_megabytes = 0.0;
  /// Per-file stage-in plan (data plane; empty = charge input_megabytes).
  std::vector<DataStageRef> input_refs;
  /// Matchmaking policy for this job; unset = the grid's default.
  std::optional<policy::Matchmaking> matchmaking;
  /// CE names a placement policy wants this job steered away from
  /// (advisory — the broker ignores it rather than strand the job).
  std::vector<std::string> avoid_ces;
};

/// Full trace of one grid job, including every latency component. All times
/// are absolute simulation times in seconds; -1 marks "not reached".
struct JobRecord {
  JobId id = 0;
  std::string name;
  JobState state = JobState::kSubmitted;
  std::string computing_element;
  int attempts = 0;  // 1 = succeeded first try

  double submit_time = -1;        // request accepted
  double match_time = -1;         // broker matched a CE (last attempt)
  double queue_exit_time = -1;    // left the CE batch queue (last attempt)
  double run_start_time = -1;     // payload began (after input transfer)
  double run_end_time = -1;       // payload finished
  double completion_time = -1;    // outputs registered, result visible

  double input_transfer_seconds = 0.0;
  double output_transfer_seconds = 0.0;

  /// Data plane (catalog attached): which StorageElement staged the data and
  /// how many megabytes moved, split by replica locality. Remote megabytes
  /// are pre-penalty sizes of the refs that had no close replica.
  std::string staging_element;
  double staged_in_megabytes = 0.0;
  double remote_input_megabytes = 0.0;

  /// Data routing split: megabytes that round-tripped through the
  /// orchestrator/UI link (centralized staging) vs megabytes pulled
  /// SE→SE from a peer replica (decentralized replication policies).
  double bytes_via_ui = 0.0;
  double bytes_peer = 0.0;
  /// Seconds spent waiting for and crossing the contended orchestrator
  /// link (already included in the input/output transfer seconds).
  double ui_transfer_seconds = 0.0;

  /// Storage-side fault trace (SE fault injection on): replicas that were
  /// lost/corrupt/unreachable while staging, how many inputs were served by
  /// a fallback replica, and — when every replica of an input was gone —
  /// the logical names the job could not stage. A non-empty lost_files on a
  /// kFailed record means retrying cannot help; only re-derivation can.
  int replica_faults = 0;
  int replica_failovers = 0;
  std::vector<std::string> lost_files;

  /// Total wall time from submission to completion.
  double total_seconds() const { return completion_time - submit_time; }
  /// Middleware latency of the (last) attempt: UI + broker submission +
  /// matchmaking, i.e. everything before the job reached a site.
  double middleware_seconds() const { return match_time - submit_time; }
  /// Queueing latency of the (last) attempt: residual middleware queues plus
  /// the site batch queue.
  double queue_seconds() const { return queue_exit_time - match_time; }
  /// Grid overhead: everything except payload compute and data transfers,
  /// accumulated over all attempts (failed attempts are pure overhead).
  double overhead_seconds() const {
    return total_seconds() - (run_end_time - run_start_time) -
           input_transfer_seconds - output_transfer_seconds;
  }
};

}  // namespace moteur::grid
