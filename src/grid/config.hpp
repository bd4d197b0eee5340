#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace moteur::grid {

/// Distribution spec for one latency component. `kLognormalMixture` is the
/// workhorse: a lognormal body plus a straggler tail, which matches the
/// paper's observation of ~10 min overhead with ±5 min variability and
/// occasional jobs "blocked on a waiting queue" for much longer.
struct LatencyModel {
  enum class Kind { kConstant, kUniform, kLognormal, kLognormalMixture };

  Kind kind = Kind::kConstant;
  double constant = 0.0;        // kConstant: the value; also the floor for others
  double lo = 0.0, hi = 0.0;    // kUniform
  double median = 0.0;          // kLognormal*: exp(mu)
  double sigma = 0.0;           // kLognormal*: log-space sigma
  double straggler_probability = 0.0;  // kLognormalMixture
  double straggler_factor = 1.0;       // multiplier applied to straggler draws

  static LatencyModel constant_of(double seconds);
  static LatencyModel uniform(double lo, double hi);
  static LatencyModel lognormal(double median, double sigma);
  static LatencyModel lognormal_mixture(double median, double sigma,
                                        double straggler_probability,
                                        double straggler_factor);

  /// Mean of the distribution (exact for constant/uniform/lognormal; the
  /// mixture mean composes the two branches).
  double mean() const;
};

/// One deterministic storage-element outage: the SE is unreachable during
/// [start_seconds, start_seconds + duration_seconds). Deterministic windows
/// (vs the CEs' sampled exponential gaps) keep data-loss scenarios exactly
/// reproducible and diffable across recovery on/off runs.
struct StorageOutageWindow {
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// One storage element of a multi-SE grid (data plane). The default grid
/// still runs a single implicit "se0" built from the GridConfig transfer_*
/// fields; listing storage elements here adds named SEs next to it.
struct StorageElementConfig {
  std::string name;
  double transfer_latency_seconds = 0.0;
  double transfer_bandwidth_mb_per_s = 1e12;
  std::size_t channels = 64;
  /// Deterministic downtime windows for this SE.
  std::vector<StorageOutageWindow> outages;
  /// Per-replica loss probability sampled at stage-in (the copy silently
  /// vanished from this SE); negative inherits
  /// GridConfig::replica_loss_probability.
  double replica_loss_probability = -1.0;
  /// Per-replica corruption probability sampled at stage-in (the transfer
  /// completes but the DataRef digest check fails, wasting the bytes);
  /// negative inherits GridConfig::replica_corruption_probability.
  double replica_corruption_probability = -1.0;
  /// Replica capacity in megabytes; 0 = unbounded. When bounded, the
  /// catalog consults the grid's eviction policy once registrations
  /// overflow the capacity.
  double capacity_mb = 0.0;
};

/// One computing-element site.
struct ComputingElementConfig {
  std::string name;
  std::size_t worker_slots = 1;
  double speed_factor = 1.0;  // payload duration divides by this
  /// Extra local batch-system latency before a matched job reaches the queue.
  LatencyModel local_latency = LatencyModel::constant_of(0.0);
  /// Site outages (maintenance / downtime): mean seconds between outage
  /// starts (exponential), 0 disables. During an outage the site stops
  /// taking new payloads (running jobs drain); queued jobs wait it out.
  double outage_mean_interval = 0.0;
  double outage_mean_duration = 3600.0;
  /// Outages stop occurring after this horizon (bounds the event queue).
  double outage_horizon = 10.0 * 86400.0;
  /// Per-site transient-failure probability for attempts running here
  /// (flaky sites); negative inherits the grid-wide
  /// GridConfig::failure_probability.
  double failure_probability = -1.0;
  /// Name of the StorageElement this site stages data through (data plane).
  /// Empty = the grid's default SE.
  std::string close_storage_element;
};

/// Full description of a simulated infrastructure.
struct GridConfig {
  std::uint64_t seed = 20060619;  // HPDC'06 opening day

  std::vector<ComputingElementConfig> computing_elements;

  /// Per-job cost of the submission command on the user interface host
  /// (edg-job-submit style). Strictly serialized: the enactor machine
  /// submits one job at a time, so large parallel bursts pay
  /// n * ui_submission_latency — the dominant slope term of the paper's
  /// parallel configurations (Table 2: ~80-140 s per data set = jobs/pair
  /// x ~20 s).
  LatencyModel ui_submission_latency = LatencyModel::constant_of(0.0);

  /// UI -> RB submission latency per job (pipelined through the broker).
  LatencyModel submission_latency = LatencyModel::constant_of(0.0);
  /// RB matchmaking + CE handoff latency per job.
  LatencyModel scheduling_latency = LatencyModel::constant_of(0.0);
  /// Residual queueing latency not explained by slot contention (middleware
  /// queues, information-system staleness).
  LatencyModel queueing_latency = LatencyModel::constant_of(0.0);
  /// Multiplicative payload-duration noise: duration *= max(0.05, 1+N(0,x)).
  double compute_noise_stddev = 0.0;

  /// How many jobs the broker pipeline can process concurrently (matchmaking
  /// throughput); drives load-dependent overhead growth.
  std::size_t broker_concurrency = 8;
  /// Fraction of the sampled submission latency during which the job
  /// occupies a broker pipeline slot (the rest is pure latency). Higher
  /// values make overhead grow faster with submission bursts.
  double broker_occupancy_fraction = 0.15;

  /// Wide-area transfer model: seconds = latency + megabytes / bandwidth.
  double transfer_latency_seconds = 0.0;
  double transfer_bandwidth_mb_per_s = 1e12;  // effectively instant by default

  /// Additional named StorageElements (data plane); empty = single default
  /// SE, the pre-data-plane behavior.
  std::vector<StorageElementConfig> storage_elements;
  /// Megabyte multiplier for staging a file whose replicas all live on other
  /// SEs (the wide-area hop to pull it to the close SE first).
  double remote_transfer_penalty = 1.0;
  /// Grid-default matchmaking policy name (policy::Matchmaking). Jobs may
  /// override per submission via JobRequest::matchmaking. `queue-rank` is
  /// the historical ranking and stays bit-identical to the pre-policy
  /// broker; `data-gravity` adds each CE's estimated stage-in cost from the
  /// ReplicaCatalog to its rank.
  std::string matchmaking_policy = "queue-rank";
  /// Replica policy name (policy::Replica) governing where fresh replicas
  /// are registered. `close-se` is the historical behavior (register at the
  /// producing CE's close SE). Stage-in probes the close SE's copy first.
  std::string replica_policy = "close-se";

  /// Orchestrator/UI link bandwidth in MB/s; every centralized stage-in or
  /// stage-out byte round-trips through this single shared link and queues
  /// FCFS behind concurrent stagings. 0 = unlimited (the link model is
  /// bypassed entirely, bit-identical to the pre-decentralization path).
  double orchestrator_bandwidth_mbps = 0.0;
  /// Replication policy name (policy::Replication) governing SE→SE
  /// third-party transfers. `none` keeps every remote byte on the
  /// orchestrator path; `push-to-consumer` and `fanout-k` route reads
  /// peer-to-peer and start proactive transfers at match / registration
  /// time.
  std::string replication_policy = "none";
  /// Eviction policy name (policy::Eviction) consulted by the ReplicaCatalog
  /// when a capacity-bounded SE overflows. `lru` evicts least-recently
  /// used; `pin-sources` refuses to evict workflow source files.
  std::string replica_eviction_policy = "lru";
  /// Replica capacity of the implicit default SE ("se0") in megabytes;
  /// 0 = unbounded. Named SEs carry StorageElementConfig::capacity_mb.
  double default_se_capacity_mb = 0.0;

  /// Deterministic downtime windows for the implicit default SE ("se0");
  /// named SEs carry their own on StorageElementConfig::outages.
  std::vector<StorageOutageWindow> default_se_outages;
  /// Grid-wide replica loss / corruption probabilities, sampled per replica
  /// at stage-in from a dedicated RNG substream (enabling them never
  /// perturbs other draws). Named SEs may override per-SE; 0 disables.
  double replica_loss_probability = 0.0;
  double replica_corruption_probability = 0.0;

  /// Speculative resubmission against the heavy latency tail (the dynamic
  /// optimization direction of the paper's ref [12]): if a job has not
  /// completed this many seconds after submission, a clone is submitted and
  /// the first finisher wins. 0 disables. Clones count toward max_attempts.
  double speculative_timeout_seconds = 0.0;
  /// At most this many concurrently racing clones per job (1 = the original
  /// plus one speculative copy).
  int speculative_max_clones = 1;

  /// Probability that an attempt fails (resubmitted up to max_attempts).
  /// Sites may override it per CE (ComputingElementConfig).
  double failure_probability = 0.0;
  /// Fraction of the sampled payload duration consumed before the failure is
  /// detected (failures waste time, as in the paper's D0 example).
  double failure_detection_fraction = 0.5;
  int max_attempts = 3;

  /// Stuck-job injection: with this probability an attempt's payload runs
  /// `stuck_job_factor` times longer than sampled (a job "blocked on a
  /// waiting queue", §4.2). Finite — the simulation always terminates — but
  /// long enough for a timeout watchdog to win by racing a clone. Drawn from
  /// a dedicated RNG substream, so enabling it never perturbs other draws.
  double stuck_job_probability = 0.0;
  double stuck_job_factor = 25.0;

  /// Background (other-user) jobs per hour across the whole grid; 0 disables.
  double background_jobs_per_hour = 0.0;
  double background_mean_duration = 3600.0;
  /// Arrivals stop after this horizon (bounds the event queue; runs longer
  /// than this see an unloaded grid afterwards).
  double background_horizon_seconds = 10.0 * 86400.0;

  // --- presets ---------------------------------------------------------

  /// EGEE-like 2006 production infrastructure: many sites, large stochastic
  /// overhead (median ~9 min, heavy tail), shared WAN, occasional failures.
  static GridConfig egee2006(std::uint64_t seed = 20060619);

  /// A dedicated local cluster: negligible overhead, no variability. The
  /// paper's contrast case where SP brings little on top of DP and the
  /// y-intercept metric degenerates.
  static GridConfig dedicated_cluster(std::size_t nodes = 64,
                                      std::uint64_t seed = 20060619);

  /// Fully deterministic grid: every job pays exactly `overhead_seconds`
  /// of latency and its nominal compute time. Used to validate the §3.5
  /// analytic models to exact equality.
  static GridConfig constant(double overhead_seconds, std::size_t slots = 4096,
                             std::uint64_t seed = 20060619);
};

}  // namespace moteur::grid
