#include "enactor/options.hpp"

#include <algorithm>
#include <charconv>
#include <optional>
#include <type_traits>

#include "enactor/manifest.hpp"
#include "policy/policy.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

namespace moteur::enactor {

namespace {

using Type = RunOption::Type;
using Names = std::vector<std::string>;
using Setter = decltype(RunOption::set);
using Getter = decltype(RunOption::get);
template <typename T>
using Field = T& (*)(RunManifest&);

/// A util/flags parser and the value domain it enforces.
template <typename T>
struct Rule {
  T (*parse)(const std::string& text, const std::string& label);
  const char* domain;
};

constexpr Rule<std::size_t> kCount{parse_count, "integer >= 0"};
constexpr Rule<std::size_t> kPositiveCount{parse_positive_count, "integer >= 1"};
constexpr Rule<double> kNonNegative{parse_nonnegative_real, "number >= 0"};
constexpr Rule<double> kSeconds{parse_nonnegative_seconds, "seconds >= 0"};
constexpr Rule<double> kPositiveSeconds{parse_positive_seconds, "seconds > 0"};
constexpr Rule<double> kFraction{parse_fraction, "fraction in (0, 1]"};
constexpr Rule<double> kProbability{parse_probability, "probability in [0, 1]"};

/// Reading through a field accessor never writes; it only borrows the
/// reference the mutable accessor hands out.
template <typename T>
const T& read(T& (*field)(RunManifest&), const RunManifest& manifest) {
  return field(const_cast<RunManifest&>(manifest));
}

/// Integers in decimal, reals in the shortest text that parses back to
/// exactly the same value.
template <typename T>
std::string text(T value) {
  char buffer[32];
  return std::string(buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
}

/// An unset value reads as the empty text.
template <typename T>
std::string text(const std::optional<T>& value) {
  return value ? text(*value) : std::string();
}

const std::string& one_of(const Names& names, const std::string& value,
                          const std::string& label) {
  if (std::find(names.begin(), names.end(), value) == names.end()) {
    throw ParseError(label + " must be one of " + join(names, ", ") + " (got '" + value +
                     "')");
  }
  return value;
}

RunOption row(Element element, const char* attribute, const char* flag, Type type,
              std::string domain, const char* help, Setter set, Getter get) {
  return {.element = element, .attribute = attribute, .flag = flag, .type = type,
          .domain = std::move(domain), .help = help, .set = std::move(set),
          .get = std::move(get)};
}

/// A count or a real, validated by `rule`; an optional field stays unset
/// until given.
template <typename T, typename Parsed>
RunOption number(Element element, const char* attribute, const char* flag, Rule<Parsed> rule,
                 const char* help, Field<T> field) {
  return row(
      element, attribute, flag,
      std::is_floating_point_v<Parsed> ? Type::kReal : Type::kCount,
      rule.domain, help,
      [rule, field](RunManifest& m, const std::string& value, const std::string& label) {
        field(m) = static_cast<T>(rule.parse(value, label));
      },
      [field](const RunManifest& m) { return text(read(field, m)); });
}

RunOption toggle(Element element, const char* attribute, const char* flag, bool flag_sets,
                 const char* help, Field<bool> field) {
  RunOption option = row(
      element, attribute, flag, Type::kSwitch, "true, false", help,
      [field](RunManifest& m, const std::string& value, const std::string& label) {
        field(m) = parse_bool(value, label);
      },
      [field](const RunManifest& m) { return read(field, m) ? "true" : "false"; });
  option.flag_sets = flag_sets;
  return option;
}

/// A name from `choices`.
RunOption name(Element element, const char* attribute, const char* flag, Names choices,
               const char* help, Field<std::string> field) {
  RunOption option = row(
      element, attribute, flag, Type::kName, join(choices, ", "), help,
      [choices, field](RunManifest& m, const std::string& value, const std::string& label) {
        field(m) = one_of(choices, value, label);
      },
      [field](const RunManifest& m) { return read(field, m); });
  option.choices = std::move(choices);
  return option;
}

/// Recorded in a manifest even at its default.
RunOption always_written(RunOption option) {
  option.written_at_default = [](const RunManifest&) { return true; };
  return option;
}

/// Setting any breaker parameter switches the breaker on, from a flag and
/// from an attribute alike (a manifest's `breaker` attribute is read after
/// them, so it has the last word).
RunOption enables_breaker(RunOption option) {
  option.set = [set = std::move(option.set)](RunManifest& m, const std::string& value,
                                             const std::string& label) {
    set(m, value, label);
    m.policy.breaker.enabled = true;
  };
  option.help += "; switches the breaker on";
  return option;
}

constexpr const char* kConfigs = "NOP, or SP, DP, JG joined by +";

Names failure_policies() { return {"failfast", "continue"}; }
Names presets() { return {"egee2006", "cluster", "constant"}; }
Names pin_policies() { return {"hash", "least-loaded"}; }

void set_config(RunManifest& m, const std::string& value, const std::string& label) {
  EnactmentPolicy parsed;
  try {
    parsed = EnactmentPolicy::parse(value);
  } catch (const ParseError&) {
    throw ParseError(label + " must be " + kConfigs + " (got '" + value + "')");
  }
  m.policy.data_parallelism = parsed.data_parallelism;
  m.policy.service_parallelism = parsed.service_parallelism;
  m.policy.job_grouping = parsed.job_grouping;
}

// The accessor of one RunManifest field, as a function pointer.
#define FIELD(member) +[](RunManifest& m) -> auto& { return m.member; }

std::vector<RunOption> build_table() {
  constexpr Element kPolicy = Element::kPolicy;
  constexpr Element kGrid = Element::kGrid;
  constexpr Element kService = Element::kService;
  RunOption config = always_written(
      row(kPolicy, "config", "policy", Type::kName, kConfigs,
          "enactment optimizations (Table 1 names the paper's six); a manifest must give it",
          set_config, [](const RunManifest& m) { return m.policy.name(); }));
  config.required = true;
  RunOption failure_policy = row(
      kPolicy, "failurePolicy", "failure-policy", Type::kName, join(failure_policies(), ", "),
      "after a definitive failure: drop the tuple, or poison its descendants and report",
      [](RunManifest& m, const std::string& value, const std::string& label) {
        m.policy.failure_policy =
            parse_failure_policy(one_of(failure_policies(), value, label));
      },
      [](const RunManifest& m) { return std::string(to_string(m.policy.failure_policy)); });
  failure_policy.choices = failure_policies();
  // Read after its parameters, so that breaker="false" wins over their
  // switching it on, and recorded whenever they are.
  RunOption breaker = toggle(kPolicy, "breaker", "breaker", true,
                             "per-CE circuit breakers route around failing sites; when "
                             "given, wins over the parameters",
                             FIELD(policy.breaker.enabled));
  breaker.written_at_default = [](const RunManifest& m) {
    return m.policy.breaker != grid::BreakerPolicy{};
  };
  std::vector<RunOption> table = {
      config,
      number(kPolicy, "cap", "cap", kCount,
             "concurrent invocations per service under DP; 0 = unbounded",
             FIELD(policy.data_parallelism_cap)),
      number(kPolicy, "batch", "batch", kPositiveCount,
             "data sets batched into one submission; 1 = off", FIELD(policy.batch_size)),
      toggle(kPolicy, "adaptiveBatching", "adaptive", true,
             "size each batch from the observed overhead instead of batch",
             FIELD(policy.adaptive_batching)),
      number(kPolicy, "overheadFractionTarget", "overhead-fraction", kFraction,
             "adaptive batching: target overhead share of a job",
             FIELD(policy.overhead_fraction_target)),
      number(kPolicy, "maxBatch", "max-batch", kPositiveCount,
             "adaptive batching: largest batch", FIELD(policy.max_batch)),
      number(kPolicy, "retryAttempts", "retries", kPositiveCount,
             "executions per submission, timeout clones included; 1 = no retries",
             FIELD(policy.retry.max_attempts)),
      number(kPolicy, "retryTimeoutMultiplier", "retry-timeout", kNonNegative,
             "race a clone past this multiple of the median latency; 0 = off",
             FIELD(policy.retry.timeout_multiplier)),
      number(kPolicy, "retryTimeoutMinSamples", "retry-min-samples", kPositiveCount,
             "completed submissions before the timeout watchdog arms",
             FIELD(policy.retry.timeout_min_samples)),
      number(kPolicy, "retryBackoffInitial", "retry-backoff", kSeconds,
             "delay before the first resubmission; 0 = immediate",
             FIELD(policy.retry.backoff_initial_seconds)),
      number(kPolicy, "retryBackoffFactor", "retry-backoff-factor", kNonNegative,
             "delay multiplier for each further retry", FIELD(policy.retry.backoff_factor)),
      failure_policy,
      enables_breaker(number(kPolicy, "breakerWindow", "breaker-window", kPositiveCount,
                             "attempt outcomes kept per CE", FIELD(policy.breaker.window))),
      enables_breaker(number(kPolicy, "breakerThreshold", "breaker-threshold", kPositiveCount,
                             "failures within the window that open a breaker",
                             FIELD(policy.breaker.threshold))),
      enables_breaker(number(kPolicy, "breakerCooldown", "breaker-cooldown", kPositiveSeconds,
                             "wait before an open breaker admits a probe",
                             FIELD(policy.breaker.cooldown_seconds))),
      breaker,
      toggle(kPolicy, "cache", "cache", true,
             "serve content-identical invocations from the memoization cache",
             FIELD(policy.cache)),
      name(kPolicy, "matchmaking", "matchmaking", policy::names<policy::Matchmaking>(),
           "CE ranking for this run's jobs; unset = the grid's", FIELD(policy.matchmaking)),
      name(kPolicy, "placement", "placement", policy::names<policy::Placement>(),
           "where retries and clones go; unset = rematch", FIELD(policy.placement)),
      toggle(kPolicy, "lineageRecovery", "no-recovery", false,
             "re-derive lost intermediate files from their lineage",
             FIELD(policy.lineage_recovery)),
      number(kPolicy, "recoveryDepth", "recovery-depth", kPositiveCount,
             "recovery rounds per submission and re-derivation depth",
             FIELD(policy.max_recovery_depth)),

      always_written(name(kGrid, "preset", "grid", presets(), "simulated infrastructure",
                          FIELD(grid_preset))),
      always_written(number(kGrid, "seed", "seed", kCount,
                            "seed of every random stream of the grid", FIELD(seed))),
      number(kGrid, "overhead", "overhead", kSeconds, "constant preset: latency of every job",
             FIELD(constant_overhead_seconds)),
      number(kGrid, "nodes", "nodes", kPositiveCount, "cluster preset: worker nodes",
             FIELD(cluster_nodes)),
      number(kGrid, "orchestratorBw", "orchestrator-bw", kNonNegative,
             "MB/s of the orchestrator link centralized staging shares; 0 = unlimited",
             FIELD(orchestrator_bandwidth_mbps)),
      name(kGrid, "replicaPolicy", "replica-policy", policy::names<policy::Replica>(),
           "where fresh replicas register and which copy stage-in probes first",
           FIELD(replica_policy)),
      name(kGrid, "replication", "replication-policy",
           policy::names<policy::Replication>(),
           "SE-to-SE transfers instead of staging through the orchestrator",
           FIELD(replication)),
      number(kGrid, "failureProbability", "inject-failures", kProbability,
             "chance that a grid attempt fails; unset = the preset's (egee2006: 0.04)",
             FIELD(failure_probability)),
      number(kGrid, "stuckProbability", "inject-stuck", kProbability,
             "chance that a grid attempt runs 25 times longer than sampled",
             FIELD(stuck_probability)),
      number(kGrid, "attempts", "grid-attempts", kPositiveCount,
             "grid-level tries per job; unset = the preset's (egee2006: 5)",
             FIELD(grid_attempts)),
      number(kGrid, "replicaLoss", "se-loss", kProbability,
             "chance that a replica is gone at stage-in", FIELD(replica_loss)),
      number(kGrid, "replicaCorruption", "se-corrupt", kProbability,
             "chance that a replica is corrupt at stage-in", FIELD(replica_corruption)),
      row(kGrid, "seOutages", "se-outage", Type::kText, "SE:START:DUR[,...]",
          "storage-element downtime windows; SE is se0 or a declared SE",
          [](RunManifest& m, const std::string& value, const std::string& label) {
            parse_se_outages(value, label);
            m.se_outages = value;
          },
          [](const RunManifest& m) { return m.se_outages; }),
      number(kGrid, "seCapacity", "se-capacity", kNonNegative,
             "MB the default SE holds before it evicts; 0 = unbounded",
             FIELD(se_capacity_mb)),
      name(kGrid, "eviction", "eviction-policy", policy::names<policy::Eviction>(),
           "which replicas a full SE evicts first", FIELD(eviction)),

      number(kService, "shards", "shards", kPositiveCount,
             "engine shards of a RunService replaying the manifest", FIELD(shards)),
      name(kService, "pinPolicy", "pin-policy", pin_policies(),
           "how runs are pinned to shards", FIELD(pin_policy)),
      name(kService, "admissionPolicy", "admission-policy",
           policy::names<policy::Admission>(),
           "how a run's weight maps onto its share of the admission gate",
           FIELD(admission_policy)),
      number(kService, "maxActive", "max-active", kPositiveCount,
             "runs enacted at once; further runs wait in the queue", FIELD(max_active)),
      number(kService, "maxInflight", "max-inflight", kCount,
             "backend executions at once across all runs; 0 = no admission gate",
             FIELD(max_inflight)),
  };
  const RunManifest defaults;
  for (RunOption& option : table) option.default_text = option.get(defaults);
  return table;
}

#undef FIELD

}  // namespace

const char* to_string(Element element) {
  constexpr const char* kNames[] = {"policy", "grid", "service"};
  return kNames[static_cast<int>(element)];
}

const std::vector<RunOption>& run_options() {
  static const std::vector<RunOption> table = build_table();
  return table;
}

const RunOption* find_run_option(Element element, const std::string& attribute) {
  const auto& table = run_options();
  const auto it = std::find_if(table.begin(), table.end(), [&](const RunOption& o) {
    return o.element == element && o.attribute == attribute;
  });
  return it == table.end() ? nullptr : &*it;
}

}  // namespace moteur::enactor
