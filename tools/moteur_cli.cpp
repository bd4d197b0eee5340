// moteur_cli — drive the MOTEUR enactor from XML documents, no code needed.
//
//   moteur_cli run --workflow wf.xml --data ds.xml --services catalog.xml [...]
//   moteur_cli run --manifest run.xml [--services catalog.xml] [...]
//   moteur_cli save-manifest --workflow wf.xml --data ds.xml [...] --out run.xml
//   moteur_cli validate --workflow wf.xml        structural + static analysis
//   moteur_cli model --nw N --nd M [--t SECONDS]  §3.5 predictions
//   moteur_cli export-bronze --dir DIR [--pairs N]
//
// Run it without arguments for every flag. The run options — the knobs a run
// manifest records — come from the run-option table (enactor/options.hpp);
// each command declares its other flags in commands(). An undeclared flag is
// a usage error. `run` enacts every run through one RunService on one shared
// grid; when --runs or --manifests make it more than one run, per-run
// outputs get a .run<K> suffix.
//
// Exit status: 0 on success, 1 on usage errors, 2 on run failures.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/bronze_standard.hpp"
#include "data/invocation_cache.hpp"
#include "data/provenance_xml.hpp"
#include "data/replica_catalog.hpp"
#include "enactor/diagram.hpp"
#include "enactor/enactor.hpp"
#include "enactor/manifest.hpp"
#include "enactor/options.hpp"
#include "enactor/sim_backend.hpp"
#include "enactor/timeline_csv.hpp"
#include "grid/grid.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "service/run_service.hpp"
#include "model/dag.hpp"
#include "model/makespan.hpp"
#include "services/catalog.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"
#include "workflow/analysis.hpp"
#include "workflow/grouping.hpp"
#include "workflow/scufl.hpp"

namespace {

using namespace moteur;

class Args;

/// A flag outside the run-option table; a null `value` marks a switch.
struct Flag {
  const char* name;
  const char* value;
};

/// One subcommand: its own flags, and whether it also takes the run options.
struct Command {
  const char* name;
  bool run_options;
  std::vector<Flag> flags;
  int (*run)(const Args&);
};

const std::vector<Command>& commands();

bool is_switch(const enactor::RunOption& option) {
  return option.type == enactor::RunOption::Type::kSwitch;
}

/// Print every command and flag, or just `message` and a pointer to them.
[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) {
    std::fprintf(stderr, "error: %s\nrun moteur_cli without arguments for every flag\n",
                 message.c_str());
    std::exit(1);
  }
  std::string text = "usage:\n";
  for (const Command& command : commands()) {
    std::string line = "  moteur_cli " + std::string(command.name);
    const auto add = [&](const std::string& item) {
      if (line.size() + item.size() >= 80) {
        text += line + "\n";
        line = std::string(13, ' ');
      }
      line += " " + item;
    };
    for (const Flag& flag : command.flags) {
      add(std::string("[--") + flag.name + (flag.value ? std::string(" ") + flag.value : "") +
          "]");
    }
    if (command.run_options) add("[run options]");
    text += line + "\n";
  }
  text += "\nrun options (each is also a run-manifest attribute, see docs/formats.md):\n";
  for (const enactor::RunOption& option : enactor::run_options()) {
    const char* value =
        std::array{" N", " X", "", " NAME", " SPEC"}[static_cast<int>(option.type)];
    const std::string domain = !is_switch(option) ? " [" + option.domain + "]"
                               : option.flag_sets ? ""
                                                  : " (the flag turns it off)";
    text += pad_right("  --" + option.flag + value, 28) + option.help + domain + "\n";
  }
  std::fputs(text.c_str(), stderr);
  std::exit(1);
}

std::string read_file(const std::string& path) {
  std::ifstream input(path);
  if (!input) throw Error("cannot read file '" + path + "'");
  std::ostringstream buffer;
  buffer << input.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream output(path);
  if (!output) throw Error("cannot write file '" + path + "'");
  output << content;
}

/// The flags of one command line, checked against what the command
/// declares: an undeclared flag is a usage error, a switch takes no value
/// and every other flag exactly one.
class Args {
 public:
  Args(const Command& command, int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const std::optional<bool> valued =
          arg.rfind("--", 0) == 0 ? takes_value(command, arg.substr(2)) : std::nullopt;
      if (!valued) usage(std::string(command.name) + " does not accept '" + arg + "'");
      if (*valued && i + 1 == argc) usage(arg + " needs a value");
      values_[arg.substr(2)] = *valued ? argv[++i] : "";
    }
  }

  std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::nullopt : std::optional<std::string>(it->second);
  }
  std::string require(const std::string& key) const {
    const auto value = get(key);
    if (!value || value->empty()) usage("missing --" + key);
    return *value;
  }
  bool has(const std::string& key) const { return values_.count(key) != 0; }
  /// The value of --`key` through `parse` (whose errors name the flag), or
  /// `fallback` when the flag is absent.
  template <typename T>
  T parsed(const std::string& key, T (*parse)(const std::string&, const std::string&),
           T fallback) const {
    const auto value = get(key);
    return value ? parse(*value, "--" + key) : fallback;
  }

 private:
  /// Whether `command` accepts flag `key` with a value, without one, or not
  /// at all (nullopt).
  static std::optional<bool> takes_value(const Command& command, const std::string& key) {
    for (const Flag& flag : command.flags) {
      if (key == flag.name) return flag.value != nullptr;
    }
    if (command.run_options) {
      for (const enactor::RunOption& option : enactor::run_options()) {
        if (key == option.flag) return !is_switch(option);
      }
    }
    return std::nullopt;
  }

  std::map<std::string, std::string> values_;
};

/// Apply every run option given on the command line on top of `manifest`.
void apply_run_options(const Args& args, enactor::RunManifest& manifest) {
  for (const enactor::RunOption& option : enactor::run_options()) {
    const auto value = args.get(option.flag);
    if (!value) continue;
    const std::string text = !is_switch(option) ? *value
                             : option.flag_sets ? "true"
                                                : "false";
    option.set(manifest, text, "--" + option.flag);
  }
}

/// The run --manifest (or --workflow with --data) describes, with the run
/// options on the command line applied on top.
enactor::RunManifest manifest_from_args(const Args& args) {
  enactor::RunManifest manifest;
  if (const auto path = args.get("manifest")) {
    manifest = enactor::RunManifest::from_xml(read_file(*path));
  } else {
    manifest.workflow = workflow::from_scufl(read_file(args.require("workflow")));
    manifest.inputs = data::InputDataSet::from_xml(read_file(args.require("data")));
  }
  apply_run_options(args, manifest);
  return manifest;
}

void load_services(const Args& args, services::ServiceRegistry& registry) {
  if (const auto catalog = args.get("services")) {
    const std::size_t count = services::load_catalog(read_file(*catalog), registry);
    std::printf("loaded %zu services from %s\n", count, catalog->c_str());
  }
}

/// --cache-stats-out payload: totals, catalog entry count, per-run counters.
std::string cache_stats_json(const data::InvocationCache* cache) {
  std::ostringstream os;
  const auto stats = [&os](const data::InvocationCache::Stats& s) {
    os << "{\"hits\": " << s.hits << ", \"misses\": " << s.misses
       << ", \"insertions\": " << s.insertions
       << ", \"invalidations\": " << s.invalidations << "}";
  };
  os << "{\n  \"entry_count\": " << (cache ? cache->entry_count() : 0)
     << ",\n  \"totals\": ";
  stats(cache ? cache->totals() : data::InvocationCache::Stats{});
  os << ",\n  \"runs\": {";
  if (cache != nullptr) {
    bool first = true;
    for (const auto& run_id : cache->run_ids()) {
      os << (first ? "\n" : ",\n") << "    \"" << run_id << "\": ";
      stats(cache->stats(run_id));
      first = false;
    }
    if (!first) os << "\n  ";
  }
  os << "}\n}\n";
  return os.str();
}

/// The observability exports of a run set: --trace-out, --metrics-out,
/// --cache-stats-out and --obs-summary.
void write_observability(const Args& args, obs::RunRecorder& recorder,
                         const data::InvocationCache* cache) {
  if (const auto out = args.get("trace-out")) {
    write_file(*out, obs::chrome_trace_json(recorder.tracer()));
    std::printf("trace written to %s (open in chrome://tracing)\n", out->c_str());
  }
  if (const auto out = args.get("metrics-out")) {
    write_file(*out, obs::prometheus_text(recorder.metrics()));
    std::printf("metrics written to %s\n", out->c_str());
  }
  if (const auto out = args.get("cache-stats-out")) {
    write_file(*out, cache_stats_json(cache));
    std::printf("cache stats written to %s\n", out->c_str());
  }
  if (args.has("obs-summary")) {
    std::fputs(obs::obs_summary(recorder.tracer(), recorder.metrics()).c_str(), stdout);
  }
}

/// Where run `k` of `total` writes the output given as `path`: `path` itself
/// for a single run, else "out.csv" -> "out.run3.csv" (extensionless paths
/// get ".run3" appended).
std::string run_output(const std::string& path, std::size_t k, std::size_t total) {
  if (total == 1) return path;
  const std::string tag = ".run" + std::to_string(k);
  const auto dot = path.rfind('.');
  const auto slash = path.find_last_of('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + tag;
  }
  return path.substr(0, dot) + tag + path.substr(dot);
}

/// Print a terminal run's summary: what it ran under, then its counters, its
/// fault containment and its results per sink.
void print_summary(const service::RunHandle& run, const enactor::EnactmentPolicy& policy,
                   const enactor::RunManifest& grid) {
  const enactor::EnactmentResult& result = run.result();
  std::printf("run %s: %s  (policy %s, grid %s, seed %llu)\n", run.id().c_str(),
              service::to_string(run.poll()), policy.name().c_str(),
              grid.grid_preset.c_str(), static_cast<unsigned long long>(grid.seed));
  if (!run.error().empty()) std::printf("  error:        %s\n", run.error().c_str());
  std::printf("  makespan:     %s (%.0f s)\n", format_duration(result.makespan()).c_str(),
              result.makespan());
  std::printf("  invocations:  %zu logical, %zu submissions, %zu failures\n",
              result.invocations(), result.submissions(), result.failures());
  if (result.retries() != 0 || result.timeouts() != 0) {
    std::printf("  resubmission: %zu retries, %zu timeout clones\n", result.retries(),
                result.timeouts());
  }
  if (result.cache_hits() != 0) {
    std::printf("  cache:        %zu invocation(s) served without a grid job\n",
                result.cache_hits());
  }
  if (!result.failure_report.empty()) {
    std::printf("  fault containment: %s", result.failure_report.to_text().c_str());
  }
  for (const auto& [sink, tokens] : result.sink_outputs) {
    std::printf("  sink %-20s %zu results\n", (sink + ":").c_str(), tokens.size());
  }
}

/// Enact every run the command line describes through one RunService on ONE
/// shared simulated grid. The run set is the cross product of the listed
/// manifests (or the single --manifest/--workflow spec) and --runs copies;
/// the run options on the command line apply to every listed manifest, and
/// the first manifest decides the grid and the service. Outputs get a
/// .run<K> suffix only when more than one run is enacted.
int cmd_run(const Args& args) {
  std::vector<enactor::RunManifest> manifests;
  if (const auto list = args.get("manifests")) {
    for (const auto& path : split(*list, ',')) {
      manifests.push_back(enactor::RunManifest::from_xml(read_file(path)));
      apply_run_options(args, manifests.back());
    }
    if (manifests.empty()) usage("--manifests names no files");
  } else {
    manifests.push_back(manifest_from_args(args));
  }
  const enactor::RunManifest& first = manifests.front();
  const std::size_t copies = args.parsed("runs", parse_positive_count, std::size_t{1});
  const double diagram_column_seconds =
      args.parsed("diagram", parse_nonnegative_seconds, 0.0);  // 0 = auto width

  services::ServiceRegistry registry;
  load_services(args, registry);

  // One grid for every tenant, shaped by the first manifest; each run's
  // matchmaking still rides its JobRequests.
  sim::Simulator simulator;
  const grid::GridConfig grid_config = first.make_grid_config();
  bool data_plane = false;
  for (const auto& manifest : manifests) {
    data_plane = data_plane || enactor::needs_replica_catalog(grid_config, manifest.policy);
  }
  grid::Grid grid(simulator, grid_config);
  enactor::SimGridBackend backend(grid);
  // One catalog for every tenant, like the grid itself: replicas produced by
  // one run are visible to the broker when placing another run's jobs.
  data::ReplicaCatalog catalog;
  if (data_plane) backend.set_catalog(&catalog);

  service::RunServiceConfig config;
  config.admission.max_active = first.max_active;
  config.admission.max_inflight = first.max_inflight;
  config.admission.policy = first.admission_policy;
  config.sharding.shards = first.shards;
  config.sharding.pin = service::parse_pin_policy(first.pin_policy);
  config.defaults.policy = first.policy;
  // Live telemetry plane: streaming frames, the scrape endpoint, and the
  // crash flight recorder all hang off the service config.
  if (const auto out = args.get("telemetry-out")) config.telemetry.jsonl_path = *out;
  if (const auto port = args.get("telemetry-port")) {
    const std::size_t value = parse_count(*port, "--telemetry-port");
    if (value > 65535) {
      throw ParseError("--telemetry-port must be at most 65535 (got '" + *port + "')");
    }
    config.telemetry.scrape_port = static_cast<int>(value);
  }
  config.telemetry.interval_seconds = args.parsed("telemetry-interval", parse_positive_seconds,
                                                  config.telemetry.interval_seconds);
  if (const auto prefix = args.get("flight-recorder")) {
    config.telemetry.flight_recorder_path = *prefix;
  }
  const double linger = args.parsed("telemetry-linger", parse_nonnegative_seconds, 0.0);
  // Declared before the service: the telemetry hub samples the recorder until
  // RunService::shutdown(), so the recorder must outlive the service.
  obs::RunRecorder recorder;
  service::RunService runs(backend, registry, config);

  const bool observe = args.has("trace-out") || args.has("metrics-out") ||
                       args.has("obs-summary") || args.has("critical-path") ||
                       config.telemetry.hub_enabled();
  if (observe) {
    runs.set_recorder(&recorder);
    backend.set_metrics(&recorder.metrics());
  }
  if (const obs::TelemetryHub* hub = runs.telemetry(); hub != nullptr) {
    if (hub->port() >= 0) {
      std::printf("telemetry scrape endpoint on http://127.0.0.1:%d/metrics\n",
                  hub->port());
    }
    if (!config.telemetry.jsonl_path.empty()) {
      std::printf("telemetry frames streaming to %s every %.3g s\n",
                  config.telemetry.jsonl_path.c_str(),
                  config.telemetry.interval_seconds);
    }
    std::fflush(stdout);  // scripts read the bound port while we still run
  }

  std::vector<enactor::RunRequest> requests;
  for (std::size_t c = 0; c < copies; ++c) {
    for (const auto& manifest : manifests) {
      enactor::RunRequest request;
      request.name = manifest.workflow.name() + "-" + std::to_string(requests.size() + 1);
      request.workflow = manifest.workflow;
      request.inputs = manifest.inputs;
      request.policy = manifest.policy;
      requests.push_back(std::move(request));
    }
  }
  const std::size_t total = requests.size();
  const std::size_t gate = config.admission.max_inflight;
  std::printf(
      "enacting %zu run(s) (max active %zu, gate %s, %zu shard(s) [%s], grid %s)\n",
      total, config.admission.max_active,
      gate == 0 ? "off" : std::to_string(gate).c_str(), runs.shards(),
      service::to_string(config.sharding.pin), first.grid_preset.c_str());
  auto handles = runs.submit_all(std::move(requests));
  runs.wait_idle();

  bool hard_failure = false;
  for (std::size_t i = 0; i < total; ++i) {
    // wait_idle() drained the service: every run is terminal.
    const enactor::EnactmentResult& result = handles[i].result();
    const enactor::EnactmentPolicy& policy = manifests[i % manifests.size()].policy;
    print_summary(handles[i], policy, first);
    // Under --failure-policy continue a partial-result run is a success: the
    // losses are accounted for in the failure report, not in the exit status.
    const bool tolerated = policy.failure_policy == enactor::FailurePolicy::kContinue;
    if (handles[i].poll() == service::RunState::kFailed ||
        (result.failures() != 0 && !tolerated)) {
      hard_failure = true;
    }
    if (args.has("trace")) {
      std::fputs(enactor::render_trace_table(result.timeline).c_str(), stdout);
    }
    if (args.has("diagram")) {
      enactor::DiagramOptions options;
      options.seconds_per_column = diagram_column_seconds;
      std::vector<std::string> rows;
      for (const auto& proc : result.executed_workflow.processors()) {
        if (proc.kind == workflow::ProcessorKind::kService) rows.push_back(proc.name);
      }
      const std::string diagram =
          enactor::render_execution_diagram(result.timeline, rows, options);
      std::fputs(diagram.c_str(), stdout);
    }
    const auto save = [&](const char* flag, const char* what, const auto& content) {
      if (const auto out = args.get(flag)) {
        const std::string path = run_output(*out, i + 1, total);
        write_file(path, content());
        std::printf("%s written to %s\n", what, path.c_str());
      }
    };
    save("provenance", "provenance",
         [&] { return data::export_provenance(result.sink_outputs); });
    save("csv", "timeline",
         [&] { return enactor::timeline_to_csv(result.timeline, data_plane); });
    save("failure-report", "failure report",
         [&] { return result.failure_report.to_json() + "\n"; });
  }
  // Critical-path attribution per run, before the metric exports so the
  // moteur_critical_path_seconds series land in --metrics-out too.
  if (const auto out = args.get("critical-path")) {
    runs.with_observability([&](obs::RunRecorder& rec) {
      for (std::size_t i = 0; i < total; ++i) {
        const obs::CriticalPathReport report = obs::critical_path(
            rec.tracer(), handles[i].id(), handles[i].admission_wait());
        obs::record_phases(rec.metrics(), report);
        write_file(run_output(*out, i + 1, total), report.to_json() + "\n");
        std::fputs(report.to_text().c_str(), stdout);
      }
    });
  }
  write_observability(args, recorder, runs.invocation_cache());
  // Keep the service (and its scrape endpoint) alive so external scrapers can
  // fetch /metrics after a fast simulated run finishes.
  if (linger > 0.0 && runs.telemetry() != nullptr) {
    std::printf("lingering %.3g s for telemetry scrapes\n", linger);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(linger));
  }
  return hard_failure ? 2 : 0;
}

int cmd_save_manifest(const Args& args) {
  const std::string out = args.require("out");
  write_file(out, manifest_from_args(args).to_xml());
  std::printf("manifest written to %s\n", out.c_str());
  return 0;
}

int cmd_validate(const Args& args) {
  const workflow::Workflow wf = workflow::from_scufl(read_file(args.require("workflow")));
  std::printf("workflow '%s': OK\n", wf.name().c_str());
  std::printf("  processors: %zu (%zu sources, %zu services, %zu sinks)\n",
              wf.processors().size(), wf.sources().size(), wf.services().size(),
              wf.sinks().size());
  std::printf("  links: %zu, coordination constraints: %zu\n", wf.links().size(),
              wf.coordination_constraints().size());
  const auto path = workflow::critical_path(wf);
  std::printf("  critical path (nW = %zu): %s\n", workflow::critical_path_length(wf),
              join(path.services, " -> ").c_str());
  const auto layers = workflow::synchronization_layers(wf);
  std::printf("  synchronization layers: %zu\n", layers.size());

  workflow::GroupingReport report;
  workflow::group_sequential_processors(wf, &report);
  if (report.groups.empty()) {
    std::puts("  job grouping: no groupable chains");
  } else {
    std::printf("  job grouping would form %zu group(s):\n", report.groups.size());
    for (const auto& group : report.groups) {
      std::printf("    %s\n", join(group, " + ").c_str());
    }
  }

  if (const auto dot = args.get("dot")) {
    write_file(*dot, workflow::to_dot(wf));
    std::printf("  GraphViz rendering written to %s\n", dot->c_str());
  }

  // With a catalog and a data-set size, predict makespans per policy.
  if (args.get("services") && args.get("nd")) {
    const std::size_t n_d = parse_positive_count(args.require("nd"), "--nd");
    services::ServiceRegistry registry;
    services::load_catalog(read_file(args.require("services")), registry);
    std::map<std::string, double> times;
    for (const auto* proc : wf.services()) {
      times[proc->name] =
          registry.resolve(*proc)->job_profile(services::Inputs{}).compute_seconds;
    }
    try {
      const auto predicted = model::predict_dag_makespan(wf, times, n_d);
      std::printf("  DAG-model predictions for nD = %zu (compute only, no grid"
                  " overhead):\n", n_d);
      std::printf("    NOP   %10.0f s\n", predicted.sequential);
      std::printf("    DP    %10.0f s\n", predicted.dp);
      std::printf("    SP    %10.0f s\n", predicted.sp);
      std::printf("    SP+DP %10.0f s\n", predicted.dsp);
    } catch (const Error& e) {
      std::printf("  DAG-model predictions unavailable: %s\n", e.what());
    }
  }
  return 0;
}

int cmd_model(const Args& args) {
  const std::size_t n_w = parse_positive_count(args.require("nw"), "--nw");
  const std::size_t n_d = parse_positive_count(args.require("nd"), "--nd");
  const double t = args.parsed("t", parse_nonnegative_seconds, 1.0);
  const model::TimeMatrix times = model::constant_times(n_w, n_d, t);
  std::printf("§3.5 predictions for nW=%zu, nD=%zu, T=%.1f s:\n", n_w, n_d, t);
  std::printf("  Sigma     (sequential) = %.1f s\n", model::sigma_sequential(times));
  std::printf("  Sigma_DP               = %.1f s   (S_DP  = %.2f)\n",
              model::sigma_dp(times), model::speedup_dp(n_w, n_d));
  std::printf("  Sigma_SP               = %.1f s   (S_SP  = %.2f)\n",
              model::sigma_sp(times), model::speedup_sp(n_w, n_d));
  std::printf("  Sigma_DSP              = %.1f s   (S_DSP = %.2f, S_SDP = 1)\n",
              model::sigma_dsp(times), model::speedup_dsp(n_w, n_d));
  return 0;
}

int cmd_export_bronze(const Args& args) {
  const std::string dir = args.require("dir");
  const std::size_t pairs = args.parsed("pairs", parse_positive_count, std::size_t{12});

  write_file(dir + "/bronze_workflow.xml",
             workflow::to_scufl(app::bronze_standard_workflow()));
  write_file(dir + "/bronze_dataset.xml",
             app::bronze_standard_dataset(pairs).to_xml());
  write_file(dir + "/bronze_services.xml",
             services::to_catalog_xml(app::bronze_catalog()));

  enactor::RunManifest manifest;
  manifest.workflow = app::bronze_standard_workflow();
  manifest.inputs = app::bronze_standard_dataset(pairs);
  manifest.policy = enactor::EnactmentPolicy::sp_dp_jg();
  write_file(dir + "/bronze_run.xml", manifest.to_xml());

  std::printf("wrote bronze_workflow.xml, bronze_dataset.xml (%zu pairs),\n"
              "bronze_services.xml and bronze_run.xml to %s\n"
              "run it with:\n"
              "  moteur_cli run --manifest %s/bronze_run.xml \\\n"
              "             --services %s/bronze_services.xml\n",
              pairs, dir.c_str(), dir.c_str(), dir.c_str());
  return 0;
}

const std::vector<Command>& commands() {
  static const std::vector<Command> list = {
      {"run", true,
       {{"manifest", "RUN.xml"}, {"workflow", "WF.xml"}, {"data", "DS.xml"},
        {"services", "CAT.xml"}, {"runs", "N"}, {"manifests", "A.xml,B.xml"},
        {"provenance", "OUT.xml"},
        {"csv", "OUT.csv"}, {"trace", nullptr}, {"diagram", "COLSECONDS"},
        {"failure-report", "OUT.json"}, {"cache-stats-out", "STATS.json"},
        {"trace-out", "TRACE.json"}, {"metrics-out", "METRICS.prom"},
        {"obs-summary", nullptr}, {"telemetry-out", "FRAMES.jsonl"},
        {"telemetry-port", "P"}, {"telemetry-interval", "S"}, {"telemetry-linger", "S"},
        {"flight-recorder", "PREFIX"}, {"critical-path", "OUT.json"}},
       cmd_run},
      {"save-manifest", true,
       {{"manifest", "RUN.xml"}, {"workflow", "WF.xml"}, {"data", "DS.xml"},
        {"out", "RUN.xml"}},
       cmd_save_manifest},
      {"validate", false,
       {{"workflow", "WF.xml"}, {"services", "CAT.xml"}, {"nd", "N"}, {"dot", "OUT.dot"}},
       cmd_validate},
      {"model", false, {{"nw", "N"}, {"nd", "M"}, {"t", "SECONDS"}}, cmd_model},
      {"export-bronze", false, {{"dir", "DIR"}, {"pairs", "N"}}, cmd_export_bronze},
  };
  return list;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string name = argv[1];
  const auto& list = commands();
  const auto command = std::find_if(list.begin(), list.end(),
                                    [&](const Command& c) { return name == c.name; });
  if (command == list.end()) usage("unknown command '" + name + "'");
  try {
    return command->run(Args(*command, argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
