#include "obs/critical_path.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "util/strings.hpp"

namespace moteur::obs {

namespace {

constexpr double kEps = 1e-9;

/// Disjoint-interval set with "add and report the newly covered length"
/// semantics — the tool for priority-ordered phase attribution: higher
/// priority phases claim their time first, lower ones only get what is left.
class Coverage {
 public:
  double add(double start, double end) {
    if (end <= start + kEps) return 0.0;
    double added = end - start;
    std::vector<std::pair<double, double>> next;
    next.reserve(covered_.size() + 1);
    for (const auto& [s, e] : covered_) {
      if (e < start - kEps || s > end + kEps) {
        next.emplace_back(s, e);
        continue;
      }
      // Overlap: subtract it from the newly added length, merge the spans.
      added -= std::max(0.0, std::min(e, end) - std::max(s, start));
      start = std::min(start, s);
      end = std::max(end, e);
    }
    next.emplace_back(start, end);
    std::sort(next.begin(), next.end());
    covered_ = std::move(next);
    return std::max(0.0, added);
  }

 private:
  std::vector<std::pair<double, double>> covered_;
};

}  // namespace

CriticalPathReport critical_path(const Tracer& tracer, const std::string& run_id,
                                 double admission_wait) {
  CriticalPathReport report;
  report.run_id = run_id;
  report.admission_wait = std::max(0.0, admission_wait);

  const Tracer::Spans& spans = tracer.spans();
  std::unordered_map<SpanId, const Span*> by_id;
  by_id.reserve(spans.size());
  for (const Span& span : spans) by_id.emplace(span.id, &span);

  // Resolve the run root: "run"-category root whose run_id annotation (or,
  // failing that, name) matches; an empty id selects a sole run root.
  const Span* root = nullptr;
  std::size_t run_roots = 0;
  for (const Span& span : spans) {
    if (span.category != "run" || by_id.count(span.parent) != 0) continue;
    ++run_roots;
    const std::string* id = tracer.args(span).find("run_id");
    const std::string& key = id ? *id : span.name;
    if (run_id.empty() || key == run_id || span.name == run_id) {
      if (!run_id.empty() || run_roots == 1) root = &span;
    }
  }
  if (root == nullptr || (run_id.empty() && run_roots != 1) || root->open()) {
    return report;  // found = false
  }
  report.found = true;
  report.run = root->name;
  if (const std::string* id = tracer.args(*root).find("run_id")) report.run_id = *id;
  report.makespan = report.admission_wait + root->duration();

  // Children index + membership: invocation spans descending from this root.
  std::unordered_map<SpanId, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::unordered_map<SpanId, bool> in_run;
  const std::function<bool(const Span&)> descends = [&](const Span& span) -> bool {
    if (span.id == root->id) return true;
    const auto memo = in_run.find(span.id);
    if (memo != in_run.end()) return memo->second;
    const auto parent = by_id.find(span.parent);
    const bool yes = parent != by_id.end() && descends(*parent->second);
    in_run.emplace(span.id, yes);
    return yes;
  };
  std::vector<const Span*> invocations;
  for (const Span& span : spans) {
    if (span.category == "invocation" && !span.open() && descends(span)) {
      invocations.push_back(&span);
    }
  }
  std::sort(invocations.begin(), invocations.end(),
            [](const Span* a, const Span* b) {
              if (a->start != b->start) return a->start < b->start;
              if (a->end != b->end) return a->end > b->end;
              return a->name < b->name;
            });

  // Greedy chain: from the frontier, always continue with the invocation
  // that reaches furthest; when nothing overlaps the frontier, jump across
  // the gap (the gap itself stays unattributed -> orchestration).
  const auto later_end = [](const Span* a, const Span* b) {
    if (a->end != b->end) return a->end < b->end;  // priority_queue: max end on top
    return a->name > b->name;
  };
  std::priority_queue<const Span*, std::vector<const Span*>, decltype(later_end)> reachable(
      later_end);
  std::size_t next = 0;
  double frontier = root->start;
  const double run_end = root->end;
  while (frontier < run_end - kEps) {
    while (next < invocations.size() && invocations[next]->start <= frontier + kEps) {
      reachable.push(invocations[next++]);
    }
    while (!reachable.empty() && reachable.top()->end <= frontier + kEps) reachable.pop();
    const Span* pick = nullptr;
    if (!reachable.empty()) {
      pick = reachable.top();
      reachable.pop();
    } else if (next < invocations.size()) {
      pick = invocations[next++];  // gap: chain jumps forward
    } else {
      break;  // tail of the run has no invocations -> orchestration
    }
    CriticalPathReport::Step step;
    step.name = pick->name;
    step.start = std::max(frontier, pick->start);
    step.end = std::min(pick->end, run_end);
    if (step.end <= step.start + kEps) {
      frontier = std::max(frontier, step.end);
      continue;
    }

    // Attribute the segment to phases, priority running > stage-in > queued
    // (a straggler's queued phase must not claim time the winning attempt
    // spent executing). Phase spans hang under the invocation's attempts.
    Coverage covered;
    const auto claim = [&](const char* phase) {
      double total = 0.0;
      const auto attempts = children.find(pick->id);
      if (attempts == children.end()) return total;
      for (const Span* attempt : attempts->second) {
        const auto phases = children.find(attempt->id);
        if (phases == children.end()) continue;
        for (const Span* p : phases->second) {
          if (p->category != "phase" || p->name != phase) continue;
          total += covered.add(std::max(p->start, step.start), std::min(p->end, step.end));
        }
      }
      return total;
    };
    step.execution = claim("running");
    step.stage_in = claim("stage-in");
    step.ce_queue = claim("queued");
    report.execution += step.execution;
    report.stage_in += step.stage_in;
    report.ce_queue += step.ce_queue;
    report.steps.push_back(std::move(step));
    frontier = report.steps.back().end;
  }

  // Everything not claimed by a chained phase is orchestration: enactor
  // bookkeeping, inter-invocation gaps, uncovered chain time.
  report.orchestration =
      std::max(0.0, report.makespan - report.admission_wait - report.ce_queue -
                        report.stage_in - report.execution);
  return report;
}

std::string CriticalPathReport::to_json() const {
  std::ostringstream out;
  out << "{\"run_id\":\"" << json_escape(run_id) << "\",\"run\":\"" << json_escape(run)
      << "\",\"found\":" << (found ? "true" : "false")
      << ",\"makespan_seconds\":" << json_number(makespan) << ",\"phases\":{"
      << "\"admission_wait\":" << json_number(admission_wait)
      << ",\"ce_queue\":" << json_number(ce_queue)
      << ",\"stage_in\":" << json_number(stage_in)
      << ",\"execution\":" << json_number(execution)
      << ",\"orchestration\":" << json_number(orchestration) << "}"
      << ",\"attributed_seconds\":" << json_number(attributed()) << ",\"steps\":[";
  bool first = true;
  for (const Step& step : steps) {
    if (!first) out << ",";
    first = false;
    out << "{\"name\":\"" << json_escape(step.name)
        << "\",\"start\":" << json_number(step.start)
        << ",\"end\":" << json_number(step.end)
        << ",\"ce_queue\":" << json_number(step.ce_queue)
        << ",\"stage_in\":" << json_number(step.stage_in)
        << ",\"execution\":" << json_number(step.execution) << "}";
  }
  out << "]}";
  return out.str();
}

std::string CriticalPathReport::to_text() const {
  std::ostringstream out;
  if (!found) {
    out << "critical path: run '" << run_id << "' not found in trace\n";
    return out.str();
  }
  out << "== critical path: " << run << " (" << run_id << ") ==\n";
  char line[160];
  std::snprintf(line, sizeof(line), "makespan %.3f s across %zu chained invocation(s)\n",
                makespan, steps.size());
  out << line;
  const auto row = [&](const char* phase, double seconds) {
    const double share = makespan > 0.0 ? seconds / makespan * 100.0 : 0.0;
    std::snprintf(line, sizeof(line), "  %-14s %10.3f s  %5.1f%%\n", phase, seconds, share);
    out << line;
  };
  row("admission", admission_wait);
  row("ce-queue", ce_queue);
  row("stage-in", stage_in);
  row("execution", execution);
  row("orchestration", orchestration);
  return out.str();
}

void record_phases(MetricsRegistry& metrics, const CriticalPathReport& report) {
  if (!report.found) return;
  const auto set = [&](const char* phase, double seconds) {
    metrics
        .gauge("moteur_critical_path_seconds",
               "Makespan attribution of the run's critical path, per phase",
               Labels{{"run", report.run_id}, {"phase", phase}})
        .set(seconds);
  };
  set("admission_wait", report.admission_wait);
  set("ce_queue", report.ce_queue);
  set("stage_in", report.stage_in);
  set("execution", report.execution);
  set("orchestration", report.orchestration);
}

}  // namespace moteur::obs
