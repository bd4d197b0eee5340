#include "obs/critical_path.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <queue>
#include <sstream>

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

  // Resolve the run root: "run"-category root whose run_id annotation (or,
  // failing that, name) matches; an empty id selects a sole run root.
  const Span* root = nullptr;
  std::size_t run_roots = 0;
  for (const Span& span : spans) {
    if (span.category != "run" || span.parent != 0) continue;
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

  // The run's spans by position from the root on (index = id - root id): a
  // span's parent precedes it (Tracer::begin), so one pass finds every
  // descendant of the root and files it under its parent, in id order.
  const SpanId base = root->id;
  std::vector<char> in_run(spans.size() - base + 1, 0);
  std::vector<std::vector<const Span*>> children(in_run.size());
  in_run[0] = 1;
  std::vector<const Span*> invocations;
  for (std::size_t i = base; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.parent < base || in_run[span.parent - base] == 0) continue;
    in_run[span.id - base] = 1;
    children[span.parent - base].push_back(&span);
    if (span.category == "invocation" && !span.open()) invocations.push_back(&span);
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
      for (const Span* attempt : children[pick->id - base]) {
        for (const Span* p : children[attempt->id - base]) {
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
