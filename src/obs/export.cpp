#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "util/strings.hpp"

namespace moteur::obs {

namespace {

/// Shortest-round-trip-ish number: integers without a fraction, the rest
/// with enough digits to be stable across platforms.
std::string format_number(double value) {
  char buf[32];
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", value);
  }
  return buf;
}

/// Assign each span of ONE rendering group a lane (tid) so that spans
/// sharing a lane are either disjoint in time or properly nested — Chrome
/// draws exactly that as a stack. Children try their parent's lane first.
/// Ties are broken by the caller-supplied deterministic span keys, never by
/// span ids: ids follow event arrival order, which is run-to-run unstable
/// when shards flush their event batches concurrently.
std::unordered_map<SpanId, int> assign_lanes(
    const std::vector<const Span*>& spans,
    const std::unordered_map<SpanId, std::string>& key_of) {
  std::unordered_map<SpanId, int> depth;
  depth.reserve(spans.size());
  std::unordered_map<SpanId, const Span*> by_id;
  for (const Span* span : spans) by_id.emplace(span->id, span);
  const std::function<int(const Span&)> depth_of = [&](const Span& span) -> int {
    const auto it = depth.find(span.id);
    if (it != depth.end()) return it->second;
    const auto parent = by_id.find(span.parent);
    const int d = parent == by_id.end() ? 0 : depth_of(*parent->second) + 1;
    depth.emplace(span.id, d);
    return d;
  };

  std::vector<const Span*> order(spans);
  std::sort(order.begin(), order.end(), [&](const Span* a, const Span* b) {
    if (a->start != b->start) return a->start < b->start;
    const double da = a->end - a->start, db = b->end - b->start;
    if (da != db) return da > db;  // enclosing spans first
    const int depth_a = depth_of(*a), depth_b = depth_of(*b);
    if (depth_a != depth_b) return depth_a < depth_b;
    const auto key_a = key_of.find(a->id), key_b = key_of.find(b->id);
    if (key_a != key_of.end() && key_b != key_of.end() &&
        key_a->second != key_b->second) {
      return key_a->second < key_b->second;
    }
    return a->id < b->id;
  });

  std::vector<std::vector<double>> lanes;  // per lane: stack of open end times
  std::unordered_map<SpanId, int> lane_of;
  lane_of.reserve(spans.size());
  const auto fits = [](std::vector<double>& stack, const Span& span) {
    while (!stack.empty() && stack.back() <= span.start) stack.pop_back();
    return stack.empty() || stack.back() >= span.end;
  };
  for (const Span* span : order) {
    int lane = -1;
    const auto parent_lane = lane_of.find(span->parent);
    if (parent_lane != lane_of.end() && fits(lanes[parent_lane->second], *span)) {
      lane = parent_lane->second;
    } else {
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        if (fits(lanes[i], *span)) {
          lane = static_cast<int>(i);
          break;
        }
      }
      if (lane < 0) {
        lane = static_cast<int>(lanes.size());
        lanes.emplace_back();
      }
    }
    lanes[static_cast<std::size_t>(lane)].push_back(span->end);
    lane_of.emplace(span->id, lane);
  }
  return lane_of;
}

std::string label_suffix(const Labels& labels, const std::string& extra_key = "",
                         const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  const auto append = [&](const std::string& key, const std::string& value) {
    if (!first) out += ",";
    first = false;
    std::string escaped;
    for (const char c : value) {
      if (c == '\\' || c == '"') escaped += '\\';
      if (c == '\n') {
        escaped += "\\n";
        continue;
      }
      escaped += c;
    }
    out += key + "=\"" + escaped + "\"";
  };
  for (const auto& [key, value] : labels) append(key, value);
  if (!extra_key.empty()) append(extra_key, extra_value);
  return out + "}";
}

}  // namespace

std::string chrome_trace_json(const Tracer& tracer) {
  const Tracer::Spans& spans = tracer.spans();

  // Every "run"-category root becomes its own Chrome process (pid), numbered
  // 1..N in start order — concurrent runs recorded into one tracer render as
  // separate lanes instead of interleaving in one stack. Spans not descending
  // from a run root (hand-built traces, orphans) share one default group,
  // which is pid 1 when there are no run roots at all — so single-run and
  // synthetic traces keep the historical "pid":1 output.
  std::unordered_map<SpanId, const Span*> by_id;
  for (const Span& span : spans) by_id.emplace(span.id, &span);
  std::unordered_map<SpanId, SpanId> root_memo;
  const std::function<SpanId(const Span&)> find_root = [&](const Span& span) -> SpanId {
    const auto it = root_memo.find(span.id);
    if (it != root_memo.end()) return it->second;
    const auto parent = by_id.find(span.parent);
    const SpanId root = parent == by_id.end() ? span.id : find_root(*parent->second);
    root_memo.emplace(span.id, root);
    return root;
  };
  // Deterministic per-span keys: the chain of names from the root down, with
  // the run id standing in for the root's name when recorded. Span ids follow
  // event arrival order — run-to-run unstable at shards>1 where each shard
  // flushes its event batch independently — so every ordering decision below
  // ties on these keys instead.
  std::unordered_map<SpanId, std::string> key_of;
  key_of.reserve(spans.size());
  const std::function<const std::string&(const Span&)> key_for = [&](const Span& span)
      -> const std::string& {
    const auto it = key_of.find(span.id);
    if (it != key_of.end()) return it->second;
    std::string key;
    const auto parent = by_id.find(span.parent);
    if (parent == by_id.end()) {
      const std::string* run_id = tracer.args(span).find("run_id");
      key = run_id ? *run_id : span.name;
    } else {
      key = key_for(*parent->second) + "/" + span.name;
    }
    return key_of.emplace(span.id, std::move(key)).first->second;
  };
  for (const Span& span : spans) key_for(span);

  std::vector<const Span*> run_roots;
  for (const Span& span : spans) {
    if (span.category == "run" && by_id.find(span.parent) == by_id.end()) {
      run_roots.push_back(&span);
    }
  }
  std::sort(run_roots.begin(), run_roots.end(), [&](const Span* a, const Span* b) {
    if (a->start != b->start) return a->start < b->start;
    const std::string& key_a = key_of.at(a->id);
    const std::string& key_b = key_of.at(b->id);
    if (key_a != key_b) return key_a < key_b;
    return a->id < b->id;
  });
  std::unordered_map<SpanId, int> pid_of_root;
  for (std::size_t i = 0; i < run_roots.size(); ++i) {
    pid_of_root.emplace(run_roots[i]->id, static_cast<int>(i) + 1);
  }
  const int default_pid = run_roots.empty() ? 1 : static_cast<int>(run_roots.size()) + 1;

  std::map<int, std::vector<const Span*>> groups;
  std::unordered_map<SpanId, int> pid_of;
  pid_of.reserve(spans.size());
  for (const Span& span : spans) {
    const auto it = pid_of_root.find(find_root(span));
    const int pid = it == pid_of_root.end() ? default_pid : it->second;
    pid_of.emplace(span.id, pid);
    groups[pid].push_back(&span);
  }
  std::unordered_map<SpanId, int> lane_of;
  lane_of.reserve(spans.size());
  for (const auto& [pid, members] : groups) {
    for (const auto& [id, lane] : assign_lanes(members, key_of)) lane_of.emplace(id, lane);
  }

  // Emit in (start, enclosing-first) order — the same order lanes were
  // assigned in — so the file is stable and viewer-friendly. Ties fall to
  // (pid, span key) so the emission order, like the lanes, does not depend
  // on event arrival order.
  std::vector<const Span*> order;
  order.reserve(spans.size());
  for (const Span& span : spans) order.push_back(&span);
  std::sort(order.begin(), order.end(), [&](const Span* a, const Span* b) {
    if (a->start != b->start) return a->start < b->start;
    const double da = a->end - a->start, db = b->end - b->start;
    if (da != db) return da > db;
    const int pid_a = pid_of.at(a->id), pid_b = pid_of.at(b->id);
    if (pid_a != pid_b) return pid_a < pid_b;
    const std::string& key_a = key_of.at(a->id);
    const std::string& key_b = key_of.at(b->id);
    if (key_a != key_b) return key_a < key_b;
    return a->id < b->id;
  });

  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span* span : order) {
    if (!first) out << ",\n";
    first = false;
    const double ts = span->start * 1e6;  // backend seconds -> microseconds
    const double dur = (span->open() ? 0.0 : span->end - span->start) * 1e6;
    char numbers[96];
    std::snprintf(numbers, sizeof(numbers), "\"ts\":%.3f,\"dur\":%.3f", ts, dur);
    const auto lane = lane_of.find(span->id);
    const auto pid = pid_of.find(span->id);
    out << "{\"name\":\"" << json_escape(span->name) << "\",\"cat\":\""
        << json_escape(span->category) << "\",\"ph\":\"X\"," << numbers
        << ",\"pid\":" << (pid == pid_of.end() ? 1 : pid->second)
        << ",\"tid\":" << (lane == lane_of.end() ? 0 : lane->second + 1)
        << ",\"args\":{\"id\":\"" << span->id << "\",\"parent\":\"" << span->parent << "\"";
    for (const Annotation& arg : tracer.args(*span)) {
      out << ",\"" << json_escape(arg.key) << "\":\"" << json_escape(arg.value) << "\"";
    }
    out << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

std::string prometheus_text(const MetricsRegistry& metrics) {
  std::ostringstream out;
  for (const auto& [name, family] : metrics.families()) {
    out << "# HELP " << name << " " << family.help << "\n";
    out << "# TYPE " << name << " " << to_string(family.type) << "\n";
    for (const auto& [labels, instrument] : family.series) {
      switch (family.type) {
        case MetricType::kCounter:
          out << name << label_suffix(labels) << " " << format_number(instrument.counter->value())
              << "\n";
          break;
        case MetricType::kGauge:
          out << name << label_suffix(labels) << " " << format_number(instrument.gauge->value())
              << "\n";
          break;
        case MetricType::kHistogram: {
          const Histogram& h = *instrument.histogram;
          std::uint64_t cumulative = 0;
          for (std::size_t i = 0; i < h.bounds().size(); ++i) {
            cumulative += h.bucket_counts()[i];
            out << name << "_bucket"
                << label_suffix(labels, "le", format_number(h.bounds()[i])) << " "
                << cumulative << "\n";
          }
          cumulative += h.bucket_counts().back();
          out << name << "_bucket" << label_suffix(labels, "le", "+Inf") << " " << cumulative
              << "\n";
          out << name << "_sum" << label_suffix(labels) << " " << format_number(h.sum())
              << "\n";
          out << name << "_count" << label_suffix(labels) << " " << h.count() << "\n";
          break;
        }
      }
    }
  }
  return out.str();
}

std::string obs_summary(const Tracer& tracer, const MetricsRegistry& metrics) {
  std::ostringstream out;
  out << "== observability summary ==\n";

  // Span roll-up: count and total busy time per category.
  std::map<std::string, std::pair<std::size_t, double>> by_category;
  for (const Span& span : tracer.spans()) {
    auto& [count, busy] = by_category[std::string(span.category)];
    ++count;
    busy += span.duration();
  }
  out << "spans:\n";
  for (const auto& [category, entry] : by_category) {
    char line[128];
    std::snprintf(line, sizeof(line), "  %-12s %6zu span(s) %14.1f s total\n",
                  category.c_str(), entry.first, entry.second);
    out << line;
  }

  out << "metrics:\n";
  for (const auto& [name, family] : metrics.families()) {
    for (const auto& [labels, instrument] : family.series) {
      const std::string series = name + label_suffix(labels);
      switch (family.type) {
        case MetricType::kCounter:
          out << "  " << series << " = " << format_number(instrument.counter->value()) << "\n";
          break;
        case MetricType::kGauge:
          out << "  " << series << " = " << format_number(instrument.gauge->value())
              << " (max " << format_number(instrument.gauge->max_seen()) << ")\n";
          break;
        case MetricType::kHistogram: {
          const Histogram& h = *instrument.histogram;
          char line[160];
          std::snprintf(line, sizeof(line),
                        "  %s: count=%llu mean=%.1f p50=%.1f p95=%.1f max=%.1f\n",
                        series.c_str(), static_cast<unsigned long long>(h.count()),
                        h.count() ? h.sum() / static_cast<double>(h.count()) : 0.0,
                        h.percentile(50.0), h.percentile(95.0), h.max_seen());
          out << line;
          break;
        }
      }
    }
  }
  return out.str();
}

}  // namespace moteur::obs
