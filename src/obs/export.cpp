#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <sstream>
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

/// The span tree by position (span id - 1). A span's parent precedes it
/// (Tracer::begin), so each entry derives from its parent's in one pass in
/// id order.
struct SpanTree {
  std::vector<int> depth;
  /// Deterministic span keys: the chain of names from the root down, with
  /// the run id standing in for the root's name when recorded.
  std::vector<std::string> key;
  std::vector<int> pid;
  std::vector<int> lane;  // -1 until assigned
};

/// Assign each span of ONE rendering group a lane (tid) so that spans
/// sharing a lane are either disjoint in time or properly nested — Chrome
/// draws exactly that as a stack. Children try their parent's lane first.
/// Ties are broken by the span keys, never by span ids: ids follow event
/// arrival order, which is run-to-run unstable when shards flush their
/// event batches concurrently.
void assign_lanes(const Tracer::Spans& spans, std::vector<std::size_t> members,
                  SpanTree& tree) {
  std::sort(members.begin(), members.end(), [&](std::size_t a, std::size_t b) {
    const Span& sa = spans[a];
    const Span& sb = spans[b];
    if (sa.start != sb.start) return sa.start < sb.start;
    const double da = sa.end - sa.start, db = sb.end - sb.start;
    if (da != db) return da > db;  // enclosing spans first
    if (tree.depth[a] != tree.depth[b]) return tree.depth[a] < tree.depth[b];
    if (tree.key[a] != tree.key[b]) return tree.key[a] < tree.key[b];
    return a < b;
  });

  std::vector<std::vector<double>> lanes;  // per lane: stack of open end times
  const auto fits = [](std::vector<double>& stack, const Span& span) {
    while (!stack.empty() && stack.back() <= span.start) stack.pop_back();
    return stack.empty() || stack.back() >= span.end;
  };
  for (const std::size_t i : members) {
    const Span& span = spans[i];
    int lane = span.parent == 0 ? -1 : tree.lane[span.parent - 1];
    if (lane < 0 || !fits(lanes[static_cast<std::size_t>(lane)], span)) {
      lane = -1;
      for (std::size_t l = 0; l < lanes.size() && lane < 0; ++l) {
        if (fits(lanes[l], span)) lane = static_cast<int>(l);
      }
      if (lane < 0) {
        lane = static_cast<int>(lanes.size());
        lanes.emplace_back();
      }
    }
    lanes[static_cast<std::size_t>(lane)].push_back(span.end);
    tree.lane[i] = lane;
  }
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
  const std::size_t n = spans.size();

  // Span ids follow event arrival order — run-to-run unstable at shards>1
  // where each shard flushes its event batch independently — so every
  // ordering decision below ties on the span keys instead.
  SpanTree tree{std::vector<int>(n), std::vector<std::string>(n), {}, std::vector<int>(n, -1)};
  std::vector<std::size_t> run_roots;
  for (std::size_t i = 0; i < n; ++i) {
    const Span& span = spans[i];
    if (span.parent == 0) {
      const std::string* run_id = tracer.args(span).find("run_id");
      tree.key[i] = run_id ? *run_id : span.name;
      if (span.category == "run") run_roots.push_back(i);
    } else {
      tree.depth[i] = tree.depth[span.parent - 1] + 1;
      tree.key[i] = tree.key[span.parent - 1] + "/" + span.name;
    }
  }

  // Every "run"-category root becomes its own Chrome process (pid), numbered
  // 1..N in start order — concurrent runs recorded into one tracer render as
  // separate lanes instead of interleaving in one stack. Spans not descending
  // from a run root (hand-built traces, orphans) share one default group,
  // which is pid 1 when there are no run roots at all — so single-run and
  // synthetic traces keep the historical "pid":1 output.
  std::sort(run_roots.begin(), run_roots.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].start != spans[b].start) return spans[a].start < spans[b].start;
    if (tree.key[a] != tree.key[b]) return tree.key[a] < tree.key[b];
    return a < b;
  });
  const int default_pid = run_roots.empty() ? 1 : static_cast<int>(run_roots.size()) + 1;
  tree.pid.assign(n, default_pid);
  for (std::size_t r = 0; r < run_roots.size(); ++r) {
    tree.pid[run_roots[r]] = static_cast<int>(r) + 1;
  }
  std::vector<std::vector<std::size_t>> groups(static_cast<std::size_t>(default_pid));
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].parent != 0) tree.pid[i] = tree.pid[spans[i].parent - 1];
    groups[static_cast<std::size_t>(tree.pid[i] - 1)].push_back(i);
  }
  for (auto& members : groups) assign_lanes(spans, std::move(members), tree);

  // Emit in (start, enclosing-first) order — the same order lanes were
  // assigned in — so the file is stable and viewer-friendly. Ties fall to
  // (pid, span key) so the emission order, like the lanes, does not depend
  // on event arrival order.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& sa = spans[a];
    const Span& sb = spans[b];
    if (sa.start != sb.start) return sa.start < sb.start;
    const double da = sa.end - sa.start, db = sb.end - sb.start;
    if (da != db) return da > db;
    if (tree.pid[a] != tree.pid[b]) return tree.pid[a] < tree.pid[b];
    if (tree.key[a] != tree.key[b]) return tree.key[a] < tree.key[b];
    return a < b;
  });

  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const std::size_t i : order) {
    const Span& span = spans[i];
    if (!first) out << ",\n";
    first = false;
    const double ts = span.start * 1e6;  // backend seconds -> microseconds
    const double dur = (span.open() ? 0.0 : span.end - span.start) * 1e6;
    char numbers[96];
    std::snprintf(numbers, sizeof(numbers), "\"ts\":%.3f,\"dur\":%.3f", ts, dur);
    out << "{\"name\":\"" << json_escape(span.name) << "\",\"cat\":\""
        << json_escape(span.category) << "\",\"ph\":\"X\"," << numbers
        << ",\"pid\":" << tree.pid[i] << ",\"tid\":" << tree.lane[i] + 1
        << ",\"args\":{\"id\":\"" << span.id << "\",\"parent\":\"" << span.parent << "\"";
    for (const Annotation& arg : tracer.args(span)) {
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
