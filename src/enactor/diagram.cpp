#include "enactor/diagram.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/strings.hpp"

namespace moteur::enactor {

std::string render_execution_diagram(const Timeline& timeline,
                                     const std::vector<std::string>& row_order,
                                     const DiagramOptions& options) {
  const auto& traces = timeline.traces();
  if (traces.empty()) return "(empty timeline)\n";

  double t0 = traces.front().submit_time;
  double t1 = 0.0;
  double shortest = 0.0;
  for (const auto& trace : traces) {
    t0 = std::min(t0, trace.submit_time);
    t1 = std::max(t1, trace.end_time);
    const double span = trace.end_time - trace.submit_time;
    if (span > 0.0 && (shortest == 0.0 || span < shortest)) shortest = span;
  }

  double per_column = options.seconds_per_column;
  if (per_column <= 0.0) per_column = shortest > 0.0 ? shortest : 1.0;
  std::size_t columns =
      static_cast<std::size_t>(std::ceil((t1 - t0) / per_column - 1e-9));
  columns = std::max<std::size_t>(columns, 1);
  const bool truncated = columns > options.max_columns;
  columns = std::min(columns, options.max_columns);

  // Cell contents: labels of the data sets active in that time bin.
  std::vector<std::vector<std::string>> cells(row_order.size(),
                                              std::vector<std::string>(columns));
  for (std::size_t r = 0; r < row_order.size(); ++r) {
    for (const InvocationTrace* trace : timeline.for_processor(row_order[r])) {
      const auto first = static_cast<std::size_t>(
          std::max(0.0, std::floor((trace->submit_time - t0) / per_column + 1e-9)));
      auto last = static_cast<std::size_t>(
          std::ceil((trace->end_time - t0) / per_column - 1e-9));
      last = std::max(last, first + 1);
      const std::string label = trace->data_label();
      for (std::size_t c = first; c < std::min(last, columns); ++c) {
        std::string& cell = cells[r][c];
        if (!cell.empty()) cell += " ";
        cell += label;
      }
    }
  }

  // Column widths adapt to the widest cell.
  std::vector<std::size_t> widths(columns, 1);
  for (std::size_t c = 0; c < columns; ++c) {
    for (std::size_t r = 0; r < row_order.size(); ++r) {
      widths[c] = std::max(widths[c], cells[r][c].size());
    }
  }

  std::size_t name_width = 0;
  for (const auto& name : row_order) name_width = std::max(name_width, name.size());

  std::ostringstream os;
  for (std::size_t r = 0; r < row_order.size(); ++r) {
    os << pad_right(row_order[r], name_width) << " |";
    for (std::size_t c = 0; c < columns; ++c) {
      const std::string& cell = cells[r][c];
      os << ' ' << pad_right(cell.empty() ? "X" : cell, widths[c]) << " |";
    }
    if (truncated && r == 0) os << " ...";
    os << '\n';
  }
  os << pad_right("", name_width) << "  "
     << "(1 column = " << format_fixed(per_column, per_column < 10 ? 1 : 0)
     << " s, t0 = " << format_fixed(t0, 0) << " s)\n";
  return os.str();
}

std::string render_trace_table(const Timeline& timeline) {
  std::ostringstream os;
  os << pad_right("processor", 24) << pad_left("data", 10) << pad_left("submit", 12)
     << pad_left("start", 12) << pad_left("end", 12) << pad_left("span", 10)
     << pad_left("status", 12) << "  site\n";
  auto traces = timeline.traces();
  std::sort(traces.begin(), traces.end(),
            [](const InvocationTrace& a, const InvocationTrace& b) {
              return a.submit_time < b.submit_time;
            });
  for (const auto& trace : traces) {
    os << pad_right(trace.processor, 24) << pad_left(trace.data_label(), 10)
       << pad_left(format_fixed(trace.submit_time, 1), 12)
       << pad_left(format_fixed(trace.start_time, 1), 12)
       << pad_left(format_fixed(trace.end_time, 1), 12)
       << pad_left(format_fixed(trace.span_seconds(), 1), 10)
       << pad_left(to_string(trace.status), 12) << "  "
       << (trace.job ? trace.job->computing_element : std::string("-"))
       << (trace.failed() ? "  FAILED" : "") << (trace.superseded ? "  superseded" : "")
       << '\n';
  }
  return os.str();
}

}  // namespace moteur::enactor
