#include "enactor/timeline_csv.hpp"

#include <algorithm>
#include <sstream>

#include "util/strings.hpp"

namespace moteur::enactor {

namespace {

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string timeline_to_csv(const Timeline& timeline, bool data_plane_columns) {
  std::ostringstream os;
  os << "processor,data,submit_s,start_s,end_s,span_s,overhead_s,site,failed,attempt,"
        "superseded,status,skipped";
  if (data_plane_columns) {
    os << ",stagein_mb,stagein_remote_mb,stage_se,bytes_ui_mb,bytes_peer_mb";
  }
  os << '\n';
  auto traces = timeline.traces();
  std::sort(traces.begin(), traces.end(),
            [](const InvocationTrace& a, const InvocationTrace& b) {
              return a.submit_time < b.submit_time;
            });
  for (const auto& trace : traces) {
    os << csv_escape(trace.processor) << ',' << csv_escape(trace.data_label()) << ','
       << format_fixed(trace.submit_time, 3) << ',' << format_fixed(trace.start_time, 3)
       << ',' << format_fixed(trace.end_time, 3) << ','
       << format_fixed(trace.span_seconds(), 3) << ','
       << (trace.job ? format_fixed(trace.job->overhead_seconds(), 3) : std::string())
       << ',' << csv_escape(trace.job ? trace.job->computing_element : std::string())
       << ',' << (trace.failed() ? "1" : "0") << ',' << trace.attempt << ','
       << (trace.superseded ? "1" : "0") << ',' << to_string(trace.status) << ','
       << (trace.skipped() ? "1" : "0");
    if (data_plane_columns) {
      os << ',' << (trace.job ? format_fixed(trace.job->staged_in_megabytes, 3) : std::string())
         << ','
         << (trace.job ? format_fixed(trace.job->remote_input_megabytes, 3) : std::string())
         << ',' << csv_escape(trace.job ? trace.job->staging_element : std::string()) << ','
         << (trace.job ? format_fixed(trace.job->bytes_via_ui, 3) : std::string()) << ','
         << (trace.job ? format_fixed(trace.job->bytes_peer, 3) : std::string());
    }
    os << '\n';
  }
  // Breaker state changes ride along as pseudo-rows: processor "(breaker)",
  // the CE in the site column, the target state in the status column.
  for (const auto& t : timeline.breaker_transitions()) {
    os << "(breaker)," << csv_escape(t.computing_element) << ','
       << format_fixed(t.time, 3) << ',' << format_fixed(t.time, 3) << ','
       << format_fixed(t.time, 3) << ",0.000,," << csv_escape(t.computing_element)
       << ",0,0,0," << grid::to_string(t.to) << ",0\n";
  }
  return os.str();
}

}  // namespace moteur::enactor
