#include "enactor/failure_report.hpp"

#include <sstream>

#include "util/strings.hpp"

namespace moteur::enactor {

namespace {

void write_indices(std::ostringstream& out, const data::IndexVector& indices) {
  out << "[";
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (i != 0) out << ",";
    out << indices[i];
  }
  out << "]";
}

}  // namespace

std::string FailureReport::to_json() const {
  std::ostringstream out;
  out << "{\"lost\":[";
  for (std::size_t i = 0; i < lost.size(); ++i) {
    const LostTuple& t = lost[i];
    if (i != 0) out << ",";
    out << "{\"processor\":\"" << json_escape(t.processor) << "\",\"indices\":";
    write_indices(out, t.indices);
    out << ",\"status\":\"" << json_escape(t.status) << "\",\"cause\":\""
        << json_escape(t.cause) << "\"";
    // Emitted only for data losses, so reports without them stay bytewise
    // identical to the pre-data-fault schema.
    if (!t.files.empty()) {
      out << ",\"files\":[";
      for (std::size_t f = 0; f < t.files.size(); ++f) {
        if (f != 0) out << ",";
        out << "\"" << json_escape(t.files[f]) << "\"";
      }
      out << "]";
    }
    out << "}";
  }
  out << "],\"skipped\":[";
  for (std::size_t i = 0; i < skipped.size(); ++i) {
    const SkippedInvocation& s = skipped[i];
    if (i != 0) out << ",";
    out << "{\"processor\":\"" << json_escape(s.processor) << "\",\"indices\":";
    write_indices(out, s.indices);
    out << ",\"originProcessor\":\"" << json_escape(s.origin_processor)
        << "\",\"cause\":\"" << json_escape(s.cause) << "\"}";
  }
  out << "],\"poisonedAtSink\":{";
  bool first = true;
  for (const auto& [sink, count] : poisoned_at_sink) {
    if (!first) out << ",";
    first = false;
    out << "\"" << json_escape(sink) << "\":" << count;
  }
  out << "}}";
  return out.str();
}

std::string FailureReport::to_text() const {
  if (empty()) return "no failures";
  std::ostringstream out;
  out << lost.size() << " tuple(s) lost, " << skipped.size()
      << " invocation(s) skipped downstream\n";
  for (const LostTuple& t : lost) {
    out << "  lost    " << t.processor << " " << data::to_string(t.indices) << " ["
        << t.status << "] " << t.cause << "\n";
    for (const std::string& file : t.files) {
      out << "          unrecoverable file " << file << "\n";
    }
  }
  for (const SkippedInvocation& s : skipped) {
    out << "  skipped " << s.processor << " " << data::to_string(s.indices)
        << " (root cause at " << s.origin_processor << ")\n";
  }
  for (const auto& [sink, count] : poisoned_at_sink) {
    out << "  sink    " << sink << ": " << count << " output(s) missing\n";
  }
  return out.str();
}

}  // namespace moteur::enactor
