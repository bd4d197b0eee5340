#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace moteur::obs {

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {
  MOTEUR_REQUIRE(capacity_ > 0, Error, "flight recorder capacity must be positive");
  ring_.reserve(capacity_);
}

void FlightRecorder::record(const RunEvent& event) {
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
  }
  next_ = (next_ + 1) % capacity_;
  ++seen_;
}

std::vector<RunEvent> FlightRecorder::window() const {
  std::vector<RunEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // next_ points at the oldest retained event once the ring wrapped.
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  }
  return out;
}

std::string FlightRecorder::dump_json(const std::string& run_id, const std::string& state,
                                      const std::string& error) const {
  std::ostringstream out;
  out << "{\n  \"run\": \"" << json_escape(run_id) << "\",\n  \"state\": \""
      << json_escape(state) << "\",\n  \"error\": \"" << json_escape(error)
      << "\",\n  \"capacity\": " << capacity_ << ",\n  \"events_seen\": " << seen_
      << ",\n  \"events\": [";
  bool first = true;
  for (const RunEvent& event : window()) {
    if (!first) out << ",";
    first = false;
    out << "\n    {\"kind\":\"" << to_string(event.kind)
        << "\",\"time\":" << json_number(event.time) << ",\"run_id\":\""
        << json_escape(event.run_id) << "\"";
    if (!event.processor.empty()) {
      out << ",\"processor\":\"" << json_escape(event.processor.view()) << "\"";
    }
    if (event.invocation != 0) out << ",\"invocation\":" << event.invocation;
    if (event.attempt != 0) out << ",\"attempt\":" << event.attempt;
    if (event.tuples != 0) out << ",\"tuples\":" << event.tuples;
    if (!event.status.empty()) {
      out << ",\"status\":\"" << json_escape(event.status.view()) << "\"";
    }
    if (!event.error.empty()) out << ",\"error\":\"" << json_escape(event.error) << "\"";
    if (!event.computing_element.empty()) {
      out << ",\"ce\":\"" << json_escape(event.computing_element.view()) << "\"";
    }
    if (!event.logical_file.empty()) {
      out << ",\"file\":\"" << json_escape(event.logical_file) << "\"";
    }
    if (event.count != 0) out << ",\"count\":" << event.count;
    if (event.kind == RunEvent::Kind::kAttemptEnded) {
      out << ",\"ok\":" << (event.ok ? "true" : "false")
          << ",\"submit_time\":" << json_number(event.submit_time)
          << ",\"start_time\":" << json_number(event.start_time)
          << ",\"end_time\":" << json_number(event.end_time);
      if (event.stage_in_seconds > 0.0) {
        out << ",\"stage_in_seconds\":" << json_number(event.stage_in_seconds);
      }
      if (event.superseded) out << ",\"superseded\":true";
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

}  // namespace moteur::obs
