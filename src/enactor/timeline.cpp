#include "enactor/timeline.hpp"

#include <algorithm>

namespace moteur::enactor {

std::string InvocationTrace::data_label() const {
  std::string label;
  for (const auto& index : indices) {
    if (!label.empty()) label += ",";
    label += "D";
    if (index.empty()) {
      label += "*";  // barrier / aggregate invocation
    } else {
      for (std::size_t i = 0; i < index.size(); ++i) {
        if (i != 0) label += ".";
        label += std::to_string(index[i]);
      }
    }
  }
  return label.empty() ? "D?" : label;
}

BreakerTransitionTrace breaker_row(const grid::CeHealth::Transition& t) {
  return {t.time, t.computing_element, t.from, t.to, t.failures_in_window};
}

void Timeline::add(InvocationTrace trace) { traces_.push_back(std::move(trace)); }

void Timeline::add_breaker(BreakerTransitionTrace transition) {
  breaker_transitions_.push_back(std::move(transition));
}

double Timeline::makespan() const {
  double last = 0.0;
  for (const auto& trace : traces_) {
    if (!trace.superseded) last = std::max(last, trace.end_time);
  }
  return last;
}

std::vector<const InvocationTrace*> Timeline::for_processor(
    const std::string& processor) const {
  std::vector<const InvocationTrace*> out;
  for (const auto& trace : traces_) {
    if (trace.processor == processor) out.push_back(&trace);
  }
  std::sort(out.begin(), out.end(), [](const InvocationTrace* a, const InvocationTrace* b) {
    return a->submit_time < b->submit_time;
  });
  return out;
}

double Timeline::total_overhead_seconds() const {
  double total = 0.0;
  for (const auto& trace : traces_) {
    if (trace.job) total += trace.job->overhead_seconds();
  }
  return total;
}

}  // namespace moteur::enactor
