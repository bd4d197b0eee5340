#include "enactor/policy.hpp"

#include <limits>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace moteur::enactor {

const char* to_string(FailurePolicy p) {
  switch (p) {
    case FailurePolicy::kFailFast: return "failfast";
    case FailurePolicy::kContinue: return "continue";
  }
  return "?";
}

FailurePolicy parse_failure_policy(const std::string& text) {
  const std::string token = trim(text);
  if (token == "failfast") return FailurePolicy::kFailFast;
  if (token == "continue") return FailurePolicy::kContinue;
  throw ParseError("unknown failure policy '" + token + "' (expected failfast|continue)");
}

double RetryPolicy::backoff_seconds(std::size_t next_attempt) const {
  if (backoff_initial_seconds <= 0.0 || next_attempt < 2) return 0.0;
  double delay = backoff_initial_seconds;
  for (std::size_t a = 2; a < next_attempt; ++a) delay *= backoff_factor;
  return delay;
}

RetryPolicy RetryPolicy::resubmit(std::size_t attempts) {
  RetryPolicy policy;
  policy.max_attempts = attempts;
  return policy;
}

std::size_t EnactmentPolicy::service_capacity() const {
  if (!data_parallelism) return 1;
  return data_parallelism_cap == 0 ? std::numeric_limits<std::size_t>::max()
                                   : data_parallelism_cap;
}

std::string EnactmentPolicy::name() const {
  std::string out;
  const auto append = [&](const char* token) {
    if (!out.empty()) out += "+";
    out += token;
  };
  if (service_parallelism) append("SP");
  if (data_parallelism) append("DP");
  if (job_grouping) append("JG");
  return out.empty() ? "NOP" : out;
}

EnactmentPolicy EnactmentPolicy::nop() {
  return EnactmentPolicy{.data_parallelism = false, .service_parallelism = false,
                         .job_grouping = false};
}

EnactmentPolicy EnactmentPolicy::jg() { return parse("JG"); }

EnactmentPolicy EnactmentPolicy::sp() { return parse("SP"); }

EnactmentPolicy EnactmentPolicy::dp() { return parse("DP"); }

EnactmentPolicy EnactmentPolicy::sp_dp() { return parse("SP+DP"); }

EnactmentPolicy EnactmentPolicy::sp_dp_jg() { return parse("SP+DP+JG"); }

EnactmentPolicy EnactmentPolicy::parse(const std::string& text) {
  EnactmentPolicy policy = nop();
  if (trim(text) == "NOP" || trim(text).empty()) return policy;
  for (const auto& raw : split(text, '+')) {
    const std::string token = trim(raw);
    if (token == "DP") {
      policy.data_parallelism = true;
    } else if (token == "SP") {
      policy.service_parallelism = true;
    } else if (token == "JG") {
      policy.job_grouping = true;
    } else {
      throw ParseError("unknown enactment policy token '" + token + "'");
    }
  }
  return policy;
}

}  // namespace moteur::enactor
