#include "util/flags.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace moteur {

namespace {

/// Finite reals only: strtod also reads "nan" and "inf", which would slip
/// through every range check below.
bool to_double(const std::string& text, double& out) {
  const std::string trimmed = trim(text);
  if (trimmed.empty()) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtod(trimmed.c_str(), &end);
  return errno == 0 && end == trimmed.c_str() + trimmed.size() && std::isfinite(out);
}

/// `text` as a finite real that `in_range` accepts, or a ParseError saying
/// what `flag` must be.
template <typename InRange>
double real(const std::string& text, const std::string& flag, InRange in_range,
            const char* what) {
  double value = 0.0;
  if (!to_double(text, value) || !in_range(value)) {
    throw ParseError(flag + " must be " + what + " (got '" + text + "')");
  }
  return value;
}

bool to_count(const std::string& text, std::size_t& out) {
  const std::string trimmed = trim(text);
  if (trimmed.empty() || trimmed.front() == '-' || trimmed.front() == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(trimmed.c_str(), &end, 10);
  if (errno != 0 || end != trimmed.c_str() + trimmed.size()) return false;
  out = static_cast<std::size_t>(value);
  return true;
}

}  // namespace

std::size_t parse_positive_count(const std::string& text, const std::string& flag) {
  std::size_t value = 0;
  if (!to_count(text, value) || value == 0) {
    throw ParseError(flag + " must be a positive integer (got '" + text + "')");
  }
  return value;
}

std::size_t parse_count(const std::string& text, const std::string& flag) {
  std::size_t value = 0;
  if (!to_count(text, value)) {
    throw ParseError(flag + " must be a non-negative integer (got '" + text + "')");
  }
  return value;
}

double parse_nonnegative_real(const std::string& text, const std::string& flag) {
  return real(text, flag, [](double v) { return v >= 0.0; }, "a non-negative number");
}

double parse_probability(const std::string& text, const std::string& flag) {
  return real(text, flag, [](double v) { return v >= 0.0 && v <= 1.0; },
              "a probability in [0, 1]");
}

double parse_fraction(const std::string& text, const std::string& flag) {
  return real(text, flag, [](double v) { return v > 0.0 && v <= 1.0; },
              "a fraction in (0, 1]");
}

bool parse_bool(const std::string& text, const std::string& flag) {
  const std::string trimmed = trim(text);
  if (trimmed == "true" || trimmed == "1") return true;
  if (trimmed == "false" || trimmed == "0") return false;
  throw ParseError(flag + " must be true or false (got '" + text + "')");
}

double parse_positive_seconds(const std::string& text, const std::string& flag) {
  return real(text, flag, [](double v) { return v > 0.0; }, "a positive number of seconds");
}

double parse_nonnegative_seconds(const std::string& text, const std::string& flag) {
  return real(text, flag, [](double v) { return v >= 0.0; },
              "a non-negative number of seconds");
}

std::vector<SeOutageSpec> parse_se_outages(const std::string& text,
                                           const std::string& flag) {
  std::vector<SeOutageSpec> specs;
  for (const std::string& entry : split(text, ',')) {
    const std::vector<std::string> fields = split(entry, ':');
    if (fields.size() != 3 || trim(fields[0]).empty()) {
      throw ParseError(flag + " entries must look like SE:START:DURATION (got '" +
                       entry + "')");
    }
    SeOutageSpec spec;
    spec.storage_element = trim(fields[0]);
    spec.start_seconds = parse_nonnegative_seconds(fields[1], flag + " start");
    spec.duration_seconds = parse_positive_seconds(fields[2], flag + " duration");
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) {
    throw ParseError(flag + " names no outage windows");
  }
  return specs;
}

}  // namespace moteur
