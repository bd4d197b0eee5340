#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace moteur {

// Validated parsing for CLI flag and manifest attribute values. Every parser
// names the offending flag in its ParseError so the CLI surfaces "--retries
// must be a positive integer (got 'x')" instead of a bare std::stoul
// exception, and exits non-zero through the normal error path. Real-valued
// parsers refuse non-finite input ("nan", "inf").

/// Strictly positive integer (counts: --retries, --shards, --runs, ...).
std::size_t parse_positive_count(const std::string& text, const std::string& flag);

/// Probability in [0, 1] (--inject-failures, --se-loss, ...).
double parse_probability(const std::string& text, const std::string& flag);

/// Fraction in (0, 1] (--overhead-fraction).
double parse_fraction(const std::string& text, const std::string& flag);

/// "true" / "false" (also "1" / "0").
bool parse_bool(const std::string& text, const std::string& flag);

/// Strictly positive seconds (--telemetry-interval).
double parse_positive_seconds(const std::string& text, const std::string& flag);

/// Seconds >= 0 (--telemetry-linger, outage starts).
double parse_nonnegative_seconds(const std::string& text, const std::string& flag);

/// Integer >= 0 (--max-inflight, where 0 means unbounded).
std::size_t parse_count(const std::string& text, const std::string& flag);

/// Real number >= 0 (--retry-timeout, where 0 disables the multiplier).
double parse_nonnegative_real(const std::string& text, const std::string& flag);

/// One scheduled storage-element downtime window from --se-outage.
struct SeOutageSpec {
  std::string storage_element;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// Parse "SE:START:DURATION[,SE:START:DURATION...]" — e.g.
/// "se-north:3600:1800,se0:0:600". START >= 0, DURATION > 0. Whether each SE
/// name exists is for the caller to check against its grid configuration.
std::vector<SeOutageSpec> parse_se_outages(const std::string& text,
                                           const std::string& flag);

}  // namespace moteur
