#pragma once

#include <functional>
#include <string>
#include <vector>

#include "services/descriptor.hpp"
#include "services/service.hpp"

namespace moteur::services {

/// The paper's generic code wrapper (§3.6): a single standard service
/// interface able to run *any* legacy executable from (i) its XML descriptor
/// and (ii) the runtime input values. The wrapper composes the command line
/// dynamically, stages the executable and sandboxed files, and registers
/// outputs under fresh names.
///
/// Besides simplifying application development ("the application developer
/// only needs writing the executable descriptor"), exposing the descriptor
/// to the enactor is what makes job grouping possible: the enactor can
/// concatenate the command lines of several wrapped codes into one job.
class WrapperService : public Service {
 public:
  /// Executes a composed command line; returns the process exit status and
  /// fills `captured_output`. The default (null) executor does not run
  /// anything — the service then behaves as a pure simulation service.
  using Executor =
      std::function<int(const std::vector<std::string>& argv, std::string& captured_output)>;

  /// Names the registration destination of an output file.
  using OutputNamer = std::function<std::string(
      const std::string& service_id, const OutputDescriptor& output, const Inputs& inputs)>;

  struct Options {
    double compute_seconds = 1.0;
    double megabytes_per_input_file = 0.0;
    double megabytes_per_output_file = 0.0;
    Executor executor;         // null: simulate
    OutputNamer output_namer;  // null: stable GFN from input lineage
  };

  WrapperService(std::string id, Descriptor descriptor, Options options);

  const Descriptor& descriptor() const { return descriptor_; }

  std::vector<std::string> input_ports() const override;
  std::vector<std::string> output_ports() const override;

  /// Compose the full command line for the given inputs: input values come
  /// from the tokens' repr, output destinations from the output namer.
  std::vector<std::string> compose_command_line(const Inputs& inputs) const;

  Result invoke(const Inputs& inputs) override;
  grid::JobRequest job_profile(const Inputs& inputs) const override;

  /// Folds the full XML descriptor into the digest, so editing a descriptor
  /// invalidates any memoized invocations of the wrapped code.
  std::uint64_t content_digest() const override;

 private:
  /// Every output's destination, plus every input's repr when
  /// `input_values`. Throws EnactmentError when an input is missing.
  std::map<std::string, std::string> bind_values(const Inputs& inputs,
                                                 bool input_values) const;

  Descriptor descriptor_;
  Options options_;
};

}  // namespace moteur::services
