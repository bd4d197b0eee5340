#include "services/wrapper_service.hpp"

#include "data/dataref.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace moteur::services {

WrapperService::WrapperService(std::string id, Descriptor descriptor, Options options)
    : Service(std::move(id)),
      descriptor_(std::move(descriptor)),
      options_(std::move(options)) {}

std::vector<std::string> WrapperService::input_ports() const {
  return descriptor_.input_names();
}

std::vector<std::string> WrapperService::output_ports() const {
  return descriptor_.output_names();
}

std::map<std::string, std::string> WrapperService::bind_values(const Inputs& inputs,
                                                               bool input_values) const {
  std::map<std::string, std::string> values;
  for (const auto& in : descriptor_.inputs) {
    const auto it = inputs.find(in.name);
    MOTEUR_REQUIRE(it != inputs.end(), EnactmentError,
                   "wrapper '" + id() + "': missing input '" + in.name + "'");
    if (input_values) values[in.name] = it->second.repr();
  }
  if (options_.output_namer) {
    for (const auto& out : descriptor_.outputs) {
      values[out.name] = options_.output_namer(id(), out, inputs);
    }
    return values;
  }
  // Stable destinations derived from the input lineage,
  // "<service>.<port>(<input id>,<input id>,...)": the lineage is built once
  // per invocation, and each name in one string reserved to its length.
  std::size_t lineage_length = inputs.empty() ? 0 : inputs.size() - 1;  // the commas
  for (const auto& [port, token] : inputs) lineage_length += token.id().size();
  std::string lineage;
  lineage.reserve(lineage_length);
  for (const auto& [port, token] : inputs) {
    if (!lineage.empty()) lineage += ',';
    lineage += token.id();
  }
  for (const auto& out : descriptor_.outputs) {
    std::string name;
    name.reserve(id().size() + 1 + out.name.size() + 1 + lineage.size() + 1);
    name += id();
    name += '.';
    name += out.name;
    name += '(';
    name += lineage;
    name += ')';
    values[out.name] = out.access.resolve(std::move(name));
  }
  return values;
}

std::vector<std::string> WrapperService::compose_command_line(const Inputs& inputs) const {
  return descriptor_.compose_command_line(bind_values(inputs, true));
}

Result WrapperService::invoke(const Inputs& inputs) {
  // Only a command line reads the input values.
  auto values = bind_values(inputs, static_cast<bool>(options_.executor));
  if (options_.executor) {
    const auto argv = descriptor_.compose_command_line(values);
    std::string captured;
    const int status = options_.executor(argv, captured);
    MOTEUR_REQUIRE(status == 0, ExecutionError,
                   "wrapper '" + id() + "': executable exited with status " +
                       std::to_string(status));
    MOTEUR_LOG(kDebug, "wrapper") << id() << " ran: " << argv.front()
                                  << " -> " << captured.size() << " bytes captured";
  }

  Result result;
  for (const auto& out : descriptor_.outputs) {
    OutputValue value;
    value.repr = std::move(values.at(out.name));
    value.payload = value.repr;
    result.outputs.emplace(out.name, std::move(value));
  }
  return result;
}

std::uint64_t WrapperService::content_digest() const {
  return data::fnv1a(descriptor_.to_xml(), data::fnv1a("service:" + id()));
}

grid::JobRequest WrapperService::job_profile(const Inputs&) const {
  grid::JobRequest request;
  request.name = id();
  request.compute_seconds = options_.compute_seconds;
  double input_files = 0.0;
  for (const auto& in : descriptor_.inputs) {
    if (in.is_file()) input_files += 1.0;
  }
  request.input_megabytes = input_files * options_.megabytes_per_input_file;
  request.output_megabytes =
      static_cast<double>(descriptor_.outputs.size()) * options_.megabytes_per_output_file;
  return request;
}

}  // namespace moteur::services
