// The generic code wrapper (§3.6, Figure 8) on a REAL executable: an XML
// descriptor wraps /bin/echo; the wrapper composes the command line
// dynamically from the runtime inputs, executes it locally, and the
// enactor drives several invocations through the standard service
// interface. A second run groups two wrapped codes into one "submission".
//
//   $ ./wrapper_service
#include <array>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "enactor/enactor.hpp"
#include "enactor/threaded_backend.hpp"
#include "services/wrapper_service.hpp"
#include "util/strings.hpp"

namespace {

using namespace moteur;

/// Executor that actually runs the composed command line via popen.
int run_locally(const std::vector<std::string>& argv, std::string& captured) {
  std::string command;
  for (const auto& arg : argv) {
    if (!command.empty()) command += ' ';
    command += "'" + arg + "'";
  }
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  std::array<char, 256> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    captured += buffer.data();
  }
  return pclose(pipe);
}

services::Descriptor echo_descriptor(const std::string& tag) {
  services::Descriptor d;
  d.executable_name = "/bin/echo";
  d.executable_access = {services::AccessType::kLocal, ""};
  d.inputs.push_back({"message", "[" + tag + "]", std::nullopt});
  d.outputs.push_back({"result", "->", services::Access{services::AccessType::kLocal, ""}});
  return d;
}

}  // namespace

int main() {
  std::puts("1. The descriptor (Figure-8 format) that makes /bin/echo a service:\n");
  std::fputs(echo_descriptor("step1").to_xml().c_str(), stdout);

  services::WrapperService::Options options;
  options.compute_seconds = 1.0;
  options.executor = &run_locally;
  options.output_namer = [](const std::string& id, const services::OutputDescriptor& out,
                            const services::Inputs& inputs) {
    const auto& indices = inputs.begin()->second.indices();
    return id + "." + out.name + "#" +
           (indices.empty() ? "agg" : std::to_string(indices[0]));
  };

  // step1's executor records each command line before running it. Worker
  // threads call it concurrently, so the record is kept under a lock.
  std::mutex step1_mu;
  std::vector<std::vector<std::string>> step1_command_lines;
  services::WrapperService::Options step1_options = options;
  step1_options.executor = [&](const std::vector<std::string>& argv,
                               std::string& captured) {
    {
      std::lock_guard<std::mutex> lock(step1_mu);
      step1_command_lines.push_back(argv);
    }
    return run_locally(argv, captured);
  };

  services::ServiceRegistry registry;
  registry.add(std::make_shared<services::WrapperService>("step1",
                                                          echo_descriptor("step1"),
                                                          step1_options));
  registry.add(std::make_shared<services::WrapperService>("step2",
                                                          echo_descriptor("step2"),
                                                          options));

  workflow::Workflow wf("wrapped");
  wf.add_source("messages");
  wf.add_processor("step1", {"message"}, {"result"});
  wf.add_processor("step2", {"message"}, {"result"});
  wf.add_sink("out");
  wf.link("messages", "out", "step1", "message");
  wf.link("step1", "result", "step2", "message");
  wf.link("step2", "result", "out", "in");

  data::InputDataSet inputs;
  inputs.add_item("messages", "hello-grid");
  inputs.add_item("messages", "bonjour-egee");

  std::puts("\n2. Enacting step1 -> step2 (each invocation REALLY runs echo):\n");
  enactor::ThreadedBackend backend;
  enactor::Enactor moteur(backend, registry, enactor::EnactmentPolicy::sp_dp());
  const auto result = moteur.run({.workflow = wf, .inputs = inputs});

  std::puts("command lines composed dynamically by the wrapper for step1:");
  for (const auto& argv : step1_command_lines) {
    std::printf("  $ %s\n", join(argv, " ").c_str());
  }
  std::printf("\nsink received %zu results, e.g. %s\n",
              result.sink_outputs.at("out").size(),
              result.sink_outputs.at("out").at(0).repr().c_str());

  std::puts("\n3. With job grouping, the enactor fuses both wrapped codes into");
  std::puts("   a single submission (one grouped 'job' runs echo twice):\n");
  enactor::ThreadedBackend backend2;
  enactor::Enactor grouped(backend2, registry, enactor::EnactmentPolicy::sp_dp_jg());
  const auto grouped_result = grouped.run({.workflow = wf, .inputs = inputs});
  std::printf("submissions: %zu (vs %zu ungrouped) for %zu logical invocations\n",
              grouped_result.submissions(), result.submissions(),
              grouped_result.invocations());
  return 0;
}
