#include "services/service.hpp"

#include <string_view>

#include "data/dataref.hpp"

namespace moteur::services {

std::uint64_t Service::content_digest() const {
  return data::fnv1a("service:" + id_);
}

Result Service::synthesize_outputs(const Inputs& inputs) const {
  // Build a stable pseudo-GFN from the lineage of the inputs so repeated
  // simulation runs name results identically:
  // "gfn://<service>/<port>(<input id>,<input id>,...)", each built in one
  // string reserved to its length.
  constexpr std::string_view kScheme = "gfn://";
  std::size_t lineage_length = inputs.empty() ? 0 : inputs.size() - 1;  // the commas
  for (const auto& [port, token] : inputs) lineage_length += token.id().size();
  Result result;
  for (const auto& port : output_ports()) {
    OutputValue value;
    std::string& repr = value.repr;
    repr.reserve(kScheme.size() + id().size() + 1 + port.size() + 1 + lineage_length + 1);
    repr += kScheme;
    repr += id();
    repr += '/';
    repr += port;
    repr += '(';
    bool first = true;
    for (const auto& [in_port, token] : inputs) {
      if (!first) repr += ',';
      first = false;
      repr += token.id();
    }
    repr += ')';
    value.payload = value.repr;
    result.outputs.emplace(port, std::move(value));
  }
  return result;
}

}  // namespace moteur::services
