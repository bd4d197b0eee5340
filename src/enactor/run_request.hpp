#pragma once

#include <any>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>

#include "data/dataset.hpp"
#include "enactor/policy.hpp"
#include "obs/event.hpp"
#include "workflow/graph.hpp"

namespace moteur::enactor {

/// Maps a source item string to the payload carried by its token (e.g.
/// loading the image behind a GFN). Defaults to the string itself.
using PayloadResolver = std::function<std::any(
    const std::string& source, std::size_t index, const std::string& item)>;

/// A subscriber on the run's structured event stream (see obs/event.hpp).
/// Subscribers fire synchronously, in registration order, on the thread
/// driving the backend.
using EventSubscriber = std::function<void(const obs::RunEvent&)>;

/// Everything one enactment needs, as a value: the single argument of
/// Enactor::run and RunService::submit. Replaces the historical mutator
/// triplet (set_policy + set_payload_resolver + run(workflow, inputs)) so a
/// run's configuration travels as one self-contained description — the shape
/// multi-tenant enactment needs, where many runs with different policies
/// share one enactor backend.
struct RunRequest {
  /// Run id, stamped on every emitted obs::RunEvent (run_id) and on the
  /// result. Empty picks the workflow name (Enactor) or a generated
  /// "run-<n>" id (RunService, which requires ids to be unique among live
  /// runs).
  std::string name;

  workflow::Workflow workflow{"empty"};
  data::InputDataSet inputs;

  /// Per-run policy; unset inherits the owning Enactor/RunService default.
  std::optional<EnactmentPolicy> policy;

  /// Per-run payload resolver; unset inherits the owner's resolver.
  PayloadResolver resolver;

  /// Fair-share weight for RunService admission: submission slots are
  /// granted weighted-round-robin over active runs, `weight` grants per
  /// visit. Ignored by the single-run Enactor path.
  std::size_t weight = 1;
};

}  // namespace moteur::enactor
