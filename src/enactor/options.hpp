#pragma once

#include <functional>
#include <string>
#include <vector>

namespace moteur::enactor {

struct RunManifest;

/// The <run> child element a run option is an attribute of.
enum class Element { kPolicy, kGrid, kService };

const char* to_string(Element element);

/// One run knob, declared once: its run-manifest attribute, its moteur_cli
/// flag, its strict util/flags parser and its help text. The table of these
/// drives RunManifest's XML form, the run flags and usage text of
/// moteur_cli, and the manifest table in docs/formats.md. A knob's default
/// is whatever a default-constructed RunManifest holds.
struct RunOption {
  /// kText: structured text its parser checks, e.g. outage windows.
  enum class Type { kCount, kReal, kSwitch, kName, kText };

  Element element = Element::kPolicy;
  std::string attribute;  // on the `element` element of a manifest
  std::string flag;       // moteur_cli flag, without the leading "--"
  Type type = Type::kCount;
  std::string domain;     // accepted values, e.g. "integer >= 1"; kText: the syntax
  std::string help;
  bool flag_sets = true;     // kSwitch: what the bare flag sets
  bool required = false;     // a manifest's `element` must carry it
  std::string default_text;  // get() of a default-constructed RunManifest

  /// Parse `text` strictly and store it; the ParseError names `label` and
  /// `text`.
  std::function<void(RunManifest&, const std::string& text, const std::string& label)> set;
  /// The value as text that `set` reads back exactly (reals print in their
  /// shortest round-trip form).
  std::function<std::string(const RunManifest&)> get;
  /// Whether a manifest records the value even at its default; unset = never.
  std::function<bool(const RunManifest&)> written_at_default;
  /// kName: the accepted names; empty for `config`, which
  /// EnactmentPolicy::parse checks.
  std::vector<std::string> choices;
};

/// Every run knob, in manifest attribute order.
const std::vector<RunOption>& run_options();

/// The option declaring `attribute` on `element`, or nullptr.
const RunOption* find_run_option(Element element, const std::string& attribute);

}  // namespace moteur::enactor
