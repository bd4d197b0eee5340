#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace moteur::services {

/// How a file referenced by a descriptor is reached (paper §3.6, item 1):
/// a plain URL, a Grid File Name resolved by the data management system, or
/// a local file name.
enum class AccessType { kUrl, kGfn, kLocal };

const char* to_string(AccessType t);
AccessType access_type_from_string(const std::string& s);

/// A file location: access method plus an optional server path prefix.
struct Access {
  AccessType type = AccessType::kLocal;
  std::string path;  // e.g. "http://colors.unice.fr"; empty for GFN/local

  /// Concrete location of `value` under this access method.
  std::string resolve(std::string value) const;
};

/// An input of the wrapped executable. Inputs with an access method are
/// files whose actual names arrive at invocation time (dynamic declaration —
/// the defining trait of the service approach, §2.1); inputs without one are
/// plain command-line parameters.
struct InputDescriptor {
  std::string name;
  std::string option;  // command-line option, e.g. "-im1"
  std::optional<Access> access;

  bool is_file() const { return access.has_value(); }
};

/// An output file: where to register it and under which option the
/// executable is told the destination.
struct OutputDescriptor {
  std::string name;
  std::string option;
  Access access;
};

/// A sandboxed file: fetched alongside the executable (dynamic libraries,
/// helper scripts) although it never appears on the command line.
struct SandboxDescriptor {
  std::string name;
  Access access;
  std::string value;  // file name on the server
};

/// The generic executable descriptor of the paper's wrapper service
/// (Figure 8): everything needed to dynamically compose a command line and
/// stage data for any legacy code, making it service-aware "with a minimal
/// effort".
class Descriptor {
 public:
  std::string executable_name;   // e.g. "CrestLines.pl"
  Access executable_access;
  std::string executable_value;  // file name on the server

  std::vector<InputDescriptor> inputs;
  std::vector<OutputDescriptor> outputs;
  std::vector<SandboxDescriptor> sandbox;

  /// Input port names in declaration order (both files and parameters).
  std::vector<std::string> input_names() const;
  std::vector<std::string> output_names() const;

  /// Compose the concrete command line for one invocation: values maps each
  /// input name to its runtime value (file name or parameter), and each
  /// output name to its registration destination. Missing inputs or outputs
  /// throw EnactmentError. Order: executable, then inputs and outputs in
  /// declaration order as "option value" pairs.
  std::vector<std::string> compose_command_line(
      const std::map<std::string, std::string>& values) const;

  /// Every file to stage before execution: the executable plus sandbox.
  std::vector<std::string> staging_list() const;

  /// Serialize to the Figure-8 XML format.
  std::string to_xml() const;

  /// Parse the Figure-8 XML format; throws ParseError on malformed input.
  static Descriptor from_xml(const std::string& text);
};

}  // namespace moteur::services
