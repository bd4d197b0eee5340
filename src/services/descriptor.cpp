#include "services/descriptor.hpp"

#include <memory>

#include "util/error.hpp"
#include "xml/xml.hpp"

namespace moteur::services {

const char* to_string(AccessType t) {
  switch (t) {
    case AccessType::kUrl: return "URL";
    case AccessType::kGfn: return "GFN";
    case AccessType::kLocal: return "local";
  }
  return "?";
}

AccessType access_type_from_string(const std::string& s) {
  if (s == "URL" || s == "url") return AccessType::kUrl;
  if (s == "GFN" || s == "gfn") return AccessType::kGfn;
  if (s == "local" || s == "LOCAL") return AccessType::kLocal;
  throw ParseError("unknown access type '" + s + "'");
}

std::string Access::resolve(std::string value) const {
  if (path.empty()) return value;
  if (!path.empty() && path.back() == '/') return path + value;
  return path + "/" + value;
}

std::vector<std::string> Descriptor::input_names() const {
  std::vector<std::string> names;
  names.reserve(inputs.size());
  for (const auto& in : inputs) names.push_back(in.name);
  return names;
}

std::vector<std::string> Descriptor::output_names() const {
  std::vector<std::string> names;
  names.reserve(outputs.size());
  for (const auto& out : outputs) names.push_back(out.name);
  return names;
}

std::vector<std::string> Descriptor::compose_command_line(
    const std::map<std::string, std::string>& values) const {
  std::vector<std::string> argv;
  argv.push_back(executable_name);
  for (const auto& in : inputs) {
    const auto it = values.find(in.name);
    MOTEUR_REQUIRE(it != values.end(), EnactmentError,
                   "no value supplied for input '" + in.name + "' of '" +
                       executable_name + "'");
    if (!in.option.empty()) argv.push_back(in.option);
    argv.push_back(it->second);
  }
  for (const auto& out : outputs) {
    const auto it = values.find(out.name);
    MOTEUR_REQUIRE(it != values.end(), EnactmentError,
                   "no destination supplied for output '" + out.name + "' of '" +
                       executable_name + "'");
    if (!out.option.empty()) argv.push_back(out.option);
    argv.push_back(it->second);
  }
  return argv;
}

std::vector<std::string> Descriptor::staging_list() const {
  std::vector<std::string> files;
  files.push_back(executable_access.resolve(executable_value.empty() ? executable_name
                                                                     : executable_value));
  for (const auto& s : sandbox) {
    files.push_back(s.access.resolve(s.value.empty() ? s.name : s.value));
  }
  return files;
}

namespace {

void write_access(xml::Node& parent, const Access& access) {
  auto& node = parent.add_child("access");
  node.set_attribute("type", to_string(access.type));
  if (!access.path.empty()) {
    node.add_child("path").set_attribute("value", access.path);
  }
}

Access read_access(const xml::Node& node) {
  Access access;
  access.type = access_type_from_string(node.required_attribute("type"));
  if (const xml::Node* path = node.child("path")) {
    access.path = path->required_attribute("value");
  }
  return access;
}

}  // namespace

std::string Descriptor::to_xml() const {
  auto root = std::make_unique<xml::Node>("description");
  auto& exe = root->add_child("executable");
  exe.set_attribute("name", executable_name);
  write_access(exe, executable_access);
  if (!executable_value.empty()) {
    exe.add_child("value").set_attribute("value", executable_value);
  }
  for (const auto& in : inputs) {
    auto& node = exe.add_child("input");
    node.set_attribute("name", in.name);
    if (!in.option.empty()) node.set_attribute("option", in.option);
    if (in.access) write_access(node, *in.access);
  }
  for (const auto& out : outputs) {
    auto& node = exe.add_child("output");
    node.set_attribute("name", out.name);
    if (!out.option.empty()) node.set_attribute("option", out.option);
    write_access(node, out.access);
  }
  for (const auto& s : sandbox) {
    auto& node = exe.add_child("sandbox");
    node.set_attribute("name", s.name);
    write_access(node, s.access);
    if (!s.value.empty()) node.add_child("value").set_attribute("value", s.value);
  }
  return xml::Document(std::move(root)).to_string();
}

Descriptor Descriptor::from_xml(const std::string& text) {
  const xml::Document doc = xml::parse(text);
  MOTEUR_REQUIRE(doc.root().name() == "description", ParseError,
                 "expected <description> root, got <" + doc.root().name() + ">");
  const xml::Node& exe = doc.root().required_child("executable");

  Descriptor d;
  d.executable_name = exe.required_attribute("name");
  d.executable_access = read_access(exe.required_child("access"));
  if (const xml::Node* value = exe.child("value")) {
    d.executable_value = value->required_attribute("value");
  }
  for (const xml::Node* node : exe.children_named("input")) {
    InputDescriptor in;
    in.name = node->required_attribute("name");
    in.option = node->attribute("option").value_or("");
    if (const xml::Node* access = node->child("access")) {
      in.access = read_access(*access);
    }
    d.inputs.push_back(std::move(in));
  }
  for (const xml::Node* node : exe.children_named("output")) {
    OutputDescriptor out;
    out.name = node->required_attribute("name");
    out.option = node->attribute("option").value_or("");
    out.access = read_access(node->required_child("access"));
    d.outputs.push_back(std::move(out));
  }
  for (const xml::Node* node : exe.children_named("sandbox")) {
    SandboxDescriptor s;
    s.name = node->required_attribute("name");
    s.access = read_access(node->required_child("access"));
    if (const xml::Node* value = node->child("value")) {
      s.value = value->required_attribute("value");
    }
    d.sandbox.push_back(std::move(s));
  }
  return d;
}

}  // namespace moteur::services
