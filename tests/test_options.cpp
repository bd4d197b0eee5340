// The run-option table: every knob round-trips through a run manifest
// exactly, malformed values and unknown attributes are refused with errors
// naming the attribute and the value, each row owns its own field, and the
// manifest table in docs/formats.md is the table's rendering.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "enactor/manifest.hpp"
#include "enactor/options.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workflow/patterns.hpp"

namespace moteur::enactor {
namespace {

using Type = RunOption::Type;

RunManifest small_manifest() {
  RunManifest manifest;
  manifest.workflow = workflow::make_chain(2);
  for (int j = 0; j < 3; ++j) manifest.inputs.add_item("src", "d" + std::to_string(j));
  return manifest;
}

bool accepts(const RunOption& option, const std::string& text) {
  RunManifest scratch;
  try {
    option.set(scratch, text, option.attribute);
    return true;
  } catch (const ParseError&) {
    return false;
  }
}

/// A valid value for `option`, drawn from `rng`. Reals come from values
/// that fixed-decimal printing used to mangle.
std::string random_value(const RunOption& option, Rng& rng) {
  switch (option.type) {
    case Type::kCount:
      return std::to_string(rng.uniform_int(1, 1'000'000'000'000));
    case Type::kSwitch:
      return rng.bernoulli(0.5) ? "true" : "false";
    case Type::kName: {
      // `config` has no closed list: EnactmentPolicy::parse takes any order.
      const std::vector<std::string> names =
          option.choices.empty()
              ? std::vector<std::string>{"NOP", "JG", "DP+SP", "SP + DP + JG"}
              : option.choices;
      return names[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 1))];
    }
    case Type::kReal: {
      std::vector<std::string> reals = {"4e-7",  "1e-300", "0.1234567891", "0.5",
                                        "2.5",   "600",    "1e12",         "0",
                                        "1",     "3.141592653589793"};
      rng.shuffle(reals);
      for (const std::string& text : reals) {
        if (accepts(option, text)) return text;
      }
      break;
    }
    case Type::kText:  // the one text knob: outage windows
      return "se0:" + std::to_string(rng.uniform_int(0, 100000)) + ":" +
             std::to_string(rng.uniform_int(1, 100000));
  }
  ADD_FAILURE() << "no valid value for " << option.attribute;
  return {};
}

TEST(RunOptions, AttributesAndFlagsAreUnique) {
  std::set<std::string> attributes, flags;
  for (const RunOption& option : run_options()) {
    EXPECT_TRUE(attributes.insert(std::string(to_string(option.element)) + "/" +
                                  option.attribute).second)
        << option.attribute;
    EXPECT_TRUE(flags.insert(option.flag).second) << option.flag;
    EXPECT_EQ(find_run_option(option.element, option.attribute), &option);
  }
}

TEST(RunOptions, RandomManifestsRoundTripExactly) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    RunManifest original = small_manifest();
    // In random order, so that breaker="false" may follow its parameters.
    std::vector<const RunOption*> options;
    for (const RunOption& option : run_options()) options.push_back(&option);
    rng.shuffle(options);
    for (const RunOption* option : options) {
      if (rng.bernoulli(0.5)) continue;  // leave it at its default
      option->set(original, random_value(*option, rng), option->attribute);
    }
    const RunManifest parsed = RunManifest::from_xml(original.to_xml());
    for (const RunOption& option : run_options()) {
      EXPECT_EQ(option.get(parsed), option.get(original))
          << "seed " << seed << ", attribute " << option.attribute;
    }
    EXPECT_EQ(parsed.workflow.name(), original.workflow.name());
    EXPECT_EQ(parsed.inputs.item_count("src"), 3u);
  }
}

TEST(RunOptions, SmallAndLongRealsSurviveTheManifest) {
  RunManifest manifest = small_manifest();
  manifest.policy.retry.max_attempts = 3;
  manifest.policy.retry.timeout_multiplier = 4e-7;
  manifest.policy.retry.backoff_initial_seconds = 1e-300;
  manifest.policy.retry.backoff_factor = 0.1234567891;
  manifest.orchestrator_bandwidth_mbps = 1e-7;
  manifest.policy.lineage_recovery = false;
  const RunManifest back = RunManifest::from_xml(manifest.to_xml());
  EXPECT_EQ(back.policy.retry.timeout_multiplier, 4e-7);
  EXPECT_EQ(back.policy.retry.backoff_initial_seconds, 1e-300);
  EXPECT_EQ(back.policy.retry.backoff_factor, 0.1234567891);
  EXPECT_EQ(back.orchestrator_bandwidth_mbps, 1e-7);
  EXPECT_FALSE(back.policy.lineage_recovery);
}

/// `manifest`'s XML with `attribute="value"` set on `element`.
std::string with_attribute(const RunManifest& manifest, Element element,
                           const std::string& attribute, const std::string& value) {
  xml::Document doc = xml::parse(manifest.to_xml());
  xml::Node* node = nullptr;
  for (const auto& child : doc.root().children()) {
    if (child->name() == to_string(element)) node = child.get();
  }
  if (node == nullptr) node = &doc.root().add_child(to_string(element));
  node->set_attribute(attribute, value);
  return doc.to_string();
}

std::string parse_error_of(const std::string& xml) {
  try {
    RunManifest::from_xml(xml);
  } catch (const ParseError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected a ParseError";
  return {};
}

TEST(RunOptions, MalformedValuesNameTheAttributeAndTheValue) {
  const RunManifest base = small_manifest();
  for (const RunOption& option : run_options()) {
    std::vector<std::string> bad;
    switch (option.type) {
      case Type::kCount: bad = {"-1", "1.5", "abc"}; break;
      case Type::kReal: bad = {"abc", "nan", "-inf", "-2"}; break;
      case Type::kSwitch: bad = {"maybe"}; break;
      case Type::kName: bad = {"no-such-name"}; break;
      case Type::kText: bad = {"se0", "se0:1", ":1:2"}; break;
    }
    for (const std::string& value : bad) {
      const std::string what =
          parse_error_of(with_attribute(base, option.element, option.attribute, value));
      EXPECT_NE(what.find(option.attribute), std::string::npos) << what;
      EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
    }
  }
  // The two historical failures: a wrapped negative cap, a bare "stod".
  EXPECT_NE(parse_error_of(with_attribute(base, Element::kPolicy, "cap", "-1")).find("cap"),
            std::string::npos);
}

TEST(RunOptions, UnknownAttributesAreRejected) {
  const RunManifest base = small_manifest();
  for (const auto& [element, attribute] :
       std::vector<std::pair<Element, std::string>>{{Element::kPolicy, "cahce"},
                                                    {Element::kPolicy, "dataAware"},
                                                    {Element::kGrid, "presett"},
                                                    {Element::kService, "shard"}}) {
    const std::string what = parse_error_of(with_attribute(base, element, attribute, "1"));
    EXPECT_NE(what.find("'" + attribute + "'"), std::string::npos) << what;
    EXPECT_NE(what.find(to_string(element)), std::string::npos) << what;
  }
}

TEST(RunOptions, EachRowSetsItsOwnField) {
  for (const RunOption& option : run_options()) {
    std::string value;
    for (const char* candidate : {"7", "0.25", "2", "true", "false", "NOP", "se0:1:2"}) {
      if (accepts(option, candidate) && candidate != option.default_text) value = candidate;
    }
    for (const std::string& name : option.choices) {
      if (name != option.default_text) value = name;
    }
    ASSERT_FALSE(value.empty()) << option.attribute;
    RunManifest manifest;
    option.set(manifest, value, option.attribute);
    EXPECT_NE(option.get(manifest), option.default_text) << option.attribute;
    for (const RunOption& other : run_options()) {
      if (&other == &option) continue;
      // Breaker parameters switch the breaker on, by design.
      if (other.attribute == "breaker" && option.attribute.rfind("breaker", 0) == 0) continue;
      EXPECT_EQ(other.get(manifest), other.default_text)
          << option.attribute << " also changed " << other.attribute;
    }
  }
}

TEST(RunOptions, BreakerParametersSwitchTheBreakerOn) {
  const RunManifest parsed = RunManifest::from_xml(
      with_attribute(small_manifest(), Element::kPolicy, "breakerWindow", "6"));
  EXPECT_TRUE(parsed.policy.breaker.enabled);
  EXPECT_EQ(parsed.policy.breaker.window, 6u);
}

TEST(RunOptions, DisabledBreakerReplaysDisabled) {
  RunManifest manifest = small_manifest();
  manifest.policy.breaker.enabled = false;
  manifest.policy.breaker.window = 6;
  const RunManifest parsed = RunManifest::from_xml(manifest.to_xml());
  EXPECT_FALSE(parsed.policy.breaker.enabled);
  EXPECT_EQ(parsed.policy.breaker.window, 6u);
}

TEST(RunOptions, PolicyConfigIsRequiredAndParsedInAnyOrder) {
  std::string without_config = small_manifest().to_xml();
  const std::string config = "config=\"SP+DP\"";
  ASSERT_NE(without_config.find(config), std::string::npos) << without_config;
  without_config.replace(without_config.find(config), config.size(), "cache=\"true\"");
  const std::string what = parse_error_of(without_config);
  EXPECT_NE(what.find("config"), std::string::npos) << what;

  for (const char* spelling : {"DP+SP", "SP + DP", " JG+DP+SP "}) {
    const RunManifest parsed = RunManifest::from_xml(
        with_attribute(small_manifest(), Element::kPolicy, "config", spelling));
    EXPECT_TRUE(parsed.policy.data_parallelism) << spelling;
    EXPECT_TRUE(parsed.policy.service_parallelism) << spelling;
  }
}

TEST(RunOptions, GridKnobsReachTheGridConfig) {
  RunManifest manifest = small_manifest();
  // Unset, the fault knobs keep the preset's values.
  const grid::GridConfig preset = manifest.make_grid_config();
  EXPECT_EQ(preset.failure_probability, 0.04);
  EXPECT_EQ(preset.max_attempts, 5);

  for (const auto& [attribute, value] : std::vector<std::pair<std::string, std::string>>{
           {"failureProbability", "0"},
           {"stuckProbability", "0.5"},
           {"attempts", "1"},
           {"replicaLoss", "0.25"},
           {"replicaCorruption", "0.125"},
           {"seOutages", "se0:10:20,se0:40:5"},
           {"seCapacity", "300"},
           {"eviction", "pin-sources"}}) {
    find_run_option(Element::kGrid, attribute)->set(manifest, value, attribute);
  }
  const grid::GridConfig config = manifest.make_grid_config();
  EXPECT_EQ(config.failure_probability, 0.0);
  EXPECT_EQ(config.stuck_job_probability, 0.5);
  EXPECT_EQ(config.max_attempts, 1);
  EXPECT_EQ(config.replica_loss_probability, 0.25);
  EXPECT_EQ(config.replica_corruption_probability, 0.125);
  ASSERT_EQ(config.default_se_outages.size(), 2u);
  EXPECT_EQ(config.default_se_outages[1].start_seconds, 40.0);
  EXPECT_EQ(config.default_se_outages[1].duration_seconds, 5.0);
  EXPECT_EQ(config.default_se_capacity_mb, 300.0);
  EXPECT_EQ(config.replica_eviction_policy, "pin-sources");

  // se0 is the implicit default SE; no preset declares another.
  manifest.se_outages = "se0:1:2,se-north:3:4";
  try {
    manifest.make_grid_config();
    ADD_FAILURE() << "an undeclared SE was accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("'se-north'"), std::string::npos) << e.what();
  }
}

TEST(RunOptions, ReplicaCatalogFollowsTheDataPlaneKnobs) {
  const RunManifest manifest = small_manifest();
  const grid::GridConfig plain = manifest.make_grid_config();
  EXPECT_FALSE(needs_replica_catalog(plain, manifest.policy));

  EnactmentPolicy cached = manifest.policy;
  cached.cache = true;
  EXPECT_TRUE(needs_replica_catalog(plain, cached));

  EnactmentPolicy gravity = manifest.policy;
  gravity.matchmaking = "data-gravity";
  EXPECT_TRUE(needs_replica_catalog(plain, gravity));

  grid::GridConfig grid_gravity = plain;
  grid_gravity.matchmaking_policy = "locality-first";
  EXPECT_TRUE(needs_replica_catalog(grid_gravity, manifest.policy));

  RunManifest replicated = manifest;
  replicated.replication = "push-to-consumer";
  EXPECT_TRUE(needs_replica_catalog(replicated.make_grid_config(), manifest.policy));

  grid::GridConfig lossy = plain;
  lossy.replica_loss_probability = 0.1;
  EXPECT_TRUE(needs_replica_catalog(lossy, manifest.policy));
}

/// The option table as the Markdown table docs/formats.md embeds.
std::string run_options_markdown() {
  std::string out =
      "| Element | Attribute | CLI flag | Values | Default | Meaning |\n"
      "|---|---|---|---|---|---|\n";
  for (const RunOption& o : run_options()) {
    std::string flag = "`--" + o.flag + "`";
    if (o.type == Type::kSwitch) flag += o.flag_sets ? " (sets true)" : " (sets false)";
    const std::string fallback = o.default_text.empty() ? "unset" : "`" + o.default_text + "`";
    out += "| `<" + std::string(to_string(o.element)) + ">` | `" + o.attribute + "` | " +
           flag + " | " + o.domain + " | " + fallback + " | " + o.help + " |\n";
  }
  return out;
}

TEST(RunOptions, DocsTableMatchesTheOptionTable) {
  const std::string path = std::string(MOTEUR_DOCS_DIR) + "/formats.md";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string docs = buffer.str();
  const std::string begin = "<!-- run-options:begin -->\n";
  const std::string end = "<!-- run-options:end -->";
  const auto from = docs.find(begin);
  const auto to = docs.find(end);
  ASSERT_NE(from, std::string::npos) << path << " lacks " << begin;
  ASSERT_NE(to, std::string::npos) << path << " lacks " << end;
  EXPECT_EQ(docs.substr(from + begin.size(), to - from - begin.size()),
            run_options_markdown())
      << "docs/formats.md is stale; put this table between the run-options markers:\n"
      << run_options_markdown();
}

}  // namespace
}  // namespace moteur::enactor
