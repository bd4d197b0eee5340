#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "services/descriptor.hpp"
#include "services/functional_service.hpp"
#include "services/grouped_service.hpp"
#include "services/registry.hpp"
#include "services/wrapper_service.hpp"
#include "util/error.hpp"
#include "workflow/grouping.hpp"

namespace moteur::services {
namespace {

// ---------------------------------------------------------------------------
// Descriptor (Figure 8)
// ---------------------------------------------------------------------------

Descriptor crest_lines_descriptor() {
  Descriptor d;
  d.executable_name = "CrestLines.pl";
  d.executable_access = {AccessType::kUrl, "http://colors.unice.fr"};
  d.executable_value = "CrestLines.pl";
  d.inputs.push_back({"floating_image", "-im1", Access{AccessType::kGfn, ""}});
  d.inputs.push_back({"reference_image", "-im2", Access{AccessType::kGfn, ""}});
  d.inputs.push_back({"scale", "-s", std::nullopt});
  d.outputs.push_back({"crest_reference", "-c1", Access{AccessType::kGfn, ""}});
  d.outputs.push_back({"crest_floating", "-c2", Access{AccessType::kGfn, ""}});
  d.sandbox.push_back({"convert8bits", Access{AccessType::kUrl, "http://colors.unice.fr"},
                       "Convert8bits.pl"});
  d.sandbox.push_back({"copy", Access{AccessType::kUrl, "http://colors.unice.fr"}, "copy"});
  d.sandbox.push_back({"cmatch", Access{AccessType::kUrl, "http://colors.unice.fr"},
                       "cmatch"});
  return d;
}

TEST(Descriptor, XmlRoundTripMatchesFigure8) {
  const Descriptor d = crest_lines_descriptor();
  const Descriptor parsed = Descriptor::from_xml(d.to_xml());
  EXPECT_EQ(parsed.executable_name, "CrestLines.pl");
  EXPECT_EQ(parsed.executable_access.type, AccessType::kUrl);
  EXPECT_EQ(parsed.executable_access.path, "http://colors.unice.fr");
  ASSERT_EQ(parsed.inputs.size(), 3u);
  EXPECT_EQ(parsed.inputs[0].option, "-im1");
  EXPECT_TRUE(parsed.inputs[0].is_file());
  EXPECT_FALSE(parsed.inputs[2].is_file());  // scale is a plain parameter
  ASSERT_EQ(parsed.outputs.size(), 2u);
  EXPECT_EQ(parsed.outputs[1].option, "-c2");
  ASSERT_EQ(parsed.sandbox.size(), 3u);
  EXPECT_EQ(parsed.sandbox[0].value, "Convert8bits.pl");
}

TEST(Descriptor, ComposeCommandLineInDeclarationOrder) {
  const Descriptor d = crest_lines_descriptor();
  const auto argv = d.compose_command_line({{"floating_image", "flo.mhd"},
                                            {"reference_image", "ref.mhd"},
                                            {"scale", "1"},
                                            {"crest_reference", "out1"},
                                            {"crest_floating", "out2"}});
  const std::vector<std::string> expected = {"CrestLines.pl", "-im1", "flo.mhd",
                                             "-im2", "ref.mhd", "-s", "1",
                                             "-c1", "out1", "-c2", "out2"};
  EXPECT_EQ(argv, expected);
}

TEST(Descriptor, ComposeRejectsMissingValues) {
  const Descriptor d = crest_lines_descriptor();
  EXPECT_THROW(d.compose_command_line({{"scale", "1"}}), EnactmentError);
}

TEST(Descriptor, StagingListCoversExecutableAndSandbox) {
  const auto staging = crest_lines_descriptor().staging_list();
  ASSERT_EQ(staging.size(), 4u);
  EXPECT_EQ(staging[0], "http://colors.unice.fr/CrestLines.pl");
  EXPECT_EQ(staging[1], "http://colors.unice.fr/Convert8bits.pl");
}

TEST(Descriptor, AccessTypeParsing) {
  EXPECT_EQ(access_type_from_string("URL"), AccessType::kUrl);
  EXPECT_EQ(access_type_from_string("GFN"), AccessType::kGfn);
  EXPECT_EQ(access_type_from_string("local"), AccessType::kLocal);
  EXPECT_THROW(access_type_from_string("ftp"), ParseError);
}

// ---------------------------------------------------------------------------
// WrapperService
// ---------------------------------------------------------------------------

Inputs crest_inputs() {
  Inputs in;
  in.emplace("floating_image",
             data::Token::from_source("flo", 0, std::string("gfn://flo0"), "gfn://flo0"));
  in.emplace("reference_image",
             data::Token::from_source("ref", 0, std::string("gfn://ref0"), "gfn://ref0"));
  in.emplace("scale", data::Token::from_source("scale", 0, std::string("1"), "1"));
  return in;
}

TEST(WrapperService, PortsComeFromDescriptor) {
  WrapperService service("crestLines", crest_lines_descriptor(), {});
  EXPECT_EQ(service.input_ports(),
            (std::vector<std::string>{"floating_image", "reference_image", "scale"}));
  EXPECT_EQ(service.output_ports(),
            (std::vector<std::string>{"crest_reference", "crest_floating"}));
}

TEST(WrapperService, InvokeComposesCommandLineAndNamesOutputs) {
  std::vector<std::vector<std::string>> command_lines;
  WrapperService::Options options;
  options.executor = [&command_lines](const std::vector<std::string>& argv,
                                      std::string&) {
    command_lines.push_back(argv);
    return 0;
  };
  WrapperService service("crestLines", crest_lines_descriptor(), options);
  const Result result = service.invoke(crest_inputs());
  ASSERT_EQ(result.outputs.size(), 2u);
  EXPECT_FALSE(result.outputs.at("crest_reference").repr.empty());
  ASSERT_EQ(command_lines.size(), 1u);
  const auto& argv = command_lines[0];
  EXPECT_EQ(argv[0], "CrestLines.pl");
  EXPECT_EQ(argv[1], "-im1");
  EXPECT_EQ(argv[2], "gfn://flo0");
}

TEST(WrapperService, UnnamedOutputsCarryTheInputLineage) {
  // Without an output namer, an output argument names the service, the
  // port and the provenance keys of the inputs, which a derived input
  // renders on first use.
  Descriptor d;
  d.executable_name = "tool";
  d.inputs.push_back({"in", "-i", Access{AccessType::kGfn, ""}});
  d.outputs.push_back({"out", "-o", Access{AccessType::kGfn, ""}});
  WrapperService service("svc", d, {});
  const data::Token source = data::Token::from_source("src", 0, std::string("a"), "a");
  Inputs in;
  in.emplace("in", data::Token::derived("P", "o", {source}, {0}, std::string("b"), "gfn://b"));
  EXPECT_EQ(service.compose_command_line(in),
            (std::vector<std::string>{"tool", "-i", "gfn://b", "-o", "svc.out(P.o(src[0]))"}));
}

TEST(WrapperService, ExecutorRunsAndFailurePropagates) {
  WrapperService::Options options;
  int calls = 0;
  options.executor = [&calls](const std::vector<std::string>& argv, std::string& out) {
    ++calls;
    out = "ran " + argv[0];
    return 0;
  };
  WrapperService ok("crestLines", crest_lines_descriptor(), options);
  EXPECT_NO_THROW(ok.invoke(crest_inputs()));
  EXPECT_EQ(calls, 1);

  options.executor = [](const std::vector<std::string>&, std::string&) { return 7; };
  WrapperService bad("crestLines", crest_lines_descriptor(), options);
  EXPECT_THROW(bad.invoke(crest_inputs()), ExecutionError);
}

TEST(WrapperService, MissingInputFailsWithoutAnExecutor) {
  // A simulated invocation reads no input value, but it still refuses an
  // invocation that lacks one of the descriptor's inputs.
  WrapperService service("crestLines", crest_lines_descriptor(), {});
  EXPECT_NO_THROW(service.invoke(crest_inputs()));
  Inputs partial = crest_inputs();
  partial.erase("scale");
  try {
    service.invoke(partial);
    FAIL() << "an invocation without input 'scale' succeeded";
  } catch (const EnactmentError& e) {
    EXPECT_NE(std::string(e.what()).find("missing input 'scale'"), std::string::npos)
        << e.what();
  }
}

TEST(WrapperService, ContentDigestFollowsTheDescriptor) {
  // Memoized invocations are keyed by this digest: the same descriptor
  // gives the same digest, an edited one a different digest.
  const WrapperService service("crestLines", crest_lines_descriptor(), {});
  const WrapperService same("crestLines", crest_lines_descriptor(), {});
  EXPECT_EQ(service.content_digest(), same.content_digest());
  Descriptor edited_descriptor = crest_lines_descriptor();
  edited_descriptor.inputs[2].option = "-scale";
  const WrapperService edited("crestLines", edited_descriptor, {});
  EXPECT_NE(service.content_digest(), edited.content_digest());
}

TEST(WrapperService, JobProfileCountsOnlyFileTransfers) {
  WrapperService::Options options;
  options.compute_seconds = 90.0;
  options.megabytes_per_input_file = 7.8;
  options.megabytes_per_output_file = 2.0;
  WrapperService service("crestLines", crest_lines_descriptor(), options);
  const auto profile = service.job_profile(crest_inputs());
  EXPECT_DOUBLE_EQ(profile.compute_seconds, 90.0);
  EXPECT_DOUBLE_EQ(profile.input_megabytes, 2 * 7.8);  // scale is not a file
  EXPECT_DOUBLE_EQ(profile.output_megabytes, 2 * 2.0);
}

// ---------------------------------------------------------------------------
// FunctionalService
// ---------------------------------------------------------------------------

TEST(FunctionalServiceTest, InvokeAndProfile) {
  FunctionalService doubler(
      "double", {"in"}, {"out"},
      [](const Inputs& in) {
        Result r;
        const int v = in.at("in").as<int>();
        r.outputs["out"] = OutputValue{2 * v, std::to_string(2 * v)};
        return r;
      },
      JobProfile{30.0, 1.0, 2.0});
  Inputs in;
  in.emplace("in", data::Token::from_source("s", 0, 21, "21"));
  EXPECT_EQ(doubler.invoke(in).outputs.at("out").payload.has_value(), true);
  EXPECT_DOUBLE_EQ(doubler.job_profile(in).compute_seconds, 30.0);
}

TEST(FunctionalServiceTest, SimulatedServiceSynthesizesStableOutputs) {
  auto service = make_simulated_service("svc", {"a"}, {"x", "y"}, JobProfile{1.0});
  Inputs in;
  in.emplace("a", data::Token::from_source("s", 3, std::string("v"), "v"));
  const Result first = service->invoke(in);
  const Result second = service->synthesize_outputs(in);
  ASSERT_EQ(first.outputs.size(), 2u);
  EXPECT_EQ(first.outputs.at("x").repr, second.outputs.at("x").repr);
  EXPECT_NE(first.outputs.at("x").repr.find("s[3]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// GroupedService
// ---------------------------------------------------------------------------

std::shared_ptr<FunctionalService> adder(const std::string& id, int delta) {
  return std::make_shared<FunctionalService>(
      id, std::vector<std::string>{"in"}, std::vector<std::string>{"out"},
      [delta](const Inputs& in) {
        Result r;
        const int v = in.at("in").as<int>();
        r.outputs["out"] = OutputValue{v + delta, std::to_string(v + delta)};
        return r;
      },
      JobProfile{40.0, 4.0, 4.0});
}

TEST(GroupedServiceTest, PipesMembersSequentially) {
  GroupedService grouped(
      "A+B", {{"A", adder("A", 1)}, {"B", adder("B", 10)}},
      {workflow::InternalLink{"A", "out", "B", "in"}});

  EXPECT_EQ(grouped.input_ports(), (std::vector<std::string>{"A/in"}));
  EXPECT_EQ(grouped.output_ports(), (std::vector<std::string>{"A/out", "B/out"}));

  Inputs in;
  in.emplace("A/in", data::Token::from_source("s", 0, 5, "5"));
  const Result result = grouped.invoke(in);
  EXPECT_EQ(std::any_cast<int>(result.outputs.at("A/out").payload), 6);
  EXPECT_EQ(std::any_cast<int>(result.outputs.at("B/out").payload), 16);
}

TEST(GroupedServiceTest, JobProfileSumsComputeAndProratesTransfers) {
  GroupedService grouped(
      "A+B", {{"A", adder("A", 1)}, {"B", adder("B", 10)}},
      {workflow::InternalLink{"A", "out", "B", "in"}});
  Inputs in;
  in.emplace("A/in", data::Token::from_source("s", 0, 5, "5"));
  const auto profile = grouped.job_profile(in);
  EXPECT_DOUBLE_EQ(profile.compute_seconds, 80.0);   // one job, both codes
  EXPECT_DOUBLE_EQ(profile.input_megabytes, 4.0);    // B's input stays local
  EXPECT_DOUBLE_EQ(profile.output_megabytes, 8.0);   // both outputs registered
}

TEST(GroupedServiceTest, RejectsDegenerateConstruction) {
  EXPECT_THROW(GroupedService("x", {{"A", adder("A", 1)}}, {}), InternalError);
  EXPECT_THROW(GroupedService("x", {{"A", adder("A", 1)}, {"B", nullptr}}, {}),
               InternalError);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, LookupAndDefaults) {
  ServiceRegistry registry;
  registry.add(adder("A", 1));
  EXPECT_TRUE(registry.has("A"));
  EXPECT_FALSE(registry.has("B"));
  EXPECT_THROW(registry.get("B"), EnactmentError);

  workflow::Processor proc;
  proc.name = "A";  // service_id empty: falls back to the processor name
  EXPECT_EQ(registry.resolve(proc)->id(), "A");

  proc.service_id = "A";
  proc.name = "differently-named";
  EXPECT_EQ(registry.resolve(proc)->id(), "A");
}

TEST(Registry, ResolvesGroupedProcessorsWithCache) {
  ServiceRegistry registry;
  registry.add(adder("A", 1));
  registry.add(adder("B", 10));

  workflow::Processor grouped;
  grouped.name = "A+B";
  grouped.group_members = {"A", "B"};
  grouped.member_service_ids = {"A", "B"};
  grouped.internal_links = {workflow::InternalLink{"A", "out", "B", "in"}};

  const auto first = registry.resolve(grouped);
  const auto second = registry.resolve(grouped);
  EXPECT_EQ(first.get(), second.get());  // cached
  EXPECT_EQ(first->id(), "A+B");
  EXPECT_EQ(first->input_ports(), (std::vector<std::string>{"A/in"}));
}

}  // namespace
}  // namespace moteur::services
