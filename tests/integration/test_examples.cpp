// Every shipped scenario (examples/*.scn) runs through ScenarioRunner:
// it must parse, run to completion, pass its own `expect` assertions
// and close its books — every packet a router received was sent on over
// a link, delivered off the domain, or counted under a drop reason.
//
// ctest runs this binary from the examples directory, so the suite
// picks up new example files without being edited.  Output files the
// scenarios name (trace, metrics, timeline) are redirected into the
// test's temporary directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario_runner.hpp"
#include "net/scenario.hpp"

namespace empls::core {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> example_files() {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(fs::current_path())) {
    if (entry.is_regular_file() && entry.path().extension() == ".scn") {
      out.push_back(entry.path().filename().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string read_file(const std::string& name) {
  std::ifstream in(name);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Point a scenario-named output file into the test's scratch space.
void redirect(std::string& path, const std::string& stem) {
  if (!path.empty()) {
    path = (fs::path(::testing::TempDir()) /
            (stem + "_" + fs::path(path).filename().string()))
               .string();
  }
}

TEST(Examples, DirectoryHoldsScenarios) {
  EXPECT_FALSE(example_files().empty())
      << "no .scn files in " << fs::current_path();
}

class Example : public ::testing::TestWithParam<std::string> {};

TEST_P(Example, ParsesRunsMeetsItsSlosAndConserves) {
  const std::string& file = GetParam();
  auto parsed = net::Scenario::parse(read_file(file));
  if (const auto* err = std::get_if<net::ScenarioError>(&parsed)) {
    FAIL() << file << ":" << err->line << ": " << err->message;
  }
  auto scenario = std::get<net::Scenario>(std::move(parsed));
  const std::string stem = fs::path(file).stem().string();
  redirect(scenario.trace_path, stem);
  redirect(scenario.metrics_path, stem);
  redirect(scenario.timeline_path, stem);

  const auto result = ScenarioRunner::run(scenario);
  if (const auto* err = std::get_if<net::ScenarioError>(&result)) {
    FAIL() << file << ": " << err->message;
  }
  const auto& report = std::get<ScenarioRunner::Report>(result);

  for (const auto& e : report.expects) {
    EXPECT_TRUE(e.passed) << e.text << ": " << e.detail;
  }

  std::uint64_t received = 0;
  std::uint64_t delivered = 0;
  for (const auto& r : report.routers) {
    received += r.received;
    delivered += r.delivered;
  }
  std::uint64_t transmitted = 0;
  for (const auto& l : report.links) {
    transmitted += l.tx_packets;
  }
  const std::uint64_t dropped =
      std::accumulate(report.drops.begin(), report.drops.end(),
                      std::uint64_t{0});
  EXPECT_GT(received, 0u);
  EXPECT_EQ(received, transmitted + delivered + dropped)
      << "rx=" << received << " tx=" << transmitted
      << " delivered=" << delivered << " dropped=" << dropped;
  if (report.loadgen) {
    EXPECT_TRUE(report.loadgen->conserved);
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, Example,
                         ::testing::ValuesIn(example_files()),
                         [](const auto& info) {
                           return fs::path(info.param).stem().string();
                         });

}  // namespace
}  // namespace empls::core
