// Every shipped scenario (examples/*.scn) runs through ScenarioRunner:
// it must parse, run to completion, pass its own `expect` assertions
// and close its books — every packet a router received was sent on over
// a link, delivered off the domain, or counted under a drop reason.
//
// The same test then pins the scenario's results byte for byte against
// the golden corpus in tests/golden/examples/<stem>/:
//   report.txt           — Report::to_string(), as scenario_sim prints it
//   <metrics file>       — the `metrics` export, where the scenario has one
//   <timeline file>      — the `timeline` CSV, where the scenario has one
//   <trace file>.fnv1a64 — a 64-bit FNV-1a hash of the `trace` JSON (the
//                          trace itself runs to about a megabyte)
// A change that moves results on purpose rewrites the corpus with
// tools/regen_golden.sh, which runs this binary with EMPLS_REGEN_GOLDEN=1,
// and the corpus diff shows in review.
//
// ctest runs this binary from the examples directory, so the suite
// picks up new example files without being edited.  Output files the
// scenarios name (trace, metrics, timeline) are redirected into the
// test's temporary directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <variant>
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

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Point a scenario-named output file into the test's scratch space,
/// keeping its file name.
void redirect(std::string& path, const std::string& stem) {
  if (!path.empty()) {
    const fs::path dir = fs::path(::testing::TempDir()) / stem;
    fs::create_directories(dir);
    path = (dir / fs::path(path).filename()).string();
  }
}

std::string fnv1a64_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx\n",
                static_cast<unsigned long long>(h));
  return buf;
}

/// The golden items of one example run, keyed by corpus file name.
std::map<std::string, std::string> golden_items(
    const net::Scenario& scenario, const ScenarioRunner::Report& report) {
  std::map<std::string, std::string> items;
  items["report.txt"] = report.to_string();
  for (const std::string* path :
       {&scenario.metrics_path, &scenario.timeline_path}) {
    if (!path->empty()) {
      items[fs::path(*path).filename().string()] = read_file(*path);
    }
  }
  if (const std::string& trace = scenario.trace_path; !trace.empty()) {
    items[fs::path(trace).filename().string() + ".fnv1a64"] =
        fnv1a64_hex(read_file(trace));
  }
  return items;
}

/// Compare one example's golden items with tests/golden/examples/<stem>/,
/// or rewrite that directory when EMPLS_REGEN_GOLDEN is set.
void check_golden(const std::string& stem,
                  const std::map<std::string, std::string>& items) {
  const fs::path dir = fs::path(EMPLS_GOLDEN_DIR) / stem;

  if (std::getenv("EMPLS_REGEN_GOLDEN") != nullptr) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    for (const auto& [name, bytes] : items) {
      std::ofstream(dir / name, std::ios::binary) << bytes;
    }
    return;
  }

  std::vector<std::string> stored;
  if (fs::is_directory(dir)) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      stored.push_back(entry.path().filename().string());
    }
  }
  std::sort(stored.begin(), stored.end());
  std::vector<std::string> produced;
  for (const auto& item : items) {
    produced.push_back(item.first);
  }
  EXPECT_EQ(stored, produced)
      << dir << " does not hold this run's golden items; "
      << "rerun tools/regen_golden.sh if the change is intended";
  for (const auto& [name, bytes] : items) {
    EXPECT_EQ(read_file(dir / name), bytes)
        << (dir / name) << " differs from this run's output; "
        << "rerun tools/regen_golden.sh if the change is intended";
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

  check_golden(stem, golden_items(scenario, report));
}

INSTANTIATE_TEST_SUITE_P(Scenarios, Example,
                         ::testing::ValuesIn(example_files()),
                         [](const auto& info) {
                           return fs::path(info.param).stem().string();
                         });

}  // namespace
}  // namespace empls::core
