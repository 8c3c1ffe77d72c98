// Pinned results: every run below must print exactly the Snapshot line
// committed for it in pinned_scenarios.txt:
//   - every shipped scenario at its own engine seed and at seeds 1-3;
//   - quickstart scaled to 20,000 transactions, run as a batch and again
//     streamed under a 64-transaction MPL cap;
//   - macro_partitioned scaled to 8,000 and flaky_mesh to 2,000.
// golden_test checks that a run repeats itself; this test checks that it
// still gives the committed result. A differing run is named with the
// fields that moved. The test writes the full current table next to its
// binary (UNICC_PINNED_SCENARIOS_CURRENT); to change results on purpose,
// copy that file over the committed one and say why.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "scenario/ini.h"
#include "scenario/scenario.h"

#if !defined(UNICC_PINNED_SCENARIOS) || \
    !defined(UNICC_PINNED_SCENARIOS_CURRENT)
#error "UNICC_PINNED_SCENARIOS(_CURRENT) must name the pinned result files"
#endif

namespace unicc {
namespace {

constexpr char kHeader[] =
    "# One line per pinned run: \"<scenario> [<section>.<key>=<value>...]: "
    "<snapshot>\".\n"
    "# Written by pinned_scenarios_test; see tests/core/"
    "pinned_scenarios_test.cc.\n";

// A shipped scenario with `[section] key = value` overrides applied.
struct PinnedRun {
  std::string file;  // name under scenarios/
  std::vector<std::array<std::string, 3>> set;

  // "quickstart.ini class main.txns=20000 run.max_inflight=64", the
  // spelling of unicc_sim's --set flags.
  std::string Label() const {
    std::string label = file;
    for (const auto& [section, key, value] : set) {
      label += " " + section + "." + key + "=" + value;
    }
    return label;
  }
};

std::vector<PinnedRun> PinnedRuns() {
  std::vector<PinnedRun> runs;
  for (const std::string& path : test::ShippedScenarios()) {
    const std::string file = std::filesystem::path(path).filename();
    runs.push_back({file, {}});
    for (const char* seed : {"1", "2", "3"}) {
      runs.push_back({file, {{"engine", "seed", seed}}});
    }
  }
  runs.push_back({"quickstart.ini", {{"class main", "txns", "20000"}}});
  runs.push_back({"quickstart.ini",
                  {{"class main", "txns", "20000"},
                   {"run", "max_inflight", "64"}}});
  runs.push_back({"macro_partitioned.ini", {{"class main", "txns", "8000"}}});
  runs.push_back({"flaky_mesh.ini", {{"class main", "txns", "2000"}}});
  return runs;
}

std::string RunSnapshot(const PinnedRun& run) {
  auto read = IniFile::ReadFile(std::string(UNICC_SCENARIOS_DIR) + "/" +
                                run.file);
  if (!read.ok()) return read.status().ToString();
  IniFile ini = *read;
  for (const auto& [section, key, value] : run.set) {
    ini.Set(section, key, value);
  }
  auto spec = ScenarioSpec::FromIni(ini);
  if (!spec.ok()) return spec.status().ToString();
  return test::Snapshot(test::RunScenario(*spec));
}

// Label -> snapshot, from the committed file.
std::map<std::string, std::string> ReadPins(const std::string& path) {
  std::map<std::string, std::string> pins;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t colon = line.find(": ");
    if (colon == std::string::npos) {
      ADD_FAILURE() << path << ": malformed line '" << line << "'";
      continue;
    }
    pins[line.substr(0, colon)] = line.substr(colon + 2);
  }
  return pins;
}

// The space-separated fields that differ, as "pinned -> current" pairs.
std::string ChangedFields(const std::string& pinned,
                          const std::string& current) {
  std::istringstream a(pinned);
  std::istringstream b(current);
  std::string out;
  std::string x;
  std::string y;
  while (a >> x && b >> y) {
    if (x != y) out += "\n    " + x + " -> " + y;
  }
  return out.empty() ? "\n    pinned:  " + pinned + "\n    current: " + current
                     : out;
}

TEST(PinnedScenariosTest, EveryRunGivesItsPinnedResult) {
  const std::map<std::string, std::string> pins =
      ReadPins(UNICC_PINNED_SCENARIOS);
  std::ofstream current(UNICC_PINNED_SCENARIOS_CURRENT);
  current << kHeader;
  std::set<std::string> ran;
  for (const PinnedRun& run : PinnedRuns()) {
    const std::string label = run.Label();
    const std::string snapshot = RunSnapshot(run);
    current << label << ": " << snapshot << "\n";
    ran.insert(label);
    const auto pin = pins.find(label);
    if (pin == pins.end()) {
      ADD_FAILURE() << label << ": no pinned result";
    } else if (pin->second != snapshot) {
      ADD_FAILURE() << label << ": result differs from its pin:"
                    << ChangedFields(pin->second, snapshot);
    }
  }
  for (const auto& [label, snapshot] : pins) {
    EXPECT_TRUE(ran.contains(label)) << label << ": pinned, but not run";
  }
  if (HasFailure()) {
    std::printf("The current results are in %s\n",
                UNICC_PINNED_SCENARIOS_CURRENT);
  }
}

}  // namespace
}  // namespace unicc
