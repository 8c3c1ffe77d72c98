// Pinned results: every run below must print exactly the Snapshot line
// committed for it in pinned_scenarios.txt:
//   - every shipped scenario at its own engine seed and at seeds 1-3;
//   - quickstart scaled to 20,000 transactions, run as a batch and again
//     streamed under a 64-transaction MPL cap;
//   - macro_partitioned scaled to 8,000 and flaky_mesh to 2,000;
//   - quickstart with its class's PA back-off interval at 262,144, a
//     class key no shipped scenario sets.
// Each closed scenario's workload, recorded in UCTC v2 and replayed at its
// own seed, must give the live run's line too. Every run and replay is
// its own test case, so ctest runs them in parallel. A differing run is
// named with the fields that moved, and a run that does not end OK with
// its status. Each run also records its line in the current table next to
// the binary (UNICC_PINNED_SCENARIOS_CURRENT); to change results on
// purpose, copy that file over the committed one and say why.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <array>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "scenario/ini.h"
#include "scenario/scenario.h"
#include "workload/stream.h"
#include "workload/trace_io.h"

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
  runs.push_back(
      {"quickstart.ini", {{"class main", "backoff_interval", "262144"}}});
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
  return test::Snapshot(test::RunScenario(run.Label(), *spec));
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

// Fails the test unless `snapshot` is the line pinned under `label`;
// `what` names the run in the message.
void ExpectPinned(const std::map<std::string, std::string>& pins,
                  const std::string& label, const std::string& what,
                  const std::string& snapshot) {
  const auto pin = pins.find(label);
  if (pin == pins.end()) {
    ADD_FAILURE() << what << ": no pinned result";
  } else if (pin->second != snapshot) {
    ADD_FAILURE() << what << ": result differs from its pin:"
                  << ChangedFields(pin->second, snapshot);
  }
}

// gtest prints a run by its label.
void PrintTo(const PinnedRun& run, std::ostream* os) { *os << run.Label(); }

// A test-name suffix: `text` with every character gtest rejects as '_'.
std::string CaseName(const std::string& text) {
  std::string name = text;
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

// Records `label: snapshot` in the current table. ctest runs each case in
// its own process, so the table is rewritten under an exclusive lock,
// keeping the lines other cases recorded, in PinnedRuns() order.
void RecordCurrent(const std::string& label, const std::string& snapshot) {
  const std::string path = UNICC_PINNED_SCENARIOS_CURRENT;
  const int lock = ::open((path + ".lock").c_str(), O_RDWR | O_CREAT, 0644);
  ASSERT_GE(lock, 0) << path << ".lock: " << std::strerror(errno);
  if (::flock(lock, LOCK_EX) == 0) {
    std::map<std::string, std::string> lines = ReadPins(path);
    lines[label] = snapshot;
    std::ofstream current(path);
    current << kHeader;
    for (const PinnedRun& run : PinnedRuns()) {
      const auto line = lines.find(run.Label());
      if (line != lines.end()) {
        current << line->first << ": " << line->second << "\n";
      }
    }
  } else {
    ADD_FAILURE() << path << ".lock: " << std::strerror(errno);
  }
  ::close(lock);  // releases the lock, after `current` is flushed
}

class PinnedRunTest : public ::testing::TestWithParam<PinnedRun> {};

TEST_P(PinnedRunTest, GivesItsPinnedResult) {
  const std::string label = GetParam().Label();
  const std::string snapshot = RunSnapshot(GetParam());
  RecordCurrent(label, snapshot);
  ExpectPinned(ReadPins(UNICC_PINNED_SCENARIOS), label, label, snapshot);
  if (HasFailure()) {
    std::printf("The current results are in %s\n",
                UNICC_PINNED_SCENARIOS_CURRENT);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Runs, PinnedRunTest, ::testing::ValuesIn(PinnedRuns()),
    [](const auto& info) { return CaseName(info.param.Label()); });

TEST(PinnedTableTest, EveryPinHasARun) {
  std::set<std::string> runs;
  for (const PinnedRun& run : PinnedRuns()) runs.insert(run.Label());
  for (const auto& [label, snapshot] : ReadPins(UNICC_PINNED_SCENARIOS)) {
    EXPECT_TRUE(runs.contains(label)) << label << ": pinned, but not run";
  }
}

// The shipped scenarios that are closed systems, plus any that fail to
// load (their case reports why).
std::vector<std::string> ClosedScenarios() {
  std::vector<std::string> closed;
  for (const std::string& path : test::ShippedScenarios()) {
    auto spec = ScenarioSpec::LoadFile(path);
    if (!spec.ok() || !spec->IsOpenSystem()) closed.push_back(path);
  }
  return closed;
}

// A closed scenario's workload, recorded and replayed as unicc_sim's
// --record-trace and --replay-trace do, runs exactly as the live run.
// Open systems are left out: traces carry no deadlines or priorities.
class ClosedReplayTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ClosedReplayTest, GivesTheLiveRunsPinnedResult) {
  const std::string file = std::filesystem::path(GetParam()).filename();
  auto spec = ScenarioSpec::LoadFile(GetParam());
  ASSERT_TRUE(spec.ok()) << file << ": " << spec.status().ToString();
  const ScenarioSpec::Workload wl = spec->BuildWorkload();
  const std::string path = ::testing::TempDir() + "/pinned_replay_" +
                           std::to_string(::getpid()) + ".uctc";
  ASSERT_TRUE(WriteTraceV2File(path, wl.arrivals).ok()) << file;
  auto replayed = ReadTraceV2File(path);
  std::remove(path.c_str());
  ASSERT_TRUE(replayed.ok()) << file << ": " << replayed.status().ToString();
  const std::string what = file + " replayed from UCTC v2";
  const runner::RunStats stats = test::RunScenario(
      what, *spec, MakeVectorStream(std::move(*replayed)), wl.forced);
  ExpectPinned(ReadPins(UNICC_PINNED_SCENARIOS), file, what,
               test::Snapshot(stats));
}

INSTANTIATE_TEST_SUITE_P(
    Closed, ClosedReplayTest, ::testing::ValuesIn(ClosedScenarios()),
    [](const auto& info) {
      return CaseName(std::filesystem::path(info.param).filename());
    });

}  // namespace
}  // namespace unicc
