// Runs a scenario through the runner facade and prints every
// deterministic field of the result, for the pinned-result suite; lists
// the shipped scenarios for it and the golden suite.
#ifndef UNICC_TESTS_CORE_SNAPSHOT_H_
#define UNICC_TESTS_CORE_SNAPSHOT_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "runner/runner.h"
#include "scenario/scenario.h"
#include "workload/stream.h"

#ifndef UNICC_SCENARIOS_DIR
#error "UNICC_SCENARIOS_DIR must point at the shipped scenarios/ directory"
#endif

namespace unicc::test {

// Runs `spec` through the runner facade: the scenario's own workload, or
// `stream` with its forced-protocol set when given (the replay path). A
// run that does not end OK (cancelled by the watchdog, or breaking an
// accounting identity) fails the test, naming `label` and the status.
inline runner::RunStats RunScenario(
    const std::string& label, const ScenarioSpec& spec,
    std::unique_ptr<ArrivalStream> stream = nullptr,
    std::shared_ptr<const std::unordered_set<TxnId>> forced = nullptr) {
  runner::RunRequest request;
  request.spec = &spec;
  request.arrival_stream = std::move(stream);
  request.forced = std::move(forced);
  auto session = runner::RunSession::Create(std::move(request));
  if (!session.ok()) {
    ADD_FAILURE() << label << ": " << session.status().ToString();
    return runner::RunStats();
  }
  const runner::RunReport report = (*session)->Run();
  if (!report.status.ok()) {
    ADD_FAILURE() << label << ": run status " << report.status.ToString();
  }
  return report.stats;
}

// Serializes every deterministic field of a run. Doubles are printed with
// %.17g: bit-identical runs print identical bytes, and any numeric drift
// is visible in the diff.
inline std::string Snapshot(const runner::RunStats& s) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "admitted=%llu committed=%llu makespan=%llu messages=%llu "
      "log_records=%llu replicas=%d victims=%llu rejects=%llu "
      "backoffs=%llu shed=%llu expired=%llu retried=%llu goodput=%llu "
      "serializable=%d mean_s=%.17g p95_s=%.17g "
      "msgs_per_txn=%.17g cc_msgs_per_txn=%.17g throughput=%.17g",
      static_cast<unsigned long long>(s.admitted),
      static_cast<unsigned long long>(s.committed),
      static_cast<unsigned long long>(s.makespan),
      static_cast<unsigned long long>(s.total_messages),
      static_cast<unsigned long long>(s.log_records),
      s.replicas_consistent ? 1 : 0,
      static_cast<unsigned long long>(s.deadlock_victims),
      static_cast<unsigned long long>(s.reject_restarts),
      static_cast<unsigned long long>(s.backoff_rounds),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.expired),
      static_cast<unsigned long long>(s.retried),
      static_cast<unsigned long long>(s.goodput),
      s.serializable ? 1 : 0, s.mean_s_ms, s.p95_s_ms, s.msgs_per_txn,
      s.cc_msgs_per_txn, s.throughput);
  std::string out(buf);
  for (int p = 0; p < kNumProtocols; ++p) {
    std::snprintf(buf, sizeof(buf), " proto%d=%llu/%.17g", p,
                  static_cast<unsigned long long>(s.committed_by_proto[p]),
                  s.mean_s_ms_by_proto[p]);
    out += buf;
  }
  return out;
}

// Every scenarios/*.ini, sorted by path.
inline std::vector<std::string> ShippedScenarios() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(UNICC_SCENARIOS_DIR)) {
    if (entry.path().extension() == ".ini") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace unicc::test

#endif  // UNICC_TESTS_CORE_SNAPSHOT_H_
