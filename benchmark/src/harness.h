// The benchmark's workloads and the assembly that runs them. Each run
// drives every layer only through its public entry points, the way a user
// program does (ScenarioSpec -> EngineBuilder -> Engine -> checks), and
// times each call from outside.
#ifndef UNICC_BENCH_HARNESS_H_
#define UNICC_BENCH_HARNESS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "metrics/metrics.h"
#include "net/message.h"
#include "trace.h"

namespace unicc::bench {

// One INI key set before validation.
struct Override {
  const char* section;
  const char* key;
  const char* value;
};

// One workload: a scenario file of its own under benchmark/workloads/,
// run as `cells` independent simulations (seeds derived from the run's
// seed) per repeat.
struct WorkloadDef {
  const char* name;
  const char* ini;
  const char* why;
  std::uint32_t cells;
  // --smoke and the RunSession cross-check: ~1% of the work.
  std::uint32_t smoke_cells;
  std::vector<Override> smoke;
};

const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(const std::string& name);

// Statistics of the wrapped call boundaries of one traced run.
struct Probes {
  CallStat selector_choose;
  CallStat stl_intake;
  CallStat stream_next;
};

struct RunOptions {
  std::optional<std::uint64_t> seed;  // overrides [engine] seed
  bool smoke = false;
  // Stop after set-up (parse, generate, build, admit): the samples behind
  // setup_s.
  bool setup_only = false;
  Probes* probes = nullptr;    // non-null: wrap and time layer calls
  TraceLog* trace = nullptr;   // non-null: record phase spans
};

// One repeat of a workload: every field sums (or merges) over its cells.
struct RunResult {
  // Wall-clock phases in seconds. They tile each cell from the first
  // parse call to the end of the serializability check.
  double parse_s = 0;
  double generate_s = 0;
  double build_s = 0;
  double admit_s = 0;
  double run_s = 0;
  double verify_s = 0;
  double check_s = 0;
  double wall_s = 0;
  double setup_s() const { return parse_s + generate_s + build_s + admit_s; }

  // Outcomes. `offered` counts arrivals the workload generated (for open
  // workloads, those inside the admission horizon).
  std::uint64_t offered = 0;
  std::uint64_t committed = 0;
  std::uint64_t goodput = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t retried = 0;
  std::uint64_t victims = 0;
  std::uint64_t reject_restarts = 0;
  std::uint64_t backoff_rounds = 0;
  std::uint64_t restarts = 0;  // every extra attempt, all causes
  std::uint64_t chose[kNumProtocols] = {0, 0, 0};  // selector outcomes
  SimTime makespan = 0;
  DurationStat system_time;     // merged over cells
  std::uint64_t latency_samples = 0;  // samples its percentiles read

  // Exact work counts.
  std::uint64_t events = 0;
  std::uint64_t msgs_total = 0;
  std::uint64_t msgs_remote = 0;
  std::uint64_t msgs_by_kind[static_cast<std::size_t>(MessageKind::kNumKinds)] =
      {};
  std::uint64_t log_records = 0;
  // For the traced cost estimates: copies of the items the workload
  // touches, summed over cells, and the data sites they spread over.
  std::uint64_t touched_copies = 0;
  std::uint32_t data_sites = 0;

  // FNV digest of each cell's deterministic outcome counters.
  std::vector<std::uint64_t> cell_digests;
  // Self-checks that failed, one line each; empty on a correct run.
  std::vector<std::string> failures;
};

// Runs one repeat of `def` (all of its cells, one after another).
RunResult RunWorkload(const WorkloadDef& def, const RunOptions& options);

// Runs the first cell of `def` at smoke size twice, once through this
// harness's own assembly and once through runner::RunSession, and fails
// unless both give the same outcome digest.
Status CheckAgainstRunSession(const WorkloadDef& def,
                              std::optional<std::uint64_t> seed);

}  // namespace unicc::bench

#endif  // UNICC_BENCH_HARNESS_H_
