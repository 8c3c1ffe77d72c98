// sweep_runner: multi-threaded parameter-sweep harness for the paper's
// experiments. Each of E1-E7 and E9 is one grid of cells (lambda,
// transaction size, back-off interval, protocol policy, ...); E8 runs no
// engine, so its checks live in tests/stl/stl_test.cc. Cells are sharded
// across a worker pool and each worker runs one full Engine simulation
// per cell. Every experiment is printed as one table and written to a
// machine-readable BENCH_e*.json file. The run exits 1 when any cell that
// ran fails its self-check: a watchdog cancellation, a broken accounting
// identity (runner::CheckAccounting), a non-serializable history or
// inconsistent replicas. It exits 2 on a bad flag, and when a scenario
// sweep cell fails validation.
//
// Besides the built-in grids, any declarative scenario file can be swept
// over any of its keys: --scenario=FILE turns the scenario into the base
// cell and each --sweep=SECTION.KEY=V1,V2,... adds a grid axis (the cross
// product of all axes is run). Scenario cells get the same self-check.
//
//   sweep_runner                         # run every experiment
//   sweep_runner --exp=e1,e5             # just E1 and E5
//   sweep_runner --threads=8 --txns=200  # faster, coarser sweep
//   sweep_runner --out-dir=results/      # where BENCH_e*.json go
//   sweep_runner --scenario=scenarios/bursty.ini
//       --sweep='class burst.rate=60,120,240' --sweep=engine.seed=1,2,3
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/table.h"
#include "flags.h"
#include "runner/runner.h"
#include "scenario/ini.h"
#include "scenario/scenario.h"

namespace {

using namespace unicc;
using flags::ParseFlag;
using runner::RunReport;

// ---------------------------------------------------------------------------
// Grid definition
// ---------------------------------------------------------------------------

// The base of every built-in grid cell: 4 user + 4 data sites, one copy
// per item, 5 ms links with 2 ms mean jitter, back-off interval 64, seed
// 1234, a fixed 2PL policy (a kMix policy keeps the default even weights)
// and one class (`grid`) of 4-item transactions, half reads, 5 ms
// compute, at 20 arrivals/s over 60 items. Its popularity is uniform,
// drawn as a Zipf CDF walk at theta = 0. --txns sets the class's count.
ScenarioSpec BaseCell() {
  ScenarioSpec spec;
  spec.engine.num_items = 60;
  spec.engine.network.base_delay = 5 * kMillisecond;
  spec.engine.network.jitter_mean = 2 * kMillisecond;
  spec.engine.default_backoff_interval = 64;
  spec.engine.seed = 1234;
  ScenarioClass& grid = spec.classes.emplace_back();
  grid.name = "grid";
  grid.rate = 20;
  grid.access = ScenarioClass::AccessKind::kZipf;
  return spec;
}

// One named parameter of a cell. The JSON writer emits a number's value
// bare and a label's value as a string.
struct Param {
  std::string key;
  std::string value;
  bool is_number = false;
};

Param NumParam(std::string key, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return {std::move(key), buf, true};
}

Param StrParam(std::string key, std::string v) {
  return {std::move(key), std::move(v), false};
}

// One point of an experiment grid: its configuration plus the parameter
// values that identify the point in the report.
struct Cell {
  std::vector<Param> params;
  ScenarioSpec spec;
};

struct Experiment {
  std::string id;           // "e1", ... -> BENCH_e1.json
  std::string description;  // one line: table title and JSON header
  // The table's metric columns, by their TableColumns header.
  std::vector<std::string> columns;
  std::vector<Cell> cells;
};

// Every column an experiment table can print, by header.
std::map<std::string, std::string> TableColumns(const runner::RunStats& s) {
  const std::uint64_t* picks = s.committed_by_proto;
  const int to = static_cast<int>(Protocol::kTimestampOrdering);
  return {
      {"S[ms]", Table::Num(s.mean_s_ms)},
      {"S T/O[ms]", Table::Num(s.mean_s_ms_by_proto[to])},
      {"p95[ms]", Table::Num(s.p95_s_ms)},
      {"committed", Table::Int(s.committed)},
      {"commits 2PL/T-O/PA", Table::Int(picks[0]) + "/" +
                                 Table::Int(picks[1]) + "/" +
                                 Table::Int(picks[2])},
      {"deadlock victims", Table::Int(s.deadlock_victims)},
      {"restarts", Table::Int(s.reject_restarts)},
      {"backoff rounds", Table::Int(s.backoff_rounds)},
      {"cc-msg/txn", Table::Num(s.cc_msgs_per_txn)},
      {"serializable", s.serializable ? "yes" : "NO"},
      {"replica-consistent", s.replicas_consistent ? "yes" : "NO"},
  };
}

// Appends one cell per protocol for a pure-protocol baseline sweep (T/O on
// Basic T/O, without a detector since it cannot deadlock; 2PL and PA on
// the unified backend under a fixed policy).
void AddPureProtocolCells(Experiment* exp, const ScenarioSpec& cell,
                          const std::vector<Param>& params) {
  for (Protocol p :
       {Protocol::kTwoPhaseLocking, Protocol::kTimestampOrdering,
        Protocol::kPrecedenceAgreement}) {
    ScenarioSpec pure = cell;
    if (p == Protocol::kTimestampOrdering) {
      pure.engine.backend = BackendKind::kBasicTo;
      pure.engine.detector = DetectorKind::kNone;
    }
    pure.policy.fixed = p;
    std::vector<Param> cell_params = params;
    cell_params.push_back(
        StrParam("protocol", std::string(ProtocolToken(p))));
    exp->cells.push_back({std::move(cell_params), std::move(pure)});
  }
}

// E1: mean system time / throughput vs arrival rate lambda, per protocol.
Experiment MakeE1() {
  Experiment exp;
  exp.id = "e1";
  exp.description =
      "system time and throughput vs arrival rate lambda "
      "(pure backends, 60 items, st=4, 50% reads)";
  exp.columns = {"S[ms]", "deadlock victims", "restarts", "backoff rounds"};
  ScenarioSpec cell = BaseCell();
  ScenarioClass& grid = cell.classes[0];
  for (double lambda : {10.0, 25.0, 50.0, 100.0, 150.0, 200.0, 250.0}) {
    grid.rate = lambda;
    AddPureProtocolCells(&exp, cell, {NumParam("lambda", lambda)});
  }
  return exp;
}

// E2: transaction size sweep, per protocol.
Experiment MakeE2() {
  Experiment exp;
  exp.id = "e2";
  exp.description =
      "system time vs transaction size st "
      "(pure backends, lambda=40, 60 items, 50% reads)";
  exp.columns = {"S[ms]", "committed", "deadlock victims", "restarts",
                 "backoff rounds"};
  ScenarioSpec cell = BaseCell();
  ScenarioClass& grid = cell.classes[0];
  grid.rate = 40;
  for (std::uint32_t st : {2u, 4u, 6u, 8u, 12u, 16u}) {
    grid.size_min = st;
    grid.size_max = st;
    AddPureProtocolCells(&exp, cell, {NumParam("txn_size", st)});
  }
  return exp;
}

// E3: anomaly accounting per protocol under identical load. The table
// should be diagonal: deadlocks only for 2PL, restarts only for T/O,
// back-offs only for PA.
Experiment MakeE3() {
  Experiment exp;
  exp.id = "e3";
  exp.description =
      "anomalies per protocol "
      "(pure backends, lambda=150, 40 items, st=3-5, 30% reads)";
  exp.columns = {"committed", "deadlock victims", "restarts",
                 "backoff rounds", "S[ms]", "serializable"};
  ScenarioSpec cell = BaseCell();
  ScenarioClass& grid = cell.classes[0];
  grid.rate = 150;
  cell.engine.num_items = 40;
  grid.size_min = 3;
  grid.size_max = 5;
  grid.read_fraction = 0.3;
  AddPureProtocolCells(&exp, cell, {});
  return exp;
}

// E4: concurrency-control messages per committed transaction vs load.
Experiment MakeE4() {
  Experiment exp;
  exp.id = "e4";
  exp.description =
      "concurrency-control messages per committed txn vs lambda "
      "(pure backends, 120 items, st=4, 30% reads)";
  exp.columns = {"cc-msg/txn", "backoff rounds"};
  ScenarioSpec cell = BaseCell();
  ScenarioClass& grid = cell.classes[0];
  cell.engine.num_items = 120;
  grid.read_fraction = 0.3;
  for (double lambda : {10.0, 30.0, 60.0, 100.0, 150.0, 200.0}) {
    grid.rate = lambda;
    AddPureProtocolCells(&exp, cell, {NumParam("lambda", lambda)});
  }
  return exp;
}

// E5: dynamic min-STL selection vs the static protocol choices.
Experiment MakeE5() {
  Experiment exp;
  exp.id = "e5";
  exp.description =
      "dynamic min-STL selection vs static protocols "
      "(unified backend, 60 items, st=4, 50% reads)";
  exp.columns = {"S[ms]", "commits 2PL/T-O/PA"};
  using Kind = ScenarioPolicy::Kind;
  struct PolicyPoint {
    const char* label;
    Kind kind;
    Protocol fixed;
  };
  const PolicyPoint policies[] = {
      {"static-2pl", Kind::kFixed, Protocol::kTwoPhaseLocking},
      {"static-to", Kind::kFixed, Protocol::kTimestampOrdering},
      {"static-pa", Kind::kFixed, Protocol::kPrecedenceAgreement},
      {"min-stl", Kind::kMinStl, Protocol::kTwoPhaseLocking},
      {"min-avg-time", Kind::kMinAvgTime, Protocol::kTwoPhaseLocking},
  };
  ScenarioSpec cell = BaseCell();
  ScenarioClass& grid = cell.classes[0];
  for (double lambda : {10.0, 30.0, 75.0, 150.0, 250.0}) {
    for (const PolicyPoint& p : policies) {
      grid.rate = lambda;
      cell.policy.kind = p.kind;
      cell.policy.fixed = p.fixed;
      exp.cells.push_back(
          {{NumParam("lambda", lambda), StrParam("policy", p.label)}, cell});
    }
  }
  return exp;
}

// E6: the semi-lock protocol vs locking every T/O request, on an all-T/O
// population and an even three-way mix.
Experiment MakeE6() {
  Experiment exp;
  exp.id = "e6";
  exp.description =
      "semi-lock ablation "
      "(unified backend, 30 items, st=4, 60% reads, compute 10 ms)";
  exp.columns = {"S[ms]", "S T/O[ms]", "restarts"};
  ScenarioSpec cell = BaseCell();
  ScenarioClass& grid = cell.classes[0];
  cell.engine.num_items = 30;
  grid.read_fraction = 0.6;
  grid.compute_time = 10 * kMillisecond;
  cell.policy.fixed = Protocol::kTimestampOrdering;
  for (double lambda : {40.0, 80.0, 120.0}) {
    for (bool all_to : {true, false}) {
      for (bool semi : {true, false}) {
        grid.rate = lambda;
        cell.policy.kind =
            all_to ? ScenarioPolicy::Kind::kFixed : ScenarioPolicy::Kind::kMix;
        cell.engine.semi_locks = semi;
        exp.cells.push_back(
            {{NumParam("lambda", lambda),
              StrParam("population", all_to ? "all-to" : "mix"),
              StrParam("variant", semi ? "semi-locks" : "lock-everything")},
             cell});
      }
    }
  }
  return exp;
}

// E7: serializability and replica consistency of the unified system over
// protocol mixes, loads and seeds.
Experiment MakeE7() {
  Experiment exp;
  exp.id = "e7";
  exp.description =
      "serializability sweep (unified backend, even 3-way mix, st=4)";
  exp.columns = {"committed", "serializable", "replica-consistent"};
  struct Case {
    const char* name;
    double lambda;
    ItemId items;
    double reads;
    bool semi;
  };
  const Case cases[] = {
      {"low load, semi-locks", 10, 150, 0.5, true},
      {"high load, semi-locks", 60, 60, 0.3, true},
      {"hot items, semi-locks", 40, 24, 0.3, true},
      {"high load, lock-everything", 60, 60, 0.3, false},
      {"write-only, hot items", 35, 20, 0.0, true},
  };
  ScenarioSpec cell = BaseCell();
  ScenarioClass& grid = cell.classes[0];
  cell.policy.kind = ScenarioPolicy::Kind::kMix;
  for (const Case& c : cases) {
    for (std::uint64_t k = 1; k <= 8; ++k) {
      grid.rate = c.lambda;
      cell.engine.num_items = c.items;
      grid.read_fraction = c.reads;
      cell.engine.semi_locks = c.semi;
      cell.engine.seed = k * 7919;
      exp.cells.push_back(
          {{StrParam("case", c.name),
            NumParam("seed", static_cast<double>(cell.engine.seed))},
           cell});
    }
  }
  return exp;
}

// E9: PA back-off interval INT sweep, from intervals that land just past
// the conflict to ones that park the transaction far in the future.
Experiment MakeE9() {
  Experiment exp;
  exp.id = "e9";
  exp.description =
      "PA back-off interval INT sweep "
      "(pure PA backend, lambda=80, 30 items, st=4, 30% reads)";
  exp.columns = {"S[ms]", "p95[ms]", "backoff rounds"};
  ScenarioSpec cell = BaseCell();
  ScenarioClass& grid = cell.classes[0];
  grid.rate = 80;
  cell.engine.num_items = 30;
  grid.read_fraction = 0.3;
  cell.policy.fixed = Protocol::kPrecedenceAgreement;
  cell.engine.seed = 4242;
  for (Timestamp interval : {1u, 4u, 16u, 64u, 256u, 1024u, 4096u, 16384u,
                             65536u, 262144u}) {
    cell.engine.default_backoff_interval = interval;
    exp.cells.push_back(
        {{NumParam("backoff_interval", static_cast<double>(interval)),
          StrParam("protocol", "pa")},
         cell});
  }
  return exp;
}

// Runs one request through the runner facade. A request the runner
// rejects comes back as a report carrying that status.
RunReport RunSpec(runner::RunRequest request) {
  auto session = runner::RunSession::Create(std::move(request));
  if (!session.ok()) {
    RunReport failed;
    failed.status = session.status();
    return failed;
  }
  return (*session)->Run();
}

// Runs one built-in grid cell of `txns` transactions. Its class draws
// from an Rng of its own, seeded from the engine seed.
RunReport RunOneReport(ScenarioSpec cell, std::uint64_t txns) {
  ScenarioClass& grid = cell.classes[0];
  grid.txns = txns;
  runner::RunRequest request;
  request.spec = &cell;
  request.arrival_stream =
      OpenClass(grid, cell.engine.num_items, cell.engine.num_user_sites,
                Rng(cell.engine.seed ^ 0x5bd1e995));
  return RunSpec(std::move(request));
}

// Why a cell that ran fails its self-check, or "" when it passes: the
// report's status (watchdog cancellation, broken accounting identity),
// then serializability, then replica consistency.
std::string CellFailure(const RunReport& r) {
  if (!r.status.ok()) return r.status.ToString();
  if (!r.stats.serializable) return "not serializable";
  if (!r.stats.replicas_consistent) return "replicas inconsistent";
  return "";
}

// Names on stderr each cell that ran and failed its self-check; a
// non-empty `errors[i]` marks a cell that failed validation and never ran.
// Returns true when every cell that ran passed.
bool CheckCells(const std::string& id,
                const std::vector<std::vector<Param>>& cell_params,
                const std::vector<RunReport>& results,
                const std::vector<std::string>& errors = {}) {
  bool ok = true;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string failure = CellFailure(results[i]);
    if (failure.empty() || (!errors.empty() && !errors[i].empty())) continue;
    std::string where;
    for (const Param& p : cell_params[i]) where += " " + p.key + "=" + p.value;
    std::fprintf(stderr, "sweep_runner: %s cell%s: %s\n", id.c_str(),
                 where.c_str(), failure.c_str());
    ok = false;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

// Runs `count` cells across `num_threads` workers, one full engine
// simulation per cell via `run_cell`. Cells are claimed from a shared
// atomic cursor, so long cells do not stall short ones behind a static
// partition.
std::vector<RunReport> RunIndexed(
    std::size_t count, unsigned num_threads,
    const std::function<RunReport(std::size_t)>& run_cell) {
  std::vector<RunReport> results(count);
  std::atomic<std::size_t> next{0};

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      results[i] = run_cell(i);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

void WriteJsonString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (u < 0x20) {  // raw control chars are illegal in JSON
      std::fprintf(f, "\\u%04x", u);
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

// Writes one experiment's results as BENCH_<id>.json. Schema per cell:
// the grid parameters plus throughput [tx/s], abort_rate (aborts per
// admitted attempt), mean/p95 response time [ms], raw counters (the
// per-protocol arrays in 2PL, T/O, PA order), the self-checks and the
// run's wall-clock phases [s] (setup, simulate, verify). A cell that ran
// but failed its self-check also carries a "failure" string (CellFailure).
// A cell whose scenario failed to load or validate is written as an
// "error" record (params + message, no stats); `errors` may be empty (no
// failures possible, e.g. the built-in grids) or one entry per cell with
// the empty string marking success.
bool WriteReport(const std::string& id, const std::string& description,
                 const std::vector<std::vector<Param>>& cell_params,
                 const std::vector<RunReport>& results,
                 const std::string& out_dir, unsigned num_threads,
                 std::uint64_t txns,
                 const std::vector<std::string>& errors = {}) {
  const std::string path = out_dir + "/BENCH_" + id + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "sweep_runner: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"experiment\": ");
  WriteJsonString(f, id);
  std::fprintf(f, ",\n  \"description\": ");
  WriteJsonString(f, description);
  std::fprintf(f,
               ",\n  \"generated_by\": \"sweep_runner\","
               "\n  \"threads\": %u,\n  \"txns_per_cell\": %llu,"
               "\n  \"cells\": [\n",
               num_threads, static_cast<unsigned long long>(txns));
  for (std::size_t i = 0; i < cell_params.size(); ++i) {
    const std::vector<Param>& params = cell_params[i];
    const runner::RunStats& s = results[i].stats;
    const double aborts = static_cast<double>(s.deadlock_victims) +
                          static_cast<double>(s.reject_restarts);
    const double attempts = static_cast<double>(s.committed) + aborts;
    std::fprintf(f, "    {\n      \"params\": {");
    for (std::size_t p = 0; p < params.size(); ++p) {
      if (p != 0) std::fprintf(f, ", ");
      WriteJsonString(f, params[p].key);
      std::fprintf(f, ": ");
      if (params[p].is_number) {
        std::fputs(params[p].value.c_str(), f);
      } else {
        WriteJsonString(f, params[p].value);
      }
    }
    std::fprintf(f, "},\n");
    if (!errors.empty() && !errors[i].empty()) {
      std::fprintf(f, "      \"error\": ");
      WriteJsonString(f, errors[i]);
      std::fprintf(f, "\n    }%s\n", i + 1 == cell_params.size() ? "" : ",");
      continue;
    }
    if (const std::string failure = CellFailure(results[i]);
        !failure.empty()) {
      std::fprintf(f, "      \"failure\": ");
      WriteJsonString(f, failure);
      std::fprintf(f, ",\n");
    }
    std::fprintf(f, "      \"throughput_tx_per_sec\": %.4f,\n", s.throughput);
    std::fprintf(f, "      \"abort_rate\": %.6f,\n",
                 attempts == 0 ? 0.0 : aborts / attempts);
    std::fprintf(f, "      \"mean_response_ms\": %.4f,\n", s.mean_s_ms);
    std::fprintf(f, "      \"p95_response_ms\": %.4f,\n", s.p95_s_ms);
    std::fprintf(f,
                 "      \"mean_response_ms_by_protocol\": "
                 "[%.4f, %.4f, %.4f],\n",
                 s.mean_s_ms_by_proto[0], s.mean_s_ms_by_proto[1],
                 s.mean_s_ms_by_proto[2]);
    std::fprintf(f, "      \"committed\": %llu,\n",
                 static_cast<unsigned long long>(s.committed));
    std::fprintf(f, "      \"committed_by_protocol\": [%llu, %llu, %llu],\n",
                 static_cast<unsigned long long>(s.committed_by_proto[0]),
                 static_cast<unsigned long long>(s.committed_by_proto[1]),
                 static_cast<unsigned long long>(s.committed_by_proto[2]));
    std::fprintf(f, "      \"deadlock_victims\": %llu,\n",
                 static_cast<unsigned long long>(s.deadlock_victims));
    std::fprintf(f, "      \"reject_restarts\": %llu,\n",
                 static_cast<unsigned long long>(s.reject_restarts));
    std::fprintf(f, "      \"backoff_rounds\": %llu,\n",
                 static_cast<unsigned long long>(s.backoff_rounds));
    std::fprintf(f, "      \"msgs_per_txn\": %.4f,\n", s.msgs_per_txn);
    std::fprintf(f, "      \"cc_msgs_per_txn\": %.4f,\n", s.cc_msgs_per_txn);
    // Overload-control outcomes (all zero unless the cell's scenario
    // engages the bounded admission gate / deadlines); goodput is the
    // commits-within-deadline count the nightly sweep plots.
    std::fprintf(f, "      \"shed\": %llu,\n",
                 static_cast<unsigned long long>(s.shed));
    std::fprintf(f, "      \"expired\": %llu,\n",
                 static_cast<unsigned long long>(s.expired));
    std::fprintf(f, "      \"retried\": %llu,\n",
                 static_cast<unsigned long long>(s.retried));
    std::fprintf(f, "      \"goodput\": %llu,\n",
                 static_cast<unsigned long long>(s.goodput));
    // Peak RSS is a process-wide high-water mark: a cell reflects the
    // largest run up to and including it (cells run in job order).
    std::fprintf(f, "      \"peak_rss_kb\": %llu,\n",
                 static_cast<unsigned long long>(s.peak_rss_kb));
    // Wall-clock seconds, machine-dependent like peak_rss_kb.
    std::fprintf(f,
                 "      \"setup_s\": %.6f,\n      \"simulate_s\": %.6f,\n"
                 "      \"verify_s\": %.6f,\n",
                 results[i].setup_s, results[i].simulate_s,
                 results[i].verify_s);
    std::fprintf(f, "      \"serializable\": %s,\n",
                 s.serializable ? "true" : "false");
    std::fprintf(f, "      \"replicas_consistent\": %s\n",
                 s.replicas_consistent ? "true" : "false");
    std::fprintf(f, "    }%s\n", i + 1 == cell_params.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("sweep_runner: wrote %s (%zu cells)\n", path.c_str(),
              cell_params.size());
  return true;
}

// ---------------------------------------------------------------------------
// Scenario grids: sweep any key of a declarative scenario file
// ---------------------------------------------------------------------------

// One --sweep axis: a scenario key plus its candidate values, written
// SECTION.KEY=V1,V2,... (split as ParseIniOverride splits --set, so the
// key's section may contain spaces, e.g. --sweep='class burst.rate=60,120').
struct SweepAxis {
  std::string section;
  std::string key;
  std::vector<std::string> values;
};

bool ParseSweepAxis(const std::string& spec, SweepAxis* axis) {
  IniOverride o;
  if (!ParseIniOverride(spec, &o)) return false;
  axis->section = std::move(o.section);
  axis->key = std::move(o.key);
  axis->values.clear();
  std::size_t pos = 0;
  while (pos <= o.value.size()) {
    std::size_t comma = o.value.find(',', pos);
    if (comma == std::string::npos) comma = o.value.size();
    if (comma == pos) return false;  // empty value
    axis->values.push_back(o.value.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return true;
}

Param AxisParam(const SweepAxis& axis, const std::string& value) {
  double num = 0;
  const std::string key = axis.section + "." + axis.key;
  if (ParseNumber(value, &num)) return NumParam(key, num);
  return StrParam(key, value);
}

// Expands the cross product of all sweep axes over the base scenario and
// runs one engine simulation per combination. Every combination must
// still pass full scenario validation, but a combination that fails is
// recorded as an "error" cell in the report and the sweep keeps going.
// Exits 2 when any cell failed validation, else 1 when a cell that ran
// failed its self-check (or the report could not be written).
int RunScenarioSweep(const std::string& scenario_path,
                     const std::vector<std::string>& sweep_specs,
                     const std::string& report_id, const std::string& out_dir,
                     unsigned num_threads) {
  auto ini = IniFile::ReadFile(scenario_path);
  if (!ini.ok()) {
    std::fprintf(stderr, "sweep_runner: %s: %s\n", scenario_path.c_str(),
                 ini.status().ToString().c_str());
    // Every job failed before it started; still write the report so the
    // failure is visible as data, not just a log line.
    WriteReport(report_id, "scenario sweep over " + scenario_path,
                std::vector<std::vector<Param>>(1),
                std::vector<RunReport>(1),
                out_dir, num_threads, 0, {ini.status().ToString()});
    return 2;
  }
  std::vector<SweepAxis> axes;
  for (const std::string& spec : sweep_specs) {
    SweepAxis axis;
    if (!ParseSweepAxis(spec, &axis)) {
      std::fprintf(stderr,
                   "sweep_runner: bad --sweep '%s' "
                   "(expected SECTION.KEY=V1,V2,...)\n",
                   spec.c_str());
      return 2;
    }
    axes.push_back(std::move(axis));
  }

  std::size_t total = 1;
  for (const SweepAxis& axis : axes) total *= axis.values.size();

  std::vector<ScenarioSpec> specs(total);
  std::vector<std::string> errors(total);
  std::vector<std::vector<Param>> cell_params;
  cell_params.reserve(total);
  for (std::size_t c = 0; c < total; ++c) {
    IniFile cell = *ini;
    std::vector<Param> params;
    std::size_t rest = c;
    for (const SweepAxis& axis : axes) {
      const std::string& value = axis.values[rest % axis.values.size()];
      rest /= axis.values.size();
      cell.Set(axis.section, axis.key, value);
      params.push_back(AxisParam(axis, value));
    }
    auto spec = ScenarioSpec::FromIni(cell);
    if (!spec.ok()) {
      // Record the failure against this cell and keep sweeping: one bad
      // combination must not discard the rest of the grid's work.
      std::fprintf(stderr, "sweep_runner: cell %zu of %s: %s\n", c,
                   scenario_path.c_str(), spec.status().ToString().c_str());
      errors[c] = spec.status().ToString();
    } else {
      specs[c] = std::move(*spec);
    }
    cell_params.push_back(std::move(params));
  }
  const auto valid = std::count(errors.begin(), errors.end(), std::string());
  const std::size_t failed = total - static_cast<std::size_t>(valid);
  const std::size_t first_ok = static_cast<std::size_t>(
      std::find(errors.begin(), errors.end(), std::string()) - errors.begin());

  std::printf("sweep_runner: %zu scenario cells (%zu axes, %zu invalid) on "
              "%u threads\n",
              total, axes.size(), failed, num_threads);
  const std::vector<RunReport> results =
      RunIndexed(total, num_threads, [&specs, &errors](std::size_t i) {
        if (!errors[i].empty()) {
          return RunReport();  // recorded, not run
        }
        runner::RunRequest request;
        request.spec = &specs[i];
        return RunSpec(std::move(request));
      });

  const ScenarioSpec* base = first_ok < total ? &specs[first_ok] : nullptr;
  std::string description =
      base != nullptr && !base->name.empty()
          ? ("scenario sweep over " + base->name)
          : ("scenario sweep over " + scenario_path);
  if (base != nullptr && !base->description.empty()) {
    description += ": " + base->description;
  }
  const bool passed = CheckCells(report_id, cell_params, results, errors);
  const bool wrote =
      WriteReport(report_id, description, cell_params, results, out_dir,
                  num_threads, base != nullptr ? base->TotalTxns() : 0,
                  errors);
  if (failed != 0) {
    std::fprintf(stderr, "sweep_runner: %zu of %zu cells failed validation\n",
                 failed, total);
    return 2;
  }
  return wrote && passed ? 0 : 1;
}

// Prints one experiment as a table.
void PrintTable(const Experiment& exp, const std::vector<RunReport>& results) {
  std::vector<std::string> headers;
  for (const Param& p : exp.cells.front().params) headers.push_back(p.key);
  headers.insert(headers.end(), exp.columns.begin(), exp.columns.end());
  Table table(std::move(headers));
  for (std::size_t i = 0; i < exp.cells.size(); ++i) {
    std::vector<std::string> row;
    for (const Param& p : exp.cells[i].params) row.push_back(p.value);
    const std::map<std::string, std::string> columns =
        TableColumns(results[i].stats);
    for (const std::string& c : exp.columns) row.push_back(columns.at(c));
    table.AddRow(std::move(row));
  }
  std::printf("\n%s: %s\n\n%s\n", exp.id.c_str(), exp.description.c_str(),
              table.ToString().c_str());
}

// The non-empty ids of a comma list.
std::vector<std::string> SplitIds(const std::string& list) {
  std::vector<std::string> ids;
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    if (comma > pos) ids.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return ids;
}

void PrintHelp() {
  std::puts(
      "sweep_runner: parallel parameter sweeps over the paper's "
      "experiment grids\n"
      "  --exp=e1,e2,...     comma list of experiments e1-e7, e9\n"
      "                      (default: all)\n"
      "  --threads=<n>       worker threads (default: hardware, min 4)\n"
      "  --txns=<n>          transactions per cell, at least 1 (default:\n"
      "                      300; built-in grids only)\n"
      "  --out-dir=<dir>     output directory for BENCH_*.json (default .)\n"
      "  --scenario=<file>   sweep a declarative scenario file instead of\n"
      "                      the built-in grids (see docs/scenarios.md);\n"
      "                      excludes --exp/--txns\n"
      "  --sweep=SECTION.KEY=V1,V2,...  add one grid axis over a scenario\n"
      "                      key (repeatable; cross product of all axes;\n"
      "                      e.g. --sweep='class burst.rate=60,120'\n"
      "                      or --sweep=engine.seed=1,2,3)\n"
      "  --id=<name>         report name for scenario sweeps: writes\n"
      "                      BENCH_<name>.json (default: scenario)\n"
      "exit status: 0 when every cell passed its self-check; 1 when a\n"
      "cell that ran failed it or a report could not be written; 2 for a\n"
      "bad flag or when a scenario cell failed validation (the report\n"
      "is still written, with an error record for each such cell)");
}

}  // namespace

int main(int argc, char** argv) {
  std::string exp_list;
  std::string out_dir = ".";
  std::string scenario_path;
  std::string report_id = "scenario";
  std::vector<std::string> sweep_specs;
  std::uint64_t txns = 300;
  bool txns_set = false;
  unsigned num_threads = std::max(4u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    std::string v;
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0) {
      PrintHelp();
      return 0;
    } else if (ParseFlag(a, "--exp", &exp_list) ||
               ParseFlag(a, "--out-dir", &out_dir) ||
               ParseFlag(a, "--scenario", &scenario_path) ||
               ParseFlag(a, "--id", &report_id)) {
    } else if (ParseFlag(a, "--sweep", &v)) {
      sweep_specs.push_back(v);
    } else if (flags::ParseNumberFlag(a, "--threads", &num_threads)) {
      num_threads = std::max(1u, num_threads);
    } else if (flags::ParseNumberFlag(a, "--txns", &txns)) {
      // A grid cell's class, like any scenario class, has a transaction.
      if (txns == 0) {
        flags::BadFlag("--txns", std::strchr(a, '=') + 1,
                       "an unsigned integer >= 1");
      }
      txns_set = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", a);
      return 2;
    }
  }

  std::error_code dir_ec;
  std::filesystem::create_directories(out_dir, dir_ec);
  if (dir_ec) {
    std::fprintf(stderr, "sweep_runner: cannot create %s: %s\n",
                 out_dir.c_str(), dir_ec.message().c_str());
    return 2;
  }

  if (!scenario_path.empty()) {
    if (!exp_list.empty() || txns_set) {
      std::fprintf(stderr,
                   "sweep_runner: --scenario excludes --exp/--txns (the "
                   "scenario file defines the workload)\n");
      return 2;
    }
    return RunScenarioSweep(scenario_path, sweep_specs, report_id, out_dir,
                            num_threads);
  }
  if (!sweep_specs.empty()) {
    std::fprintf(stderr, "sweep_runner: --sweep requires --scenario\n");
    return 2;
  }

  const std::vector<std::string> wanted = SplitIds(exp_list);
  std::vector<Experiment> experiments;
  std::string valid;
  for (Experiment (*make)() :
       {MakeE1, MakeE2, MakeE3, MakeE4, MakeE5, MakeE6, MakeE7, MakeE9}) {
    Experiment exp = make();
    valid += (valid.empty() ? "" : ", ") + exp.id;
    if (exp_list.empty() ||
        std::find(wanted.begin(), wanted.end(), exp.id) != wanted.end()) {
      experiments.push_back(std::move(exp));
    }
  }
  for (const std::string& id : wanted) {
    if (std::none_of(experiments.begin(), experiments.end(),
                     [&](const Experiment& e) { return e.id == id; })) {
      std::fprintf(stderr, "unknown experiment '%s' in --exp (valid: %s)\n",
                   id.c_str(), valid.c_str());
      return 2;
    }
  }
  if (experiments.empty()) {
    std::fprintf(stderr, "no experiments selected from '%s'\n",
                 exp_list.c_str());
    return 2;
  }

  // Flatten so one pool serves every experiment; a per-experiment pool
  // would leave workers idle at each experiment boundary.
  std::vector<const Cell*> all_cells;
  for (const Experiment& exp : experiments) {
    for (const Cell& cell : exp.cells) all_cells.push_back(&cell);
  }
  std::printf("sweep_runner: %zu cells across %zu experiments on %u threads\n",
              all_cells.size(), experiments.size(), num_threads);

  const std::vector<RunReport> results =
      RunIndexed(all_cells.size(), num_threads, [&](std::size_t i) {
        return RunOneReport(all_cells[i]->spec, txns);
      });

  bool ok = true;
  std::size_t begin = 0;
  for (const Experiment& exp : experiments) {
    const std::vector<RunReport> slice(
        results.begin() + begin, results.begin() + begin + exp.cells.size());
    begin += exp.cells.size();
    std::vector<std::vector<Param>> cell_params;
    for (const Cell& cell : exp.cells) cell_params.push_back(cell.params);
    ok = CheckCells(exp.id, cell_params, slice) && ok;
    PrintTable(exp, slice);
    ok = WriteReport(exp.id, exp.description, cell_params, slice, out_dir,
                     num_threads, txns) &&
         ok;
  }
  return ok ? 0 : 1;
}
