// sweep_runner: multi-threaded parameter-sweep harness for the paper's
// experiment grids E1-E9. Each experiment expands to a grid of cells
// (lambda, transaction size, back-off interval, protocol policy, ...);
// cells are sharded across a worker pool, each worker runs one full
// Engine simulation per cell, and results land in machine-readable
// BENCH_e*.json files so the performance trajectory of the repo can be
// tracked across PRs.
//
// Besides the built-in grids, any declarative scenario file can be swept
// over any of its keys: --scenario=FILE turns the scenario into the base
// cell and each --sweep=SECTION.KEY=V1,V2,... adds a grid axis (the cross
// product of all axes is run).
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
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "scenario/scenario.h"

namespace {

using namespace unicc;
using namespace unicc::bench;

// ---------------------------------------------------------------------------
// Grid definition
// ---------------------------------------------------------------------------

// One named parameter of a cell, kept as a string/double pair so the JSON
// writer can emit numbers as numbers and labels as strings.
struct Param {
  std::string key;
  std::string str_value;  // used when is_number is false
  double num_value = 0;
  bool is_number = false;
};

Param NumParam(std::string key, double v) {
  Param p;
  p.key = std::move(key);
  p.num_value = v;
  p.is_number = true;
  return p;
}

Param StrParam(std::string key, std::string v) {
  Param p;
  p.key = std::move(key);
  p.str_value = std::move(v);
  return p;
}

// One point of an experiment grid: the full engine/workload configuration
// plus the parameter values that identify the point in the report.
struct Cell {
  std::vector<Param> params;
  BenchConfig cfg;
  PolicyKind policy = PolicyKind::kFixed;
  Protocol fixed = Protocol::kTwoPhaseLocking;
};

struct Experiment {
  std::string id;           // "e1", ... -> BENCH_e1.json
  std::string description;  // one line, copied into the JSON header
  std::vector<Cell> cells;
};

// Appends one cell per protocol for a pure-backend baseline sweep.
void AddPureProtocolCells(Experiment* exp, const BenchConfig& base,
                          std::vector<Param> params) {
  for (Protocol p :
       {Protocol::kTwoPhaseLocking, Protocol::kTimestampOrdering,
        Protocol::kPrecedenceAgreement}) {
    Cell cell;
    cell.params = params;
    cell.params.push_back(
        StrParam("protocol", std::string(ProtocolToken(p))));
    cell.cfg = base;
    cell.cfg.backend = BackendKind::kPure;
    cell.policy = PolicyKind::kFixed;
    cell.fixed = p;
    exp->cells.push_back(std::move(cell));
  }
}

// E1: mean system time / throughput vs arrival rate lambda, per protocol.
Experiment MakeE1(std::uint64_t txns) {
  Experiment exp;
  exp.id = "e1";
  exp.description = "system time and throughput vs arrival rate lambda";
  for (double lambda : {10.0, 25.0, 50.0, 100.0, 150.0, 200.0, 250.0}) {
    BenchConfig cfg;
    cfg.lambda = lambda;
    cfg.num_txns = txns;
    AddPureProtocolCells(&exp, cfg, {NumParam("lambda", lambda)});
  }
  return exp;
}

// E2: transaction size sweep, per protocol.
Experiment MakeE2(std::uint64_t txns) {
  Experiment exp;
  exp.id = "e2";
  exp.description = "system time vs transaction size st";
  for (std::uint32_t st : {2u, 4u, 6u, 8u, 12u, 16u}) {
    BenchConfig cfg;
    cfg.lambda = 40;
    cfg.size_min = st;
    cfg.size_max = st;
    cfg.num_txns = txns;
    AddPureProtocolCells(&exp, cfg, {NumParam("txn_size", st)});
  }
  return exp;
}

// E5: dynamic min-STL selection vs the static protocol choices.
Experiment MakeE5(std::uint64_t txns) {
  Experiment exp;
  exp.id = "e5";
  exp.description = "dynamic min-STL selection vs static protocols";
  struct PolicyPoint {
    const char* label;
    PolicyKind kind;
    Protocol fixed;
  };
  const PolicyPoint policies[] = {
      {"static-2pl", PolicyKind::kFixed, Protocol::kTwoPhaseLocking},
      {"static-to", PolicyKind::kFixed, Protocol::kTimestampOrdering},
      {"static-pa", PolicyKind::kFixed, Protocol::kPrecedenceAgreement},
      {"min-stl", PolicyKind::kMinStl, Protocol::kTwoPhaseLocking},
      {"min-avg-time", PolicyKind::kMinAvgTime, Protocol::kTwoPhaseLocking},
  };
  for (double lambda : {10.0, 30.0, 75.0, 150.0, 250.0}) {
    for (const PolicyPoint& p : policies) {
      Cell cell;
      cell.params = {NumParam("lambda", lambda), StrParam("policy", p.label)};
      cell.cfg.lambda = lambda;
      cell.cfg.num_txns = txns;
      cell.cfg.backend = BackendKind::kUnified;
      cell.policy = p.kind;
      cell.fixed = p.fixed;
      exp.cells.push_back(std::move(cell));
    }
  }
  return exp;
}

// E9: PA back-off interval INT sweep.
Experiment MakeE9(std::uint64_t txns) {
  Experiment exp;
  exp.id = "e9";
  exp.description = "PA back-off interval INT sweep";
  for (Timestamp interval : {1u, 4u, 16u, 64u, 256u, 1024u}) {
    Cell cell;
    cell.params = {NumParam("backoff_interval",
                            static_cast<double>(interval))};
    cell.cfg.lambda = 120;
    cell.cfg.num_txns = txns;
    cell.cfg.backend = BackendKind::kPure;
    cell.cfg.backoff_interval = interval;
    cell.policy = PolicyKind::kFixed;
    cell.fixed = Protocol::kPrecedenceAgreement;
    cell.params.push_back(StrParam("protocol", "pa"));
    exp.cells.push_back(std::move(cell));
  }
  return exp;
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

// Runs `count` cells across `num_threads` workers, one full engine
// simulation per cell via `run_cell`. Cells are claimed from a shared
// atomic cursor, so long cells do not stall short ones behind a static
// partition.
std::vector<runner::RunReport> RunIndexed(
    std::size_t count, unsigned num_threads,
    const std::function<runner::RunReport(std::size_t)>& run_cell) {
  std::vector<runner::RunReport> results(count);
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
// admitted attempt), mean/p95 response time [ms], raw counters and the
// run's wall-clock phases [s] (setup, simulate, verify). A cell
// whose scenario failed to load or validate is written as an "error"
// record (params + message, no stats); `errors` may be empty (no failures
// possible, e.g. the built-in grids) or one entry per cell with the empty
// string marking success.
bool WriteReport(const std::string& id, const std::string& description,
                 const std::vector<std::vector<Param>>& cell_params,
                 const std::vector<runner::RunReport>& results,
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
    const RunStats& s = results[i].stats;
    const double aborts = static_cast<double>(s.deadlock_victims) +
                          static_cast<double>(s.reject_restarts);
    const double attempts = static_cast<double>(s.committed) + aborts;
    std::fprintf(f, "    {\n      \"params\": {");
    for (std::size_t p = 0; p < params.size(); ++p) {
      if (p != 0) std::fprintf(f, ", ");
      WriteJsonString(f, params[p].key);
      std::fprintf(f, ": ");
      if (params[p].is_number) {
        std::fprintf(f, "%g", params[p].num_value);
      } else {
        WriteJsonString(f, params[p].str_value);
      }
    }
    std::fprintf(f, "},\n");
    if (!errors.empty() && !errors[i].empty()) {
      std::fprintf(f, "      \"error\": ");
      WriteJsonString(f, errors[i]);
      std::fprintf(f, "\n    }%s\n", i + 1 == cell_params.size() ? "" : ",");
      continue;
    }
    std::fprintf(f, "      \"throughput_tx_per_sec\": %.4f,\n", s.throughput);
    std::fprintf(f, "      \"abort_rate\": %.6f,\n",
                 attempts == 0 ? 0.0 : aborts / attempts);
    std::fprintf(f, "      \"mean_response_ms\": %.4f,\n", s.mean_s_ms);
    std::fprintf(f, "      \"p95_response_ms\": %.4f,\n", s.p95_s_ms);
    std::fprintf(f, "      \"committed\": %llu,\n",
                 static_cast<unsigned long long>(s.committed));
    std::fprintf(f, "      \"deadlock_victims\": %llu,\n",
                 static_cast<unsigned long long>(s.deadlock_victims));
    std::fprintf(f, "      \"reject_restarts\": %llu,\n",
                 static_cast<unsigned long long>(s.reject_restarts));
    std::fprintf(f, "      \"backoff_rounds\": %llu,\n",
                 static_cast<unsigned long long>(s.backoff_rounds));
    std::fprintf(f, "      \"msgs_per_txn\": %.4f,\n", s.msgs_per_txn);
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
    std::fprintf(f, "      \"serializable\": %s\n",
                 s.serializable ? "true" : "false");
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
// SECTION.KEY=V1,V2,... (the key's section may contain spaces, e.g.
// --sweep='class burst.rate=60,120').
struct SweepAxis {
  std::string section;
  std::string key;
  std::vector<std::string> values;
};

bool ParseSweepAxis(const std::string& spec, SweepAxis* axis) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos) return false;
  const std::string path = spec.substr(0, eq);
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == path.size()) {
    return false;
  }
  axis->section = path.substr(0, dot);
  axis->key = path.substr(dot + 1);
  axis->values.clear();
  std::size_t pos = eq + 1;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    if (comma == pos) return false;  // empty value
    axis->values.push_back(spec.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return !axis->values.empty();
}

Param AxisParam(const SweepAxis& axis, const std::string& value) {
  char* end = nullptr;
  const double num = std::strtod(value.c_str(), &end);
  const std::string key = axis.section + "." + axis.key;
  if (end != value.c_str() && *end == '\0') return NumParam(key, num);
  return StrParam(key, value);
}

// Expands the cross product of all sweep axes over the base scenario and
// runs one engine simulation per combination. Every combination must
// still pass full scenario validation, but a combination that fails is
// recorded as an "error" cell in the report and the sweep keeps going;
// the run only exits nonzero when every job failed.
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
                std::vector<runner::RunReport>(1),
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
  const std::size_t failed = static_cast<std::size_t>(std::count_if(
      errors.begin(), errors.end(),
      [](const std::string& e) { return !e.empty(); }));
  std::size_t first_ok = total;
  for (std::size_t c = 0; c < total; ++c) {
    if (errors[c].empty()) {
      first_ok = c;
      break;
    }
  }

  std::printf("sweep_runner: %zu scenario cells (%zu axes, %zu invalid) on "
              "%u threads\n",
              total, axes.size(), failed, num_threads);
  const std::vector<runner::RunReport> results =
      RunIndexed(total, num_threads, [&specs, &errors](std::size_t i) {
        if (!errors[i].empty()) {
          return runner::RunReport();  // recorded, not run
        }
        return RunScenarioReport(specs[i]);
      });

  const ScenarioSpec* base = first_ok < total ? &specs[first_ok] : nullptr;
  std::string description =
      base != nullptr && !base->name.empty()
          ? ("scenario sweep over " + base->name)
          : ("scenario sweep over " + scenario_path);
  if (base != nullptr && !base->description.empty()) {
    description += ": " + base->description;
  }
  const bool wrote =
      WriteReport(report_id, description, cell_params, results, out_dir,
                  num_threads, base != nullptr ? base->TotalTxns() : 0,
                  errors);
  if (failed == total) {
    std::fprintf(stderr, "sweep_runner: every cell failed validation\n");
    return 2;
  }
  return wrote ? 0 : 1;
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

bool Selected(const std::string& list, const std::string& id) {
  if (list.empty()) return true;
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    if (list.substr(pos, comma - pos) == id) return true;
    pos = comma + 1;
  }
  return false;
}

void PrintHelp() {
  std::puts(
      "sweep_runner: parallel parameter sweeps over the paper's "
      "experiment grids\n"
      "  --exp=e1,e2,e5,e9   comma list of experiments (default: all)\n"
      "  --threads=<n>       worker threads (default: hardware, min 4)\n"
      "  --txns=<n>          transactions per cell (default: 300;\n"
      "                      built-in grids only)\n"
      "  --out-dir=<dir>     output directory for BENCH_*.json (default .)\n"
      "  --scenario=<file>   sweep a declarative scenario file instead of\n"
      "                      the built-in grids (see docs/scenarios.md);\n"
      "                      excludes --exp/--txns\n"
      "  --sweep=SECTION.KEY=V1,V2,...  add one grid axis over a scenario\n"
      "                      key (repeatable; cross product of all axes;\n"
      "                      e.g. --sweep='class burst.rate=60,120'\n"
      "                      or --sweep=engine.seed=1,2,3)\n"
      "  --id=<name>         report name for scenario sweeps: writes\n"
      "                      BENCH_<name>.json (default: scenario)");
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
    } else if (ParseFlag(a, "--threads", &v)) {
      const long n = std::strtol(v.c_str(), nullptr, 10);
      num_threads = n < 1 ? 1u : static_cast<unsigned>(n);
    } else if (ParseFlag(a, "--txns", &v)) {
      txns = std::strtoull(v.c_str(), nullptr, 10);
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

  std::vector<Experiment> experiments;
  if (Selected(exp_list, "e1")) experiments.push_back(MakeE1(txns));
  if (Selected(exp_list, "e2")) experiments.push_back(MakeE2(txns));
  if (Selected(exp_list, "e5")) experiments.push_back(MakeE5(txns));
  if (Selected(exp_list, "e9")) experiments.push_back(MakeE9(txns));
  if (experiments.empty()) {
    std::fprintf(stderr, "no experiments selected from '%s'\n",
                 exp_list.c_str());
    return 2;
  }

  // Flatten so one pool serves every experiment; a per-experiment pool
  // would leave workers idle at each experiment boundary.
  std::vector<Cell> all_cells;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;  // [begin, end)
  for (const Experiment& exp : experiments) {
    const std::size_t begin = all_cells.size();
    all_cells.insert(all_cells.end(), exp.cells.begin(), exp.cells.end());
    ranges.emplace_back(begin, all_cells.size());
  }
  std::printf("sweep_runner: %zu cells across %zu experiments on %u threads\n",
              all_cells.size(), experiments.size(), num_threads);

  const std::vector<runner::RunReport> results =
      RunIndexed(all_cells.size(), num_threads, [&all_cells](std::size_t i) {
        return RunOneReport(all_cells[i].cfg, all_cells[i].policy,
                            all_cells[i].fixed);
      });

  bool ok = true;
  for (std::size_t e = 0; e < experiments.size(); ++e) {
    const auto [begin, end] = ranges[e];
    const std::vector<runner::RunReport> slice(results.begin() + begin,
                                               results.begin() + end);
    std::vector<std::vector<Param>> cell_params;
    cell_params.reserve(end - begin);
    for (std::size_t c = begin; c < end; ++c) {
      cell_params.push_back(all_cells[c].params);
    }
    ok = WriteReport(experiments[e].id, experiments[e].description,
                     cell_params, slice, out_dir, num_threads, txns) &&
         ok;
  }
  return ok ? 0 : 1;
}
