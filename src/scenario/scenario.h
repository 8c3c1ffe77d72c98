// Declarative scenarios: a complete experiment configuration — cluster
// shape, protocol-selection policy and a multi-class workload mix — parsed
// from a small INI file instead of hard-coded C++. See docs/scenarios.md
// for the file-format reference and scenarios/ for shipped examples.
//
// A scenario has one [engine] section, an optional [policy] section, one
// or more [class NAME] sections and an optional timeline of [phase NAME]
// sections. Each class is an independent stream of transactions with its
// own arrival process (Poisson or bursty on-off), size distribution,
// access pattern (uniform / zipf / hotspot / partition), read fraction
// and optional forced protocol. Each phase overrides class knobs from its
// start time onward, so one scenario can model a workload whose rate,
// skew or mix shifts mid-run.
//
// Macro scenarios additionally declare named [table NAME] sections (row
// counts, optionally multiplied by [scenario] scale_factor) laid out
// contiguously in the item space; a class binds to one table with
// `table = NAME` so its accesses stay inside that table's range. Classes
// may also mix in ranged scans (`scan_fraction` / `scan_max`), modelling
// the YCSB scan operation.
#ifndef UNICC_SCENARIO_SCENARIO_H_
#define UNICC_SCENARIO_SCENARIO_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "engine/config.h"
#include "engine/engine.h"
#include "scenario/ini.h"
#include "workload/stream.h"

namespace unicc {

// How transactions pick their protocol. `kTrace` means "no policy": the
// per-transaction protocols in the workload (or replayed trace) are used
// verbatim.
struct ScenarioPolicy {
  enum class Kind : std::uint8_t {
    kFixed = 0,
    kMix = 1,
    kMinStl = 2,
    kMinAvgTime = 3,
    kTrace = 4,
  };
  Kind kind = Kind::kFixed;
  Protocol fixed = Protocol::kTwoPhaseLocking;  // kFixed only
  double weights[kNumProtocols] = {1, 1, 1};    // kMix only
  // Sliding-window decay for the online parameter estimator: statistics
  // older than roughly this window fade out, so STL estimates re-converge
  // after a phase shift instead of averaging over the whole run.
  // 0 disables decay (the estimator averages over everything).
  Duration estimator_window = 0;
};

// One logical table: a named contiguous slice of the item space. Tables
// are laid out in declaration order; `rows` scaled by the scenario
// scale_factor (unless `scale = false`) gives the effective row count.
// The engine's item count becomes the sum of all effective rows.
struct ScenarioTable {
  std::string name;
  int line = 0;            // of the section header, for diagnostics
  std::uint64_t rows = 0;  // declared per-scale-factor row count
  bool scale = true;       // multiply rows by [scenario] scale_factor
  ItemId first = 0;        // resolved: first item id of the table
  ItemId effective_rows = 0;  // resolved: rows after scaling
};

// One workload class: a stream of structurally similar transactions.
struct ScenarioClass {
  std::string name;

  // Table binding ([table] scenarios only): accesses are drawn inside
  // [range_first, range_first + range_items). range_items == 0 means the
  // whole item space (no table bound).
  std::string table;
  ItemId range_first = 0;
  ItemId range_items = 0;

  std::uint64_t txns = 0;
  SimTime start = 0;  // offset added to every arrival of this class

  enum class ArrivalKind : std::uint8_t { kPoisson = 0, kOnOff = 1 };
  ArrivalKind arrival = ArrivalKind::kPoisson;
  double rate = 0;          // tx/s; on-phase rate for kOnOff
  double off_rate = 0;      // kOnOff: rate during the off phase (may be 0)
  Duration on_mean = 0;     // kOnOff: mean on-phase length
  Duration off_mean = 0;    // kOnOff: mean off-phase length

  std::uint32_t size_min = 4;
  std::uint32_t size_max = 4;
  double read_fraction = 0.5;

  // Ranged scans (YCSB-style): with probability scan_fraction a
  // transaction reads a contiguous run of 1..scan_max items instead of
  // drawing point accesses. 0 disables scans (and draws nothing extra
  // from the class Rng, keeping legacy scenarios byte-identical).
  double scan_fraction = 0;
  std::uint32_t scan_max = 100;

  enum class AccessKind : std::uint8_t {
    kUniform = 0,
    kZipf = 1,
    kHotspot = 2,
    kPartition = 3,
  };
  AccessKind access = AccessKind::kUniform;
  double theta = 0;            // kZipf
  ItemId hot_items = 0;        // kHotspot
  double hot_fraction = 0;     // kHotspot
  std::uint32_t partitions = 1;  // kPartition
  double cross_fraction = 0;     // kPartition

  Duration compute_time = 5 * kMillisecond;
  Timestamp backoff_interval = 0;  // 0: engine default

  // Overload-control class attributes. Priority orders parked arrivals at
  // the admission gate (higher admits first); the deadline is a per-txn
  // budget from arrival — parked or in-flight work past it is expired and
  // committed work past it does not count toward goodput. 0 = none.
  std::uint32_t priority = 0;
  Duration deadline = 0;

  // Forced per-class protocol; overrides the scenario policy for every
  // transaction of this class.
  bool has_protocol = false;
  Protocol protocol = Protocol::kTwoPhaseLocking;
};

// One timeline phase: from `start` onward every override replaces a class
// workload knob. Overrides compose cumulatively across phases; a plain
// key applies to every class, `CLASS.key` to one class only.
struct ScenarioPhase {
  std::string name;
  int line = 0;      // of the section header, for diagnostics
  SimTime start = 0; // required, strictly increasing across phases

  struct Override {
    std::string class_name;  // empty: applies to all classes
    IniEntry entry;          // key (without the class prefix) and value
  };
  std::vector<Override> overrides;

  // `crash = SITE+DOWN_MS` entries: the site fails at the phase start and
  // recovers DOWN_MS later. Folded into [fault] crashes after parsing.
  struct Crash {
    SiteId site = 0;
    Duration down = 0;
  };
  std::vector<Crash> crashes;
};

// A parsed, validated scenario.
struct ScenarioSpec {
  std::string name;
  std::string description;
  // Multiplier applied to every scaling [table] section's row count.
  std::uint64_t scale_factor = 1;
  EngineOptions engine;
  ScenarioPolicy policy;
  std::vector<ScenarioTable> tables;
  std::vector<ScenarioClass> classes;
  std::vector<ScenarioPhase> phases;

  // Parsing. Every key is validated: unknown sections/keys, unparsable
  // values and out-of-range settings are InvalidArgument with the line
  // number. FromIni allows programmatic overrides (IniFile::Set) before
  // validation, which is how sweep_runner expands scenario grids.
  static StatusOr<ScenarioSpec> FromIni(const IniFile& ini);
  static StatusOr<ScenarioSpec> Parse(const std::string& text);
  static StatusOr<ScenarioSpec> LoadFile(const std::string& path);

  // The lazy open-system form of the workload: a pull-based stream of all
  // classes merged in time order with ids 1..N assigned at pull time, plus
  // the set of forced-protocol ids, filled as the stream emits them. Fully
  // deterministic in engine.seed; O(classes) memory.
  struct OpenWorkload {
    std::unique_ptr<ArrivalStream> stream;
    std::shared_ptr<std::unordered_set<TxnId>> forced;
  };
  OpenWorkload Open() const;

  // The materialized workload (the stream drained into a vector), for
  // callers that keep every arrival: the benchmark harness and tests.
  struct Workload {
    std::vector<Arrival> arrivals;
    std::shared_ptr<std::unordered_set<TxnId>> forced;
  };
  Workload BuildWorkload() const;

  // True when the scenario uses open-system run controls (admission
  // horizon, committed-count stop, MPL cap) and should be run through
  // streaming admission rather than batch pre-admission.
  bool IsOpenSystem() const;

  std::uint64_t TotalTxns() const;
};

// One class on its own, over `num_items` items and `num_user_sites` home
// sites, drawing from `rng`: the generator ScenarioSpec::Open runs for
// each class, without phases, with ids 1..c.txns. A protocol the class
// forces is written into every spec, and no forced-id set is kept. Aborts
// unless the rate is finite and > 0, 1 <= size_min <= size_max <= the
// class's item range, read_fraction is in [0, 1], theta is finite and
// >= 0, and there is at least one user site.
std::unique_ptr<ArrivalStream> OpenClass(const ScenarioClass& c,
                                         ItemId num_items,
                                         std::uint32_t num_user_sites,
                                         Rng rng);

// The basic_to backend serves T/O only, so every transaction must be
// steered to it: the policy must be kind = fixed with protocol = to, and
// no class may force another protocol. Always OK on the unified backend.
// Scenario validation and RunSession::Create both apply it.
Status ValidateBackend(const ScenarioSpec& spec);

// The policy of ScenarioPolicy::Kind::kFixed: always `p`.
ProtocolPolicy FixedProtocol(Protocol p);

// The policy of ScenarioPolicy::Kind::kMix: a random protocol drawn from
// `rng` with the given weights (need not sum to 1; the total must be > 0).
ProtocolPolicy MixedProtocol(double w_2pl, double w_to, double w_pa,
                             Rng rng);

// Wraps a base protocol policy so transactions in `forced` keep the
// protocol already in their spec. `base` may be null (behaves like
// ScenarioPolicy::Kind::kTrace for unforced transactions). The forced set
// may keep growing while a scenario stream is being admitted; it is read
// at admission time, after the id has been inserted.
ProtocolPolicy ForcedAwarePolicy(
    ProtocolPolicy base,
    std::shared_ptr<const std::unordered_set<TxnId>> forced);

}  // namespace unicc

#endif  // UNICC_SCENARIO_SCENARIO_H_
