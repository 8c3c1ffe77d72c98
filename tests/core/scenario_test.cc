#include "scenario/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "scenario/ini.h"
#include "workload/access.h"
#include "workload/arrival.h"

namespace unicc {
namespace {

// ---------------------------------------------------------------------------
// INI reader
// ---------------------------------------------------------------------------

TEST(IniFileTest, ParsesSectionsEntriesAndComments) {
  auto ini = IniFile::Parse(
      "# leading comment\n"
      "[alpha]\n"
      "a = 1\n"
      "b = two words  ; trailing comment\n"
      "\n"
      "; other comment style\n"
      "[beta gamma]\n"
      "key=value#not-a-comment\n");
  ASSERT_TRUE(ini.ok()) << ini.status().ToString();
  ASSERT_EQ(ini->sections().size(), 2u);
  const IniSection* alpha = ini->Find("alpha");
  ASSERT_NE(alpha, nullptr);
  ASSERT_EQ(alpha->entries.size(), 2u);
  EXPECT_EQ(alpha->Find("a")->value, "1");
  EXPECT_EQ(alpha->Find("b")->value, "two words");
  EXPECT_EQ(alpha->Find("b")->line, 4);
  const IniSection* beta = ini->Find("beta gamma");
  ASSERT_NE(beta, nullptr);
  // '#' glued to the value is part of the value, not a comment.
  EXPECT_EQ(beta->Find("key")->value, "value#not-a-comment");
  EXPECT_EQ(ini->Find("missing"), nullptr);
}

TEST(IniFileTest, RejectsMalformedInput) {
  EXPECT_FALSE(IniFile::Parse("key = 1\n").ok());        // before any section
  EXPECT_FALSE(IniFile::Parse("[oops\nk = 1\n").ok());   // unterminated
  EXPECT_FALSE(IniFile::Parse("[]\n").ok());             // empty name
  EXPECT_FALSE(IniFile::Parse("[s]\nnovalue\n").ok());   // no '='
  EXPECT_FALSE(IniFile::Parse("[s]\n= 3\n").ok());       // empty key
  // Errors carry the offending line number.
  auto bad = IniFile::Parse("[s]\nok = 1\nbroken\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 3"), std::string::npos);
}

TEST(IniFileTest, SetOverridesAndAppends) {
  auto parsed = IniFile::Parse("[s]\na = 1\n");
  ASSERT_TRUE(parsed.ok());
  IniFile ini = *parsed;
  ini.Set("s", "a", "2");      // overwrite
  ini.Set("s", "b", "3");      // append to existing section
  ini.Set("fresh", "c", "4");  // create section
  EXPECT_EQ(ini.Find("s")->Find("a")->value, "2");
  EXPECT_EQ(ini.Find("s")->Find("b")->value, "3");
  EXPECT_EQ(ini.Find("fresh")->Find("c")->value, "4");
}

// ---------------------------------------------------------------------------
// ScenarioSpec parsing
// ---------------------------------------------------------------------------

constexpr char kFullScenario[] = R"(
[scenario]
name = full
description = every knob exercised

[engine]
user_sites = 3
data_sites = 5
items = 200
replication = 2
detector = none
semi_locks = false
delay_ms = 7.5
jitter_ms = 1
skew_ms = 20
restart_delay_ms = 10
backoff_interval = 32
seed = 9

[policy]
kind = mix
weights = 2,1,0.5

[class busy]
txns = 40
arrival = onoff
rate = 100
off_rate = 1
on_ms = 500
off_ms = 2000
size = 2..6
read_fraction = 0.25
access = hotspot
hot_items = 10
hot_fraction = 0.9
compute_ms = 2
backoff_interval = 16
protocol = pa

[class quiet]
txns = 10
start_ms = 3000
rate = 5
size = 3
access = partition
partitions = 4
cross_fraction = 0.1
)";

TEST(ScenarioSpecTest, ParsesFullScenario) {
  auto spec = ScenarioSpec::Parse(kFullScenario);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->name, "full");
  EXPECT_EQ(spec->engine.num_user_sites, 3u);
  EXPECT_EQ(spec->engine.num_data_sites, 5u);
  EXPECT_EQ(spec->engine.num_items, 200u);
  EXPECT_EQ(spec->engine.replication, 2u);
  EXPECT_EQ(spec->engine.detector, DetectorKind::kNone);
  EXPECT_FALSE(spec->engine.semi_locks);
  EXPECT_EQ(spec->engine.network.base_delay, 7500u);
  EXPECT_EQ(spec->engine.network.jitter_mean, 1000u);
  EXPECT_EQ(spec->engine.max_clock_skew, 20000u);
  EXPECT_EQ(spec->engine.restart_delay_mean, 10000u);
  EXPECT_EQ(spec->engine.default_backoff_interval, 32u);
  EXPECT_EQ(spec->engine.seed, 9u);
  EXPECT_EQ(spec->policy.kind, ScenarioPolicy::Kind::kMix);
  EXPECT_DOUBLE_EQ(spec->policy.weights[2], 0.5);
  ASSERT_EQ(spec->classes.size(), 2u);
  const ScenarioClass& busy = spec->classes[0];
  EXPECT_EQ(busy.name, "busy");
  EXPECT_EQ(busy.arrival, ScenarioClass::ArrivalKind::kOnOff);
  EXPECT_DOUBLE_EQ(busy.rate, 100);
  EXPECT_DOUBLE_EQ(busy.off_rate, 1);
  EXPECT_EQ(busy.on_mean, 500000u);
  EXPECT_EQ(busy.size_min, 2u);
  EXPECT_EQ(busy.size_max, 6u);
  EXPECT_EQ(busy.access, ScenarioClass::AccessKind::kHotspot);
  EXPECT_TRUE(busy.has_protocol);
  EXPECT_EQ(busy.protocol, Protocol::kPrecedenceAgreement);
  EXPECT_EQ(busy.backoff_interval, 16u);
  const ScenarioClass& quiet = spec->classes[1];
  EXPECT_EQ(quiet.start, 3000000u);
  EXPECT_EQ(quiet.access, ScenarioClass::AccessKind::kPartition);
  EXPECT_FALSE(quiet.has_protocol);
  EXPECT_EQ(spec->TotalTxns(), 50u);
}

// A minimal valid scenario with one `extra` line spliced into a section.
std::string WithLine(const std::string& section_and_line) {
  return "[engine]\nitems = 32\n" + section_and_line +
         "\n[class c]\ntxns = 5\nrate = 10\nsize = 2\n";
}

TEST(ScenarioSpecTest, RejectsUnknownSectionsAndKeys) {
  EXPECT_FALSE(ScenarioSpec::Parse("[mystery]\nx = 1\n").ok());
  EXPECT_FALSE(ScenarioSpec::Parse(WithLine("typo_knob = 3")).ok());
  EXPECT_FALSE(
      ScenarioSpec::Parse(WithLine("[policy]\nprotocl = 2pl")).ok());
  EXPECT_FALSE(
      ScenarioSpec::Parse(WithLine("[scenario]\nauthor = me")).ok());
  // Unknown class key, reported with its line.
  auto bad = ScenarioSpec::Parse(
      "[engine]\nitems = 32\n[class c]\ntxns = 5\nrate = 10\nsiez = 2\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 6"), std::string::npos);
  EXPECT_NE(bad.status().message().find("siez"), std::string::npos);
}

TEST(ScenarioSpecTest, RejectsBadValuesAndRanges) {
  // Not a number / malformed values.
  EXPECT_FALSE(ScenarioSpec::Parse(WithLine("seed = soon")).ok());
  EXPECT_FALSE(ScenarioSpec::Parse(WithLine("delay_ms = -1")).ok());
  EXPECT_FALSE(ScenarioSpec::Parse(WithLine("semi_locks = maybe")).ok());
  EXPECT_FALSE(ScenarioSpec::Parse(WithLine("detector = psychic")).ok());
  EXPECT_FALSE(ScenarioSpec::Parse(WithLine("detector = probe")).ok());
  EXPECT_FALSE(
      ScenarioSpec::Parse(WithLine("[policy]\nweights = 1,1")).ok());
  EXPECT_FALSE(
      ScenarioSpec::Parse(WithLine("[policy]\nweights = 0,0,0")).ok());
  // Values past their field's type: no silent narrowing, saturation or
  // out-of-range double conversion.
  EXPECT_FALSE(ScenarioSpec::Parse(WithLine("items = 4294967356")).ok());
  EXPECT_FALSE(ScenarioSpec::Parse(WithLine("user_sites = 4294967297")).ok());
  EXPECT_FALSE(
      ScenarioSpec::Parse(WithLine("seed = 18446744073709551616")).ok());
  EXPECT_FALSE(ScenarioSpec::Parse(WithLine("delay_ms = 1e300")).ok());
  // Class-level range errors.
  auto with_class_key = [](const std::string& line) {
    return "[engine]\nitems = 32\n[class c]\ntxns = 5\nrate = 10\n" + line +
           "\n";
  };
  EXPECT_FALSE(ScenarioSpec::Parse(with_class_key("size = 0")).ok());
  EXPECT_FALSE(ScenarioSpec::Parse(with_class_key("size = 6..2")).ok());
  EXPECT_FALSE(ScenarioSpec::Parse(with_class_key("size = 40")).ok());
  EXPECT_FALSE(ScenarioSpec::Parse(with_class_key("size = 4294967298")).ok());
  // NaN passes every </> range check, and infinity reaches the generators.
  EXPECT_FALSE(ScenarioSpec::Parse(with_class_key("read_fraction = nan")).ok());
  EXPECT_FALSE(ScenarioSpec::Parse(with_class_key("rate = nan")).ok());
  EXPECT_FALSE(ScenarioSpec::Parse(with_class_key("rate = inf")).ok());
  EXPECT_FALSE(ScenarioSpec::Parse(
                   with_class_key("access = hotspot\nhot_items = 2\n"
                                  "hot_fraction = nan"))
                   .ok());
  EXPECT_FALSE(
      ScenarioSpec::Parse(with_class_key("read_fraction = 1.5")).ok());
  EXPECT_FALSE(ScenarioSpec::Parse(with_class_key("rate = 0")).ok());
  EXPECT_FALSE(
      ScenarioSpec::Parse(with_class_key("arrival = onoff")).ok());
  EXPECT_FALSE(ScenarioSpec::Parse(
                   with_class_key("access = hotspot\nhot_items = 32"))
                   .ok());
  EXPECT_FALSE(
      ScenarioSpec::Parse(
          with_class_key(
              "access = hotspot\nhot_items = 2\nhot_fraction = 1\nsize = 3"))
          .ok());
  // hot_fraction = 0 leaves only the cold region reachable; a size that
  // cannot be filled from it used to hang workload generation.
  EXPECT_FALSE(
      ScenarioSpec::Parse(
          with_class_key(
              "access = hotspot\nhot_items = 30\nhot_fraction = 0\nsize = 3"))
          .ok());
  EXPECT_FALSE(
      ScenarioSpec::Parse(
          with_class_key("access = partition\npartitions = 16\nsize = 3"))
          .ok());
}

TEST(ScenarioSpecTest, RequiresClassesAndMandatoryKeys) {
  EXPECT_FALSE(ScenarioSpec::Parse("[engine]\nitems = 32\n").ok());
  EXPECT_FALSE(
      ScenarioSpec::Parse("[class c]\nrate = 10\n").ok());  // no txns
  EXPECT_FALSE(
      ScenarioSpec::Parse("[class c]\ntxns = 5\n").ok());  // no rate
  // Duplicate class names collide in sweeps; rejected.
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[class c]\ntxns = 5\nrate = 1\n"
                   "[class c]\ntxns = 5\nrate = 1\n")
                   .ok());
}

TEST(ScenarioSpecTest, PureBackendRequiresMatchingFixedPolicy) {
  const char* base =
      "[engine]\nbackend = pure\nprotocol = to\ndetector = none\n"
      "[policy]\nkind = %s\nprotocol = %s\n"
      "[class c]\ntxns = 5\nrate = 10\nsize = 2\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf), base, "fixed", "to");
  EXPECT_TRUE(ScenarioSpec::Parse(buf).ok());
  std::snprintf(buf, sizeof(buf), base, "fixed", "2pl");
  EXPECT_FALSE(ScenarioSpec::Parse(buf).ok());
  std::snprintf(buf, sizeof(buf), base, "minstl", "to");
  EXPECT_FALSE(ScenarioSpec::Parse(buf).ok());
}

// ---------------------------------------------------------------------------
// Workload construction
// ---------------------------------------------------------------------------

TEST(ScenarioWorkloadTest, DeterministicAndSeedSensitive) {
  auto spec = ScenarioSpec::Parse(kFullScenario);
  ASSERT_TRUE(spec.ok());
  const auto a = spec->BuildWorkload();
  const auto b = spec->BuildWorkload();
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].when, b.arrivals[i].when);
    EXPECT_EQ(a.arrivals[i].spec.read_set, b.arrivals[i].spec.read_set);
    EXPECT_EQ(a.arrivals[i].spec.write_set, b.arrivals[i].spec.write_set);
  }
  EXPECT_EQ(*a.forced, *b.forced);

  ScenarioSpec reseeded = *spec;
  reseeded.engine.seed ^= 1;
  const auto c = reseeded.BuildWorkload();
  bool any_differs = false;
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    any_differs = any_differs || a.arrivals[i].when != c.arrivals[i].when;
  }
  EXPECT_TRUE(any_differs);
}

TEST(ScenarioWorkloadTest, IdsAreTimeOrderedAndSpecsValid) {
  auto spec = ScenarioSpec::Parse(kFullScenario);
  ASSERT_TRUE(spec.ok());
  const auto wl = spec->BuildWorkload();
  ASSERT_EQ(wl.arrivals.size(), 50u);
  for (std::size_t i = 0; i < wl.arrivals.size(); ++i) {
    EXPECT_EQ(wl.arrivals[i].spec.id, i + 1);
    if (i > 0) {
      EXPECT_GE(wl.arrivals[i].when, wl.arrivals[i - 1].when);
    }
    EXPECT_TRUE(wl.arrivals[i].spec.Validate().ok());
    EXPECT_LT(wl.arrivals[i].spec.home, spec->engine.num_user_sites);
  }
  // Exactly the 40 'busy' transactions are forced (to PA).
  EXPECT_EQ(wl.forced->size(), 40u);
  for (TxnId id : *wl.forced) {
    const auto& arr = wl.arrivals[id - 1];
    EXPECT_EQ(arr.spec.protocol, Protocol::kPrecedenceAgreement);
    EXPECT_EQ(arr.spec.backoff_interval, 16u);
  }
}

TEST(ScenarioWorkloadTest, PartitionAccessStaysInHomePartition) {
  auto spec = ScenarioSpec::Parse(
      "[engine]\nitems = 100\nuser_sites = 4\n"
      "[class sharded]\ntxns = 60\nrate = 50\nsize = 3\n"
      "access = partition\npartitions = 4\ncross_fraction = 0\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const auto wl = spec->BuildWorkload();
  for (const auto& a : wl.arrivals) {
    const std::uint32_t part = a.spec.home % 4;
    const ItemId lo = static_cast<ItemId>(100ull * part / 4);
    const ItemId hi = static_cast<ItemId>(100ull * (part + 1) / 4);
    for (const auto* set : {&a.spec.read_set, &a.spec.write_set}) {
      for (ItemId item : *set) {
        EXPECT_GE(item, lo);
        EXPECT_LT(item, hi);
      }
    }
  }
}

TEST(ScenarioWorkloadTest, StartOffsetShiftsClassArrivals) {
  auto spec = ScenarioSpec::Parse(
      "[engine]\nitems = 32\n"
      "[class late]\ntxns = 20\nrate = 100\nsize = 2\nstart_ms = 9000\n");
  ASSERT_TRUE(spec.ok());
  const auto wl = spec->BuildWorkload();
  for (const auto& a : wl.arrivals) EXPECT_GE(a.when, 9000000u);
}

// ---------------------------------------------------------------------------
// Phase timelines
// ---------------------------------------------------------------------------

constexpr char kPhasedScenario[] =
    "[engine]\nitems = 64\nseed = 5\n"
    "[policy]\nkind = minstl\nestimator_window_ms = 2500\n"
    "[run]\nwindow_ms = 1000\n"
    "[class main]\ntxns = 300\nrate = 60\nsize = 2\nread_fraction = 0.9\n"
    "[class side]\ntxns = 60\nrate = 12\nsize = 2\n"
    "[phase hot]\nstart_ms = 2000\nrate = 120\nread_fraction = 0.1\n"
    "access = zipf\ntheta = 1.1\nside.protocol = pa\n"
    "[phase cool]\nstart_ms = 4000\nrate = 30\nside.protocol = policy\n";

TEST(ScenarioPhaseTest, ParsesTimelineAndPolicyWindow) {
  auto spec = ScenarioSpec::Parse(kPhasedScenario);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->policy.estimator_window, 2500 * kMillisecond);
  EXPECT_EQ(spec->engine.metrics_window, 1000 * kMillisecond);
  ASSERT_EQ(spec->phases.size(), 2u);
  EXPECT_EQ(spec->phases[0].name, "hot");
  EXPECT_EQ(spec->phases[0].start, 2000 * kMillisecond);
  // 4 plain overrides plus one class-scoped one.
  ASSERT_EQ(spec->phases[0].overrides.size(), 5u);
  EXPECT_EQ(spec->phases[0].overrides[4].class_name, "side");
  EXPECT_EQ(spec->phases[0].overrides[4].entry.key, "protocol");
}

TEST(ScenarioPhaseTest, RejectsBadTimelines) {
  // Missing start_ms.
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[engine]\nitems = 32\n"
                   "[class c]\ntxns = 5\nrate = 10\n"
                   "[phase p]\nrate = 20\n")
                   .ok());
  // Non-increasing starts.
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[engine]\nitems = 32\n"
                   "[class c]\ntxns = 5\nrate = 10\n"
                   "[phase a]\nstart_ms = 2000\nrate = 20\n"
                   "[phase b]\nstart_ms = 2000\nrate = 30\n")
                   .ok());
  // Duplicate phase names.
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[engine]\nitems = 32\n"
                   "[class c]\ntxns = 5\nrate = 10\n"
                   "[phase a]\nstart_ms = 1000\nrate = 20\n"
                   "[phase a]\nstart_ms = 2000\nrate = 30\n")
                   .ok());
  // Unknown class in a scoped override.
  auto bad_class = ScenarioSpec::Parse(
      "[engine]\nitems = 32\n"
      "[class c]\ntxns = 5\nrate = 10\n"
      "[phase p]\nstart_ms = 1000\nnope.rate = 20\n");
  ASSERT_FALSE(bad_class.ok());
  EXPECT_NE(bad_class.status().message().find("unknown class 'nope'"),
            std::string::npos);
  // txns is not phase-overridable.
  auto bad_key = ScenarioSpec::Parse(
      "[engine]\nitems = 32\n"
      "[class c]\ntxns = 5\nrate = 10\n"
      "[phase p]\nstart_ms = 1000\ntxns = 50\n");
  ASSERT_FALSE(bad_key.ok());
  EXPECT_NE(bad_key.status().message().find("not a phase-overridable"),
            std::string::npos);
  // Errors in override values carry the line number.
  auto bad_value = ScenarioSpec::Parse(
      "[engine]\nitems = 32\n"
      "[class c]\ntxns = 5\nrate = 10\n"
      "[phase p]\nstart_ms = 1000\nrate = fast\n");
  ASSERT_FALSE(bad_value.ok());
  EXPECT_NE(bad_value.status().message().find("line 8"), std::string::npos)
      << bad_value.status().ToString();
}

TEST(ScenarioPhaseTest, ValidatesEffectiveConfigPerPhase) {
  // The base class is fine; the phase flips it to a hotspot pattern that
  // cannot fill the transaction size from the hot set.
  auto bad = ScenarioSpec::Parse(
      "[engine]\nitems = 32\n"
      "[class c]\ntxns = 5\nrate = 10\nsize = 4\n"
      "[phase p]\nstart_ms = 1000\naccess = hotspot\nhot_items = 2\n"
      "hot_fraction = 1\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("[phase p]"), std::string::npos);
  // A pure backend rejects a phase forcing a different protocol.
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[engine]\nbackend = pure\nprotocol = to\n"
                   "detector = none\nitems = 32\n"
                   "[policy]\nkind = fixed\nprotocol = to\n"
                   "[class c]\ntxns = 5\nrate = 10\n"
                   "[phase p]\nstart_ms = 1000\nprotocol = 2pl\n")
                   .ok());
}

TEST(ScenarioPhaseTest, OverridesTakeEffectAfterTheBoundary) {
  // Phase flips the mix to pure writes at 2s: arrivals drawn before the
  // boundary are read-heavy, arrivals after are all-write.
  auto spec = ScenarioSpec::Parse(
      "[engine]\nitems = 64\n"
      "[class c]\ntxns = 400\nrate = 100\nsize = 2\nread_fraction = 1\n"
      "[phase writes]\nstart_ms = 2000\nread_fraction = 0\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const auto wl = spec->BuildWorkload();
  const SimTime boundary = 2000 * kMillisecond;
  // One straddling gap is allowed: the first arrival drawn after the
  // clock passes the boundary switches config.
  std::size_t late_reads = 0, early_writes = 0, late = 0, early = 0;
  for (const auto& a : wl.arrivals) {
    if (a.when < boundary) {
      ++early;
      early_writes += !a.spec.write_set.empty();
    } else {
      ++late;
      late_reads += !a.spec.read_set.empty();
    }
  }
  ASSERT_GT(early, 50u);
  ASSERT_GT(late, 50u);
  EXPECT_EQ(early_writes, 0u);
  EXPECT_LE(late_reads, 1u);  // at most the straddling arrival
}

TEST(ScenarioPhaseTest, ScopedOverrideLeavesOtherClassesAlone) {
  auto spec = ScenarioSpec::Parse(
      "[engine]\nitems = 64\n"
      "[class a]\ntxns = 150\nrate = 50\nsize = 2\nread_fraction = 1\n"
      "[class b]\ntxns = 150\nrate = 50\nsize = 2\nread_fraction = 1\n"
      "[phase p]\nstart_ms = 1500\nb.read_fraction = 0\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  // Rebuild per-class membership from the deterministic generators: class
  // a stays all-read even after the boundary, so any write after the
  // boundary (there are some, since b flips) belongs to b.
  const auto wl = spec->BuildWorkload();
  std::size_t writes_after = 0;
  for (const auto& a : wl.arrivals) {
    if (a.when >= 1500 * kMillisecond && !a.spec.write_set.empty()) {
      ++writes_after;
    }
  }
  EXPECT_GT(writes_after, 20u);
  // And re-parsing without the scoped override removes them all.
  auto no_phase = ScenarioSpec::Parse(
      "[engine]\nitems = 64\n"
      "[class a]\ntxns = 150\nrate = 50\nsize = 2\nread_fraction = 1\n"
      "[class b]\ntxns = 150\nrate = 50\nsize = 2\nread_fraction = 1\n");
  ASSERT_TRUE(no_phase.ok());
  for (const auto& a : no_phase->BuildWorkload().arrivals) {
    EXPECT_TRUE(a.spec.write_set.empty());
  }
}

TEST(ScenarioPhaseTest, PhaseForcedProtocolFillsForcedSet) {
  auto spec = ScenarioSpec::Parse(
      "[engine]\nitems = 32\n"
      "[class c]\ntxns = 200\nrate = 100\nsize = 2\n"
      "[phase pin]\nstart_ms = 1000\nprotocol = pa\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const auto wl = spec->BuildWorkload();
  ASSERT_FALSE(wl.forced->empty());
  for (const auto& a : wl.arrivals) {
    const bool is_forced = wl.forced->count(a.spec.id) != 0;
    if (is_forced) {
      EXPECT_EQ(a.spec.protocol, Protocol::kPrecedenceAgreement);
    } else {
      // Unforced arrivals were drawn before the boundary (one straddler
      // tolerated, so compare against the first forced arrival's time).
      EXPECT_LT(a.when, 1100 * kMillisecond);
    }
  }
}

TEST(ScenarioRunTest, ParsesRunControlsAndOpenSystemFlag) {
  auto spec = ScenarioSpec::Parse(
      "[engine]\nitems = 32\n"
      "[run]\nhorizon_ms = 30000\ncommit_target = 500\nmax_inflight = 16\n"
      "[class c]\ntxns = 5\nrate = 10\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->engine.run.time_horizon, 30000u * 1000);
  EXPECT_EQ(spec->engine.run.commit_target, 500u);
  EXPECT_EQ(spec->engine.run.max_inflight, 16u);
  EXPECT_TRUE(spec->IsOpenSystem());

  auto closed = ScenarioSpec::Parse(
      "[engine]\nitems = 32\n"
      "[run]\nwindow_ms = 1000\n"
      "[class c]\ntxns = 5\nrate = 10\n");
  ASSERT_TRUE(closed.ok());
  // A metrics window alone does not make the run open-system.
  EXPECT_FALSE(closed->IsOpenSystem());
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[engine]\nitems = 32\n"
                   "[run]\nbogus = 1\n"
                   "[class c]\ntxns = 5\nrate = 10\n")
                   .ok());
}

TEST(ForcedAwarePolicyTest, ForcedIdsBypassBasePolicy) {
  auto forced = std::make_shared<std::unordered_set<TxnId>>();
  forced->insert(7);
  ProtocolPolicy policy = ForcedAwarePolicy(
      FixedProtocol(Protocol::kTimestampOrdering), forced);
  TxnSpec spec;
  spec.id = 7;
  spec.protocol = Protocol::kPrecedenceAgreement;
  EXPECT_EQ(policy(spec), Protocol::kPrecedenceAgreement);
  spec.id = 8;
  EXPECT_EQ(policy(spec), Protocol::kTimestampOrdering);
  // Null base behaves like the trace policy for unforced transactions.
  ProtocolPolicy as_is = ForcedAwarePolicy(nullptr, forced);
  EXPECT_EQ(as_is(spec), Protocol::kPrecedenceAgreement);
}

// ---------------------------------------------------------------------------
// Tables, scale factor, and scans (macro scenarios)
// ---------------------------------------------------------------------------

constexpr char kTabledScenario[] =
    "[scenario]\nscale_factor = 3\n"
    "[engine]\nuser_sites = 4\n"
    "[table small]\nrows = 10\n"
    "[table big]\nrows = 100\n"
    "[table meta]\nrows = 7\nscale = false\n"
    "[class on_small]\ntxns = 20\nrate = 50\nsize = 2\ntable = small\n"
    "[class on_big]\ntxns = 20\nrate = 50\nsize = 2\ntable = big\n";

TEST(ScenarioTableTest, LaysOutTablesAndScalesRows) {
  auto spec = ScenarioSpec::Parse(kTabledScenario);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  ASSERT_EQ(spec->tables.size(), 3u);
  // Contiguous in declaration order; rows scale by scale_factor unless
  // the table opts out with scale = false.
  EXPECT_EQ(spec->tables[0].first, 0u);
  EXPECT_EQ(spec->tables[0].effective_rows, 30u);
  EXPECT_EQ(spec->tables[1].first, 30u);
  EXPECT_EQ(spec->tables[1].effective_rows, 300u);
  EXPECT_EQ(spec->tables[2].first, 330u);
  EXPECT_EQ(spec->tables[2].effective_rows, 7u);
  EXPECT_EQ(spec->engine.num_items, 337u);
  // Class bindings resolve to the table's item range.
  EXPECT_EQ(spec->classes[0].range_first, 0u);
  EXPECT_EQ(spec->classes[0].range_items, 30u);
  EXPECT_EQ(spec->classes[1].range_first, 30u);
  EXPECT_EQ(spec->classes[1].range_items, 300u);
}

TEST(ScenarioTableTest, BoundClassesDrawOnlyFromTheirTable) {
  auto spec = ScenarioSpec::Parse(kTabledScenario);
  ASSERT_TRUE(spec.ok());
  const auto wl = spec->BuildWorkload();
  ASSERT_FALSE(wl.arrivals.empty());
  bool any_big = false;
  for (const auto& a : wl.arrivals) {
    for (const auto* set : {&a.spec.read_set, &a.spec.write_set}) {
      for (ItemId item : *set) {
        EXPECT_LT(item, 330u);  // nobody is bound to [table meta]
        if (item >= 30) any_big = true;
      }
    }
  }
  EXPECT_TRUE(any_big);
}

TEST(ScenarioTableTest, UnboundClassSpansAllTables) {
  auto spec = ScenarioSpec::Parse(
      "[table t]\nrows = 40\n"
      "[class everywhere]\ntxns = 10\nrate = 50\nsize = 2\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->engine.num_items, 40u);
  EXPECT_EQ(spec->classes[0].range_first, 0u);
  EXPECT_EQ(spec->classes[0].range_items, 0u);  // 0 = whole keyspace
}

TEST(ScenarioTableTest, RejectsBadTableConfigs) {
  // Duplicate table name.
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[table t]\nrows = 10\n[table t]\nrows = 10\n"
                   "[class c]\ntxns = 5\nrate = 10\n")
                   .ok());
  // rows is mandatory and must be >= 1.
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[table t]\nscale = false\n"
                   "[class c]\ntxns = 5\nrate = 10\n")
                   .ok());
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[table t]\nrows = 0\n"
                   "[class c]\ntxns = 5\nrate = 10\n")
                   .ok());
  // Explicit [engine] items conflicts with a table-derived keyspace.
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[engine]\nitems = 32\n[table t]\nrows = 10\n"
                   "[class c]\ntxns = 5\nrate = 10\n")
                   .ok());
  // Binding to a table that does not exist.
  auto unknown = ScenarioSpec::Parse(
      "[table t]\nrows = 10\n"
      "[class c]\ntxns = 5\nrate = 10\ntable = nope\n");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("unknown table"),
            std::string::npos);
  // Binding when no tables were declared at all.
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[engine]\nitems = 32\n"
                   "[class c]\ntxns = 5\nrate = 10\ntable = t\n")
                   .ok());
  // scale_factor must be >= 1.
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[scenario]\nscale_factor = 0\n[table t]\nrows = 10\n"
                   "[class c]\ntxns = 5\nrate = 10\n")
                   .ok());
  // Transaction size cannot exceed the bound table's range.
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[table tiny]\nrows = 2\n[table pad]\nrows = 100\n"
                   "[class c]\ntxns = 5\nrate = 10\nsize = 5\ntable = tiny\n")
                   .ok());
}

TEST(ScenarioScanTest, ParsesAndValidatesScanKnobs) {
  auto spec = ScenarioSpec::Parse(
      "[engine]\nitems = 64\n"
      "[class c]\ntxns = 5\nrate = 10\nscan_fraction = 0.25\nscan_max = 16\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->classes[0].scan_fraction, 0.25);
  EXPECT_EQ(spec->classes[0].scan_max, 16u);
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[engine]\nitems = 64\n"
                   "[class c]\ntxns = 5\nrate = 10\nscan_fraction = 1.5\n")
                   .ok());
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[engine]\nitems = 64\n"
                   "[class c]\ntxns = 5\nrate = 10\nscan_max = 0\n")
                   .ok());
  // scan_max larger than the class's item range is rejected, including
  // against a bound table's range.
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[engine]\nitems = 64\n"
                   "[class c]\ntxns = 5\nrate = 10\n"
                   "scan_fraction = 0.1\nscan_max = 65\n")
                   .ok());
  EXPECT_FALSE(ScenarioSpec::Parse(
                   "[table t]\nrows = 8\n[table pad]\nrows = 100\n"
                   "[class c]\ntxns = 5\nrate = 10\ntable = t\n"
                   "scan_fraction = 0.1\nscan_max = 9\n")
                   .ok());
}

TEST(ScenarioScanTest, ScansAreContiguousReadOnlyAndInRange) {
  auto spec = ScenarioSpec::Parse(
      "[table front]\nrows = 50\n"
      "[table data]\nrows = 200\n"
      "[class scans]\ntxns = 300\nrate = 200\nsize = 1\ntable = data\n"
      "read_fraction = 0\nscan_fraction = 1\nscan_max = 12\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const auto wl = spec->BuildWorkload();
  ASSERT_EQ(wl.arrivals.size(), 300u);
  bool any_multi = false;
  for (const auto& a : wl.arrivals) {
    // scan_fraction = 1: every transaction is a scan — read-only even
    // though read_fraction is 0, and a contiguous run inside [50, 250).
    EXPECT_TRUE(a.spec.write_set.empty());
    ASSERT_FALSE(a.spec.read_set.empty());
    ASSERT_LE(a.spec.read_set.size(), 12u);
    if (a.spec.read_set.size() > 1) any_multi = true;
    EXPECT_GE(a.spec.read_set.front(), 50u);
    EXPECT_LT(a.spec.read_set.back(), 250u);
    for (std::size_t i = 1; i < a.spec.read_set.size(); ++i) {
      EXPECT_EQ(a.spec.read_set[i], a.spec.read_set[i - 1] + 1);
    }
  }
  EXPECT_TRUE(any_multi);
}

TEST(ScenarioScanTest, ScanFractionIsPhaseOverridable) {
  auto spec = ScenarioSpec::Parse(
      "[engine]\nitems = 256\n"
      "[class c]\ntxns = 400\nrate = 100\nsize = 1\nread_fraction = 0\n"
      "[phase scans]\nstart_ms = 2000\nscan_fraction = 1\nscan_max = 8\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const auto wl = spec->BuildWorkload();
  const SimTime boundary = 2000 * kMillisecond;
  std::size_t early_scans = 0, late_writes = 0, late = 0;
  for (const auto& a : wl.arrivals) {
    if (a.when < boundary) {
      early_scans += !a.spec.read_set.empty();
    } else {
      ++late;
      late_writes += !a.spec.write_set.empty();
    }
  }
  ASSERT_GT(late, 50u);
  EXPECT_EQ(early_scans, 0u);   // pure writes before the boundary
  EXPECT_LE(late_writes, 1u);   // all scans after (one straddler allowed)
}

TEST(ScenarioTableTest, TabledWorkloadIsDeterministic) {
  auto spec = ScenarioSpec::Parse(kTabledScenario);
  ASSERT_TRUE(spec.ok());
  const auto a = spec->BuildWorkload();
  const auto b = ScenarioSpec::Parse(kTabledScenario)->BuildWorkload();
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].when, b.arrivals[i].when);
    EXPECT_EQ(a.arrivals[i].spec.read_set, b.arrivals[i].spec.read_set);
    EXPECT_EQ(a.arrivals[i].spec.write_set, b.arrivals[i].spec.write_set);
  }
}

// ---------------------------------------------------------------------------
// Generator primitives
// ---------------------------------------------------------------------------

TEST(ArrivalProcessTest, PoissonGapsArePositiveWithRightMean) {
  Rng rng(123);
  auto proc = MakePoissonArrivals(100);  // mean gap 10ms = 10000us
  double sum = 0;
  for (int i = 0; i < 4000; ++i) {
    const double gap = proc->NextGapUs(rng);
    ASSERT_GT(gap, 0);
    sum += gap;
  }
  EXPECT_NEAR(sum / 4000, 10000, 600);
}

TEST(ArrivalProcessTest, OnOffBurstsBeatThePoissonMeanRate) {
  Rng rng(5);
  // 1s bursts at 200/s separated by 4s of silence: long-run mean 40/s,
  // but gaps inside a burst are ~5ms while silent stretches are ~4s.
  auto proc = MakeOnOffArrivals(200, 0, 1e6, 4e6);
  int small_gaps = 0, huge_gaps = 0;
  for (int i = 0; i < 2000; ++i) {
    const double gap = proc->NextGapUs(rng);
    ASSERT_GT(gap, 0);
    if (gap < 50e3) ++small_gaps;
    if (gap > 1e6) ++huge_gaps;
  }
  EXPECT_GT(small_gaps, 1500);  // most arrivals are inside bursts
  EXPECT_GT(huge_gaps, 2);      // but silent stretches do occur
}

TEST(AccessPatternTest, HotspotConcentratesOnHotSet) {
  Rng rng(9);
  auto access = MakeHotspotAccess(1000, 10, 0.9);
  int hot = 0;
  for (int i = 0; i < 5000; ++i) {
    const ItemId item = access->Next(rng, 0);
    ASSERT_LT(item, 1000u);
    if (item < 10) ++hot;
  }
  EXPECT_NEAR(hot / 5000.0, 0.9, 0.03);
}

TEST(AccessPatternTest, PartitionedRespectsCrossFraction) {
  Rng rng(17);
  auto access = MakePartitionedAccess(100, 4, 0.2);
  int inside = 0;
  for (int i = 0; i < 5000; ++i) {
    const ItemId item = access->Next(rng, 2);  // partition 2 = [50, 75)
    ASSERT_LT(item, 100u);
    if (item >= 50 && item < 75) ++inside;
  }
  EXPECT_NEAR(inside / 5000.0, 0.8, 0.03);
}

}  // namespace
}  // namespace unicc
