// Randomized fault-schedule fuzzing: safety under faults.
//
// Each fuzz seed deterministically derives a full run configuration —
// workload shape, topology tier, protocol policy, message-fault rates,
// crash schedule, overload controls — runs it to completion and checks the
// safety oracle: the run drains (every admitted transaction commits),
// the committed history is serializable, all replicas converge and the
// run passes its own accounting checks. A
// subset of seeds is run twice and must be byte-identical (faults do not
// weaken the determinism contract).
//
// The corpus below is the committed regression set: it always runs, so a
// schedule that once found a bug keeps guarding against it. The sweep
// size is environment-tunable:
//   UNICC_FAULT_FUZZ_ITERS — number of random schedules (default 25; the
//                            nightly CI job runs 500)
//   UNICC_FAULT_FUZZ_LOG   — file to append failing seeds to (the
//                            nightly job uploads it as an artifact)
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner/runner.h"
#include "scenario/scenario.h"

namespace unicc {
namespace {

using runner::RunReport;
using runner::RunRequest;
using runner::RunSession;

// splitmix64: one independent draw stream per fuzz seed.
std::uint64_t Next(std::uint64_t* s) {
  *s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = *s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Pick(std::uint64_t* s, std::uint64_t n) {
  return Next(s) % n;
}

// Derives the run configuration for one fuzz seed. Every knob draw is
// positional in `seed`, so a corpus entry reproduces its exact schedule
// forever.
ScenarioSpec SpecForSeed(std::uint64_t seed) {
  std::uint64_t s = seed;
  ScenarioSpec spec;
  spec.name = "fault-fuzz-" + std::to_string(seed);

  EngineOptions& eo = spec.engine;
  eo.num_user_sites = 4;
  eo.num_data_sites = 4;
  eo.num_items = 32 + static_cast<ItemId>(Pick(&s, 3)) * 32;
  eo.network.base_delay = 5 * kMillisecond;
  eo.network.jitter_mean = 2 * kMillisecond;
  eo.seed = Next(&s);
  // Liveness knobs are always on: any fuzzed schedule may lose messages.
  eo.request_timeout = 400 * kMillisecond;
  eo.central_detector.round_timeout = 300 * kMillisecond;
  // Discarded: this draw once picked the deadlock detector, and keeping it
  // keeps every corpus seed's schedule.
  (void)Pick(&s, 4);

  // Topology: flat mesh, 2-region WAN or 3-region geo spread.
  FaultOptions& fault = eo.fault;
  fault.seed = Next(&s);
  switch (Pick(&s, 3)) {
    case 0:
      break;  // flat mesh
    case 1:
      fault.regions = 2;
      fault.lan_delay = 2 * kMillisecond;
      fault.wan_delay = 20 * kMillisecond;
      fault.wan_jitter = 4 * kMillisecond;
      break;
    default:
      fault.regions = 3;
      fault.lan_delay = 2 * kMillisecond;
      fault.wan_delay = 20 * kMillisecond;
      fault.geo_delay = 60 * kMillisecond;
      fault.geo_jitter = 8 * kMillisecond;
      break;
  }
  if (fault.regions > 0 && Pick(&s, 2) == 0) {
    fault.placement = FaultOptions::Placement::kInterleave;
  }

  // Message faults.
  static constexpr double kLoss[] = {0, 0.02, 0.05, 0.1};
  static constexpr double kDup[] = {0, 0.05, 0.2};
  fault.loss = kLoss[Pick(&s, 4)];
  fault.duplicate = kDup[Pick(&s, 3)];
  if (Pick(&s, 2) == 0) {
    fault.reorder = 0.3;
    fault.reorder_delay = 15 * kMillisecond;
  }

  // Crash schedule: up to two fail-stop outages on user or data sites.
  const std::uint64_t crashes = Pick(&s, 3);
  for (std::uint64_t i = 0; i < crashes; ++i) {
    CrashEvent c;
    c.site = static_cast<SiteId>(Pick(&s, 8));
    c.at = (500 + Pick(&s, 2500)) * kMillisecond;
    c.down = (100 + Pick(&s, 700)) * kMillisecond;
    fault.crashes.push_back(c);
  }

  // Protocol policy: fixed single-protocol or the full unified mix.
  switch (Pick(&s, 4)) {
    case 0:
      spec.policy.kind = ScenarioPolicy::Kind::kFixed;
      spec.policy.fixed = Protocol::kTwoPhaseLocking;
      break;
    case 1:
      spec.policy.kind = ScenarioPolicy::Kind::kFixed;
      spec.policy.fixed = Protocol::kTimestampOrdering;
      break;
    case 2:
      spec.policy.kind = ScenarioPolicy::Kind::kFixed;
      spec.policy.fixed = Protocol::kPrecedenceAgreement;
      break;
    default:
      spec.policy.kind = ScenarioPolicy::Kind::kMix;
      spec.policy.weights[0] = 1;
      spec.policy.weights[1] = 1;
      spec.policy.weights[2] = 1;
      break;
  }

  // Workload: one closed-batch class.
  ScenarioClass cls;
  cls.name = "fuzz";
  cls.txns = 120;
  cls.rate = 25 + static_cast<double>(Pick(&s, 36));
  cls.size_min = 2;
  cls.size_max = 4;
  cls.read_fraction = Pick(&s, 2) == 0 ? 0.5 : 0.8;
  cls.compute_time = 3 * kMillisecond;
  switch (Pick(&s, 3)) {
    case 0:
      break;  // uniform
    case 1:
      cls.access = ScenarioClass::AccessKind::kZipf;
      cls.theta = 0.8;
      break;
    default:
      cls.access = ScenarioClass::AccessKind::kPartition;
      cls.partitions = 4;
      cls.cross_fraction = 0.1;
      break;
  }
  spec.classes.push_back(cls);

  // Retired draw: it once picked a shard count. Consuming it keeps every
  // later positional draw, and so every corpus seed's workload and fault
  // schedule, in place.
  (void)Pick(&s, 4);

  // Overload-control draws ride along at the END of the positional
  // stream, so every pre-existing corpus schedule is reproduced exactly.
  // A third of schedules engage the bounded admission gate.
  const std::uint64_t overload = Pick(&s, 3);
  const std::uint64_t mpl = 2 + Pick(&s, 6);
  const std::uint64_t qlimit = 2 + Pick(&s, 8);
  const std::uint64_t shed_draw = Pick(&s, 3);
  const std::uint64_t retry_draw = Pick(&s, 2);
  const Duration deadline = (300 + Pick(&s, 500)) * kMillisecond;
  if (overload == 0) {
    eo.run.max_inflight = static_cast<std::uint32_t>(mpl);
    eo.run.queue_limit = static_cast<std::uint32_t>(qlimit);
    eo.run.shed_policy = shed_draw == 0   ? ShedPolicy::kDropNewest
                         : shed_draw == 1 ? ShedPolicy::kDropOldest
                                          : ShedPolicy::kDeadline;
    if (retry_draw == 0) {
      eo.run.retry_limit = 2;
      eo.run.retry_delay = 20 * kMillisecond;
      eo.run.retry_max_delay = 100 * kMillisecond;
    }
    spec.classes[0].deadline = deadline;
  }
  return spec;
}

std::string Snapshot(const runner::RunStats& st) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "committed=%llu makespan=%llu messages=%llu victims=%llu "
      "rejects=%llu backoffs=%llu shed=%llu expired=%llu retried=%llu "
      "goodput=%llu mean_s=%.17g",
      static_cast<unsigned long long>(st.committed),
      static_cast<unsigned long long>(st.makespan),
      static_cast<unsigned long long>(st.total_messages),
      static_cast<unsigned long long>(st.deadlock_victims),
      static_cast<unsigned long long>(st.reject_restarts),
      static_cast<unsigned long long>(st.backoff_rounds),
      static_cast<unsigned long long>(st.shed),
      static_cast<unsigned long long>(st.expired),
      static_cast<unsigned long long>(st.retried),
      static_cast<unsigned long long>(st.goodput), st.mean_s_ms);
  return std::string(buf);
}

// Runs one fuzz seed and checks the safety oracle. Returns an empty
// string on success, else the failure description.
std::string CheckSeed(std::uint64_t seed, bool run_twice) {
  const ScenarioSpec spec = SpecForSeed(seed);
  // The session runs the scenario's own workload, as unicc_sim does:
  // overload schedules stream it through the gate, closed ones admit it as
  // a batch.
  auto run = [&]() -> RunReport {
    RunRequest request;
    request.spec = &spec;
    auto session = RunSession::Create(std::move(request));
    if (!session.ok()) {
      ADD_FAILURE() << "seed " << seed << ": "
                    << session.status().ToString();
      return RunReport{};
    }
    return (*session)->Run();
  };

  const RunReport report = run();
  std::string why;
  // Drain oracle. Batch: everything commits. Open-system with a shedding
  // gate: each offered transaction terminates exactly once — committed,
  // expired, or shed without retry budget (a retried shed re-enters).
  const runner::RunStats& st = report.stats;
  const std::uint64_t accounted =
      st.committed + st.expired + (st.shed - st.retried);
  if (accounted != spec.TotalTxns()) {
    why += " run did not drain (committed " + std::to_string(st.committed) +
           " expired " + std::to_string(st.expired) + " shed " +
           std::to_string(st.shed) + " retried " + std::to_string(st.retried) +
           " of " + std::to_string(spec.TotalTxns()) + ")";
  }
  if (!report.stats.serializable) why += " history not serializable";
  if (!report.stats.replicas_consistent) why += " replicas diverged";
  // The run's own checks: accounting identities and the serializability
  // checker's books (RunSession's CheckAccounting).
  if (!report.status.ok()) why += " " + report.status.ToString();
  if (run_twice && why.empty()) {
    const RunReport again = run();
    if (Snapshot(report.stats) != Snapshot(again.stats)) {
      why += " repeated run diverged: " + Snapshot(report.stats) +
             " vs " + Snapshot(again.stats);
    }
  }
  return why;
}

void LogFailingSeed(std::uint64_t seed, const std::string& why) {
  const char* path = std::getenv("UNICC_FAULT_FUZZ_LOG");
  if (path == nullptr || *path == '\0') return;
  if (std::FILE* f = std::fopen(path, "a")) {
    std::fprintf(f, "%llu%s\n", static_cast<unsigned long long>(seed),
                 why.c_str());
    std::fclose(f);
  }
}

// The committed regression corpus. Every entry is a schedule that runs on
// each ctest invocation; seeds that ever expose a bug get appended here.
constexpr std::uint64_t kCorpus[] = {
    1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12, 13, 14, 15, 16,
    17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
};

TEST(FaultFuzzTest, RegressionCorpusStaysGreen) {
  int i = 0;
  for (std::uint64_t seed : kCorpus) {
    const std::string why = CheckSeed(seed, /*run_twice=*/i % 8 == 0);
    if (!why.empty()) LogFailingSeed(seed, why);
    EXPECT_TRUE(why.empty()) << "corpus seed " << seed << ":" << why;
    ++i;
  }
}

TEST(FaultFuzzTest, RandomScheduleSweepHoldsSafetyOracle) {
  std::uint64_t iters = 25;
  if (const char* env = std::getenv("UNICC_FAULT_FUZZ_ITERS")) {
    const unsigned long long v = std::strtoull(env, nullptr, 10);
    if (v > 0) iters = v;
  }
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t seed = 0xf00dULL + 33 + i;  // disjoint from corpus
    const std::string why = CheckSeed(seed, /*run_twice=*/i % 10 == 0);
    if (!why.empty()) LogFailingSeed(seed, why);
    EXPECT_TRUE(why.empty()) << "fuzz seed " << seed << ":" << why;
  }
}

}  // namespace
}  // namespace unicc
