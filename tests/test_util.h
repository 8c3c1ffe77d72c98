// Shared helpers for unicc tests.
#ifndef UNICC_TESTS_TEST_UTIL_H_
#define UNICC_TESTS_TEST_UTIL_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "engine/builder.h"
#include "scenario/scenario.h"
#include "workload/stream.h"

namespace unicc::test {

// Engine options sized for fast deterministic tests.
inline EngineOptions SmallEngine(std::uint64_t seed = 7) {
  EngineOptions o;
  o.num_user_sites = 3;
  o.num_data_sites = 3;
  o.num_items = 32;
  o.replication = 1;
  o.network.base_delay = 5 * kMillisecond;
  o.network.jitter_mean = 0;
  o.seed = seed;
  return o;
}

// A small workload class: 2-4 items, half reads, 2 ms compute, 40
// arrivals/s, uniform popularity drawn as a Zipf CDF walk at theta = 0.
inline ScenarioClass SmallWorkload(std::uint64_t num_txns = 100) {
  ScenarioClass c;
  c.txns = num_txns;
  c.rate = 40;
  c.size_min = 2;
  c.size_max = 4;
  c.read_fraction = 0.5;
  c.access = ScenarioClass::AccessKind::kZipf;
  c.compute_time = 2 * kMillisecond;
  return c;
}

// Every arrival `stream` has left, in order.
inline std::vector<Arrival> Drain(ArrivalStream& stream) {
  std::vector<Arrival> out;
  Arrival a;
  while (stream.Next(&a)) out.push_back(std::move(a));
  return out;
}

// Class `c` drawn over `eo`'s items and user sites from `rng`.
inline std::vector<Arrival> DrawClass(const ScenarioClass& c,
                                      const EngineOptions& eo, Rng rng) {
  return Drain(*OpenClass(c, eo.num_items, eo.num_user_sites, rng));
}

// An engine plus the summary of its completed run.
struct WorkloadRun {
  std::unique_ptr<Engine> engine;
  RunSummary summary;
};

// Runs class `wo`, admitted as one batch, to completion.
inline WorkloadRun RunWorkload(const EngineOptions& eo,
                               const ScenarioClass& wo,
                               ProtocolPolicy policy) {
  WorkloadRun run;
  run.engine =
      EngineBuilder(eo).WithProtocolPolicy(std::move(policy)).Build().value();
  const std::vector<Arrival> arrivals =
      DrawClass(wo, eo, Rng(eo.seed ^ 0x9e3779b9));
  UNICC_CHECK(run.engine->AddWorkload(arrivals).ok());
  run.summary = run.engine->Run();
  return run;
}

}  // namespace unicc::test

#endif  // UNICC_TESTS_TEST_UTIL_H_
