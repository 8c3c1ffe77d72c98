// Dynamic selection: the min-STL selector adapting the per-transaction
// concurrency control choice as the load shifts from light to heavy
// (Section 5 of the paper). Prints the protocols chosen in each phase and
// the resulting system times.
//
//   ./examples/dynamic_selection
#include <cstdio>
#include <memory>

#include "engine/builder.h"
#include "scenario/scenario.h"
#include "selector/selector.h"
#include "stl/estimators.h"

int main() {
  using namespace unicc;

  EngineOptions options;
  options.num_user_sites = 4;
  options.num_data_sites = 4;
  options.num_items = 120;
  options.network.base_delay = 10 * kMillisecond;
  options.network.jitter_mean = 2 * kMillisecond;
  options.seed = 7;

  // Wire the parameter estimator into the engine's event hooks.
  ParamEstimator estimator;
  EngineCallbacks callbacks;
  callbacks.on_commit = [&](const TxnResult& r) { estimator.OnCommit(r); };
  callbacks.on_request_sent = [&](Protocol p, OpType op) {
    estimator.OnRequestSent(p, op);
  };
  callbacks.on_lock_hold = [&](Protocol p, Duration d, bool a) {
    estimator.OnLockHold(p, d, a);
  };
  callbacks.on_restart = [&](Protocol p, TxnOutcome w) {
    estimator.OnRestart(p, w);
  };
  callbacks.on_grant = [&](const CopyId&, OpType op, Protocol) {
    estimator.OnGrant(op);
  };
  callbacks.on_reject = [&](OpType op, Protocol p) {
    estimator.OnReject(op, p);
  };
  callbacks.on_backoff_offer = [&](OpType op) {
    estimator.OnBackoffOffer(op);
  };

  // The selector reads the engine's clock, so it is created after the
  // engine; the policy forwards to it.
  std::unique_ptr<MinStlSelector> selector;
  const std::unique_ptr<Engine> engine =
      EngineBuilder(options)
          .WithCallbacks(callbacks)
          .WithProtocolPolicy([&selector](const TxnSpec& spec) {
            return selector->Choose(spec);
          })
          .Build()
          .value();
  selector = std::make_unique<MinStlSelector>(&engine->simulator(),
                                              &estimator, options.num_items);

  // Phase 1: light load (5 tx/s for 20 s). Phase 2: heavy (60 tx/s).
  ScenarioClass light;
  light.txns = 100;
  light.rate = 5;
  light.size_min = 3;
  light.size_max = 5;
  light.access = ScenarioClass::AccessKind::kZipf;  // theta 0: uniform
  auto phase1 =
      OpenClass(light, options.num_items, options.num_user_sites, Rng(1));
  Arrival a;
  while (phase1->Next(&a)) {
    if (!engine->AddTransaction(a.when, a.spec).ok()) return 1;
  }
  ScenarioClass heavy = light;
  heavy.txns = 300;
  heavy.rate = 60;
  auto phase2 =
      OpenClass(heavy, options.num_items, options.num_user_sites, Rng(2));
  // Offset phase-2 ids and arrival times past phase 1.
  const SimTime phase2_start = 25 * kSecond;
  TxnId next_id = 101;
  while (phase2->Next(&a)) {
    a.spec.id = next_id++;
    if (!engine->AddTransaction(phase2_start + a.when, a.spec).ok()) {
      return 1;
    }
  }

  const RunSummary summary = engine->Run();

  std::printf("committed: %llu, mean S: %.2f ms, serializable: %s\n",
              static_cast<unsigned long long>(summary.committed),
              summary.mean_system_time_ms,
              engine->CheckSerializability().serializable ? "yes" : "NO");
  std::printf("\nselector decisions over the whole run:\n");
  for (Protocol p :
       {Protocol::kTwoPhaseLocking, Protocol::kTimestampOrdering,
        Protocol::kPrecedenceAgreement}) {
    std::printf("  %-4s chosen %llu times (committed %llu, mean S %.2f ms)\n",
                std::string(ProtocolName(p)).c_str(),
                static_cast<unsigned long long>(selector->selections(p)),
                static_cast<unsigned long long>(
                    engine->metrics().ForProtocol(p).committed),
                engine->metrics().ForProtocol(p).system_time.MeanMs());
  }
  std::printf("\ncurrent STL estimates for a 2-read/2-write transaction:\n");
  const auto stl = selector->EstimateFor(TxnShape{2, 2});
  std::printf("  STL_2PL=%.4f  STL_T/O=%.4f  STL_PA=%.4f\n", stl.stl_2pl,
              stl.stl_to, stl.stl_pa);
  return 0;
}
