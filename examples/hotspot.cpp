// Hotspot: Zipf-skewed access makes a few items extremely popular. Shows
// how contention-sensitive each protocol is and that correctness holds on
// pathological access patterns.
//
//   ./examples/hotspot
#include <cstdio>
#include <memory>

#include "engine/builder.h"
#include "scenario/scenario.h"

int main() {
  using namespace unicc;

  std::printf("theta  protocol  mean S[ms]  p95[ms]  anomalies\n");
  for (double theta : {0.0, 0.8, 1.2}) {
    for (Protocol p :
         {Protocol::kTwoPhaseLocking, Protocol::kTimestampOrdering,
          Protocol::kPrecedenceAgreement}) {
      EngineOptions options;
      options.num_user_sites = 3;
      options.num_data_sites = 3;
      options.num_items = 100;
      options.network.base_delay = 5 * kMillisecond;
      options.network.jitter_mean = 2 * kMillisecond;
      options.seed = 31;
      const std::unique_ptr<Engine> engine =
          EngineBuilder(options)
              .WithProtocolPolicy(FixedProtocol(p))
              .Build()
              .value();

      ScenarioClass hot;
      hot.txns = 300;
      hot.rate = 60;
      hot.size_min = 3;
      hot.size_max = 3;
      hot.read_fraction = 0.5;
      hot.access = ScenarioClass::AccessKind::kZipf;
      hot.theta = theta;
      hot.compute_time = 3 * kMillisecond;
      auto stream =
          OpenClass(hot, options.num_items, options.num_user_sites, Rng(7));
      Arrival a;
      while (stream->Next(&a)) {
        if (!engine->AddTransaction(a.when, a.spec).ok()) return 1;
      }
      const RunSummary s = engine->Run();
      if (!engine->CheckSerializability().serializable) {
        std::printf("NOT SERIALIZABLE\n");
        return 1;
      }
      std::printf("%5.1f  %-8s  %10.2f  %7.2f  %llu\n", theta,
                  std::string(ProtocolName(p)).c_str(),
                  engine->metrics().MeanSystemTimeMs(),
                  engine->metrics().SystemTime().PercentileMs(95),
                  static_cast<unsigned long long>(
                      s.deadlock_victims + s.reject_restarts +
                      s.backoff_rounds));
    }
  }
  std::printf(
      "\nSkew (theta) concentrates conflicts on a few hot items; anomaly\n"
      "counts rise with theta while every run stays serializable.\n");
  return 0;
}
