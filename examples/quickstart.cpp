// Quickstart: build a small distributed database, run a handful of
// transactions under all three protocols through the unified concurrency
// control system, and verify the execution is conflict serializable.
//
//   ./examples/quickstart
#include <cstdio>
#include <memory>

#include "engine/builder.h"

int main() {
  using namespace unicc;

  // A cluster with 2 user sites, 3 data sites and 16 logical items.
  EngineOptions options;
  options.num_user_sites = 2;
  options.num_data_sites = 3;
  options.num_items = 16;
  options.network.base_delay = 10 * kMillisecond;
  options.seed = 2024;

  // Build() validates the options; value() aborts on a bad configuration.
  const std::unique_ptr<Engine> engine = EngineBuilder(options).Build().value();

  // Three concurrent transactions, one per protocol, touching overlapping
  // items. Each transaction declares its read set and write set up front
  // (static / predeclared access sets, as the paper assumes).
  TxnSpec t1;
  t1.id = 1;
  t1.home = 0;
  t1.protocol = Protocol::kTwoPhaseLocking;
  t1.read_set = {0, 1};
  t1.write_set = {2};
  t1.compute_time = 3 * kMillisecond;

  TxnSpec t2;
  t2.id = 2;
  t2.home = 1;
  t2.protocol = Protocol::kTimestampOrdering;
  t2.read_set = {2};
  t2.write_set = {3, 4};
  t2.compute_time = 3 * kMillisecond;

  TxnSpec t3;
  t3.id = 3;
  t3.home = 0;
  t3.protocol = Protocol::kPrecedenceAgreement;
  t3.read_set = {3};
  t3.write_set = {0};
  t3.compute_time = 3 * kMillisecond;

  // t2 writes item 3 with a computed value; the others default to writing
  // their transaction id.
  const ComputeFn t2_writes = [](const auto& reads) {
    std::vector<std::pair<ItemId, std::uint64_t>> writes;
    writes.emplace_back(3, reads.at(2) + 100);  // derive from what it read
    writes.emplace_back(4, 7);
    return writes;
  };

  for (const TxnSpec& t : {t1, t2, t3}) {
    const Status s = engine->AddTransaction(/*when=*/0, t,
                                            t.id == 2 ? t2_writes : nullptr);
    if (!s.ok()) {
      std::fprintf(stderr, "admission failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  const RunSummary summary = engine->Run();
  std::printf("committed        : %llu/%llu transactions\n",
              static_cast<unsigned long long>(summary.committed),
              static_cast<unsigned long long>(summary.admitted));
  std::printf("makespan         : %.1f ms (simulated)\n",
              static_cast<double>(summary.makespan) / kMillisecond);
  std::printf("messages         : %llu (%llu remote)\n",
              static_cast<unsigned long long>(summary.total_messages),
              static_cast<unsigned long long>(summary.remote_messages));

  // The engine checks serializability online, as operations are
  // implemented, and keeps only transactions that could still join a
  // conflict cycle; so it reports a verdict, not a witness order.
  const SerializabilityReport report = engine->CheckSerializability();
  std::printf("serializable     : %s\n", report.serializable ? "yes" : "NO");
  std::printf("txns checked     : %zu\n", report.num_txns);
  for (ItemId item : {0u, 2u, 3u, 4u}) {
    std::printf("item %u final value: %llu\n", item,
                static_cast<unsigned long long>(
                    engine->ReadReplicas(item)[0]));
  }
  return report.serializable ? 0 : 1;
}
