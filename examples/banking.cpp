// Banking: money transfers between replicated accounts under a mixed
// protocol population. Demonstrates real read-compute-write transactions
// through the public API and verifies conservation of money — any
// serializability violation would show up as a wrong total.
//
//   ./examples/banking
#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "engine/builder.h"

namespace {
constexpr unicc::ItemId kAccounts = 24;
constexpr std::uint64_t kInitial = 1'000;
constexpr unicc::TxnId kTransfers = 300;
}  // namespace

int main() {
  using namespace unicc;

  EngineOptions options;
  options.num_user_sites = 4;
  options.num_data_sites = 4;
  options.num_items = kAccounts;
  options.replication = 2;  // each account stored at two sites
  options.network.base_delay = 8 * kMillisecond;
  options.network.jitter_mean = 2 * kMillisecond;
  options.seed = 99;

  const std::unique_ptr<Engine> engine = EngineBuilder(options).Build().value();
  Rng rng(42);

  // Fund all accounts in one initial transaction.
  TxnSpec fund;
  fund.id = 1;
  fund.home = 0;
  fund.protocol = Protocol::kTwoPhaseLocking;
  for (ItemId a = 0; a < kAccounts; ++a) fund.write_set.push_back(a);
  const ComputeFn open_accounts = [](const auto&) {
    std::vector<std::pair<ItemId, std::uint64_t>> writes;
    for (ItemId a = 0; a < kAccounts; ++a) writes.emplace_back(a, kInitial);
    return writes;
  };
  if (!engine->AddTransaction(0, fund, open_accounts).ok()) return 1;

  // Random transfers; each reads both balances and moves 1-50 units if the
  // source can cover it. Protocols are mixed per transaction.
  const Protocol protos[] = {Protocol::kTwoPhaseLocking,
                             Protocol::kTimestampOrdering,
                             Protocol::kPrecedenceAgreement};
  for (TxnId id = 2; id <= kTransfers + 1; ++id) {
    const ItemId from = static_cast<ItemId>(rng.UniformInt(kAccounts));
    ItemId to = static_cast<ItemId>(rng.UniformInt(kAccounts));
    while (to == from) to = static_cast<ItemId>(rng.UniformInt(kAccounts));
    const std::uint64_t amount = rng.UniformRange(1, 50);

    TxnSpec t;
    t.id = id;
    t.home = static_cast<SiteId>(rng.UniformInt(options.num_user_sites));
    t.protocol = protos[rng.UniformInt(3)];
    t.write_set = {from, to};
    t.compute_time = 2 * kMillisecond;
    const ComputeFn transfer = [from, to, amount](const auto& reads) {
      std::uint64_t src = reads.at(from), dst = reads.at(to);
      std::vector<std::pair<ItemId, std::uint64_t>> writes;
      if (src >= amount) {
        writes.emplace_back(from, src - amount);
        writes.emplace_back(to, dst + amount);
      } else {  // insufficient funds: write balances back unchanged
        writes.emplace_back(from, src);
        writes.emplace_back(to, dst);
      }
      return writes;
    };
    const SimTime when =
        200 * kMillisecond + rng.UniformInt(8 * kSecond);
    if (!engine->AddTransaction(when, t, transfer).ok()) return 1;
  }

  const RunSummary summary = engine->Run();
  const SerializabilityReport report = engine->CheckSerializability();

  std::uint64_t total = 0;
  bool replicas_ok = engine->ReplicasConsistent();
  for (ItemId a = 0; a < kAccounts; ++a) {
    total += engine->ReadReplicas(a)[0];
  }

  std::printf("transfers committed : %llu\n",
              static_cast<unsigned long long>(summary.committed - 1));
  std::printf("deadlock victims    : %llu (2PL transfers retried)\n",
              static_cast<unsigned long long>(summary.deadlock_victims));
  std::printf("T/O restarts        : %llu\n",
              static_cast<unsigned long long>(summary.reject_restarts));
  std::printf("PA back-off rounds  : %llu\n",
              static_cast<unsigned long long>(summary.backoff_rounds));
  std::printf("mean system time    : %.2f ms\n",
              summary.mean_system_time_ms);
  std::printf("serializable        : %s\n",
              report.serializable ? "yes" : "NO");
  std::printf("replicas consistent : %s\n", replicas_ok ? "yes" : "NO");
  std::printf("total money         : %llu (expected %llu)\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(kAccounts * kInitial));

  const bool ok = report.serializable && replicas_ok &&
                  total == kAccounts * kInitial;
  std::printf("%s\n", ok ? "OK: money conserved." : "FAILED");
  return ok ? 0 : 1;
}
