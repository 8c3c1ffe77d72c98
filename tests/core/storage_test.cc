#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "storage/catalog.h"
#include "storage/log.h"
#include "storage/replica_check.h"
#include "storage/store.h"

namespace unicc {
namespace {

TEST(CatalogTest, RejectsBadArguments) {
  EXPECT_FALSE(Catalog::Make(0, {1}, 1).ok());
  EXPECT_FALSE(Catalog::Make(10, {}, 1).ok());
  EXPECT_FALSE(Catalog::Make(10, {1, 2}, 3).ok());
  EXPECT_FALSE(Catalog::Make(10, {1, 2}, 0).ok());
  EXPECT_TRUE(Catalog::Make(10, {1, 2}, 2).ok());
}

TEST(CatalogTest, ReplicationPlacesDistinctSites) {
  auto c = Catalog::Make(20, {4, 5, 6}, 3).value();
  for (ItemId i = 0; i < 20; ++i) {
    std::set<SiteId> sites;
    for (std::uint32_t k = 0; k < c.replication(); ++k) {
      const CopyId copy = c.CopyOf(i, k);
      EXPECT_EQ(copy.item, i);
      sites.insert(copy.site);
    }
    EXPECT_EQ(sites.size(), 3u);
  }
}

TEST(CatalogTest, ReadCopyIsOneOfTheCopies) {
  auto c = Catalog::Make(8, {2, 3}, 2).value();
  for (ItemId i = 0; i < 8; ++i) {
    for (std::uint64_t pref = 0; pref < 5; ++pref) {
      const CopyId rc = c.ReadCopy(i, pref);
      bool found = false;
      for (std::uint32_t k = 0; k < c.replication(); ++k) {
        found = found || c.CopyOf(i, k) == rc;
      }
      EXPECT_TRUE(found) << "item " << i << " preference " << pref;
    }
  }
}

TEST(CatalogTest, SingleReplicaReadsAlwaysSameCopy) {
  auto c = Catalog::Make(8, {2, 3}, 1).value();
  EXPECT_EQ(c.ReadCopy(4, 0), c.ReadCopy(4, 99));
}

TEST(CatalogTest, CopiesPartitionAcrossDataSites) {
  // Every copy lives at a data site, and no site holds two copies of one
  // item, so the per-site copy sets add up to every copy exactly once.
  auto c = Catalog::Make(10, {7, 8, 9}, 2).value();
  std::map<SiteId, std::set<ItemId>> items_at;
  for (ItemId i = 0; i < 10; ++i) {
    for (std::uint32_t k = 0; k < c.replication(); ++k) {
      const CopyId copy = c.CopyOf(i, k);
      items_at[copy.site].insert(copy.item);
    }
  }
  std::size_t total = 0;
  for (const auto& [site, items] : items_at) {
    EXPECT_TRUE(site == 7 || site == 8 || site == 9) << site;
    total += items.size();
  }
  EXPECT_EQ(total, 10u * 2u);
}

TEST(StoreTest, ReadsZeroWhenUnwritten) {
  Store s;
  EXPECT_EQ(s.Read(CopyId{1, 2}), 0u);
}

TEST(StoreTest, WriteThenRead) {
  Store s;
  s.Write(CopyId{1, 2}, 77);
  EXPECT_EQ(s.Read(CopyId{1, 2}), 77u);
  s.Write(CopyId{1, 2}, 78);
  EXPECT_EQ(s.Read(CopyId{1, 2}), 78u);
  EXPECT_EQ(s.WrittenCopies(), 1u);
}

TEST(CatalogTest, CopyOfFollowsRoundRobinPlacement) {
  auto c = Catalog::Make(24, {4, 5, 6, 7}, 3).value();
  for (ItemId i = 0; i < 24; ++i) {
    for (std::uint32_t k = 0; k < c.replication(); ++k) {
      EXPECT_EQ(c.CopyOf(i, k), (CopyId{i, c.data_sites()[(i + k) % 4]}));
    }
    for (std::uint64_t pref = 0; pref < 7; ++pref) {
      EXPECT_EQ(c.ReadCopy(i, pref), c.CopyOf(i, pref % c.replication()));
    }
  }
}

TEST(StoreTest, MatchesReferenceMapOnRandomOps) {
  // Drive the open-addressing table and a reference unordered_map with
  // the same randomized op sequence; they must agree on every read.
  Store store;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(51);
  const auto key_of = [](const CopyId& c) {
    return (static_cast<std::uint64_t>(c.item) << 32) | c.site;
  };
  for (int op = 0; op < 20000; ++op) {
    const CopyId copy{static_cast<ItemId>(rng.UniformInt(700)),
                      static_cast<SiteId>(rng.UniformInt(5))};
    if (rng.Bernoulli(0.5)) {
      const std::uint64_t v = rng.UniformRange(1, 1000000);
      store.Write(copy, v);
      ref[key_of(copy)] = v;
    } else {
      const auto it = ref.find(key_of(copy));
      EXPECT_EQ(store.Read(copy), it == ref.end() ? 0u : it->second);
    }
  }
  EXPECT_EQ(store.WrittenCopies(), ref.size());
  for (const auto& [key, value] : ref) {
    const CopyId copy{static_cast<ItemId>(key >> 32),
                      static_cast<SiteId>(key & 0xffffffffu)};
    EXPECT_EQ(store.Read(copy), value);
  }
}

TEST(StoreTest, SentinelCopyIdRoundTrips) {
  // {0xffffffff, 0xffffffff} packs to the table's empty-slot marker and
  // takes the dedicated escape path.
  Store s;
  const CopyId sentinel{0xffffffffu, 0xffffffffu};
  EXPECT_EQ(s.Read(sentinel), 0u);
  s.Write(sentinel, 42);
  EXPECT_EQ(s.Read(sentinel), 42u);
  EXPECT_EQ(s.WrittenCopies(), 1u);
  s.Write(sentinel, 43);
  EXPECT_EQ(s.Read(sentinel), 43u);
  EXPECT_EQ(s.WrittenCopies(), 1u);
  s.Write(CopyId{1, 1}, 7);
  EXPECT_EQ(s.WrittenCopies(), 2u);
  EXPECT_EQ(s.Read(sentinel), 43u);
}

TEST(StoreTest, GrowsPastInitialCapacity) {
  Store s;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    s.Write(CopyId{i, i % 13}, i + 1);
  }
  EXPECT_EQ(s.WrittenCopies(), 1000u);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(s.Read(CopyId{i, i % 13}), i + 1);
  }
}

TEST(StoreTest, ForEachWrittenVisitsEachWrittenCopyOnce) {
  // Enough distinct copies to force several rehashes, overwrites included,
  // plus the all-ones CopyId that lives in the escape slot.
  Store s;
  std::map<std::pair<ItemId, SiteId>, std::uint64_t> want;
  Rng rng(17);
  for (int op = 0; op < 5000; ++op) {
    const CopyId copy{static_cast<ItemId>(rng.UniformInt(3000)),
                      static_cast<SiteId>(rng.UniformInt(4))};
    const std::uint64_t v = rng.UniformInt(3);  // zeros are written too
    s.Write(copy, v);
    want[{copy.item, copy.site}] = v;
  }
  const CopyId sentinel{0xffffffffu, 0xffffffffu};
  s.Write(sentinel, 9);
  want[{sentinel.item, sentinel.site}] = 9;

  std::map<std::pair<ItemId, SiteId>, std::uint64_t> seen;
  std::size_t visits = 0;
  s.ForEachWritten([&](const CopyId& copy, std::uint64_t value) {
    ++visits;
    seen[{copy.item, copy.site}] = value;
  });
  EXPECT_EQ(visits, s.WrittenCopies());
  EXPECT_EQ(seen, want);
}

TEST(StoreTest, ForEachWrittenOnEmptyStoreVisitsNothing) {
  Store s;
  int visits = 0;
  s.ForEachWritten([&](const CopyId&, std::uint64_t) { ++visits; });
  EXPECT_EQ(visits, 0);
}

// Three data sites, replication 2: copy k of item i lives at site
// 10 + (i + k) % 3.
class ReplicaCheckTest : public ::testing::Test {
 protected:
  static constexpr ItemId kItems = 50;
  ReplicaCheckTest()
      : catalog_(Catalog::Make(kItems, {10, 11, 12}, 2).value()) {}

  Store& StoreOf(SiteId site) { return stores_[site - 10]; }
  void Write(ItemId item, std::uint32_t k, std::uint64_t v) {
    const CopyId copy = catalog_.CopyOf(item, k);
    StoreOf(copy.site).Write(copy, v);
  }
  bool Agree() {
    return ReplicasAgree(catalog_, [this](SiteId site) -> const Store& {
      return StoreOf(site);
    });
  }
  // The check's predecessor: every item x replica of the keyspace.
  bool FullWalk() {
    for (ItemId i = 0; i < kItems; ++i) {
      const CopyId first = catalog_.CopyOf(i, 0);
      for (std::uint32_t k = 1; k < catalog_.replication(); ++k) {
        const CopyId copy = catalog_.CopyOf(i, k);
        if (StoreOf(copy.site).Read(copy) != StoreOf(first.site).Read(first)) {
          return false;
        }
      }
    }
    return true;
  }

  Catalog catalog_;
  Store stores_[3];
};

TEST_F(ReplicaCheckTest, UnwrittenKeyspaceAgrees) { EXPECT_TRUE(Agree()); }

TEST_F(ReplicaCheckTest, WrittenCopyAgainstUnwrittenSibling) {
  Write(7, 0, 5);
  EXPECT_FALSE(Agree());
  Write(7, 1, 5);
  EXPECT_TRUE(Agree());
}

TEST_F(ReplicaCheckTest, TwoWrittenReplicasDiffer) {
  Write(3, 0, 1);
  Write(3, 1, 2);
  EXPECT_FALSE(Agree());
}

TEST_F(ReplicaCheckTest, ZeroWrittenBesideUnwrittenAgrees) {
  // A written 0 equals the unwritten default.
  Write(4, 1, 0);
  EXPECT_TRUE(Agree());
}

TEST_F(ReplicaCheckTest, DivergenceAtHighestItemIsCaught) {
  Write(kItems - 1, 1, 8);
  EXPECT_FALSE(Agree());
  Write(kItems - 1, 0, 8);
  EXPECT_TRUE(Agree());
}

TEST_F(ReplicaCheckTest, MatchesFullWalkOnRandomStores) {
  Rng rng(23);
  int disagreements = 0;
  for (int round = 0; round < 400; ++round) {
    for (Store& s : stores_) s = Store();
    // Mostly consistent writes over a few items, then 0-2 stray replica
    // writes whose value may or may not break agreement.
    const int writes = static_cast<int>(rng.UniformInt(20));
    for (int w = 0; w < writes; ++w) {
      const ItemId item = static_cast<ItemId>(rng.UniformInt(kItems));
      const std::uint64_t v = rng.UniformInt(4);
      for (std::uint32_t k = 0; k < catalog_.replication(); ++k) {
        Write(item, k, v);
      }
    }
    const int strays = static_cast<int>(rng.UniformInt(3));
    for (int w = 0; w < strays; ++w) {
      const ItemId item = rng.Bernoulli(0.2)
                              ? kItems - 1
                              : static_cast<ItemId>(rng.UniformInt(kItems));
      Write(item, static_cast<std::uint32_t>(rng.UniformInt(2)),
            rng.UniformInt(3));
    }
    const bool want = FullWalk();
    ASSERT_EQ(Agree(), want) << "round " << round;
    if (!want) ++disagreements;
  }
  // Both verdicts must have been exercised.
  EXPECT_GT(disagreements, 50);
  EXPECT_LT(disagreements, 350);
}

TEST(LogTest, AppendsInSequenceOrder) {
  ImplementationLog log;
  const CopyId c{3, 1};
  log.Append(c, 10, 1, OpType::kRead, 5);
  log.Append(c, 11, 1, OpType::kWrite, 6);
  const auto& records = log.LogOf(c);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].txn, 10u);
  EXPECT_EQ(records[1].txn, 11u);
  EXPECT_LT(records[0].seq, records[1].seq);
  EXPECT_EQ(log.TotalRecords(), 2u);
}

TEST(LogTest, SeparateCopiesSeparateLogs) {
  ImplementationLog log;
  log.Append(CopyId{1, 0}, 1, 1, OpType::kRead, 0);
  log.Append(CopyId{2, 0}, 2, 1, OpType::kRead, 0);
  EXPECT_EQ(log.LogOf(CopyId{1, 0}).size(), 1u);
  EXPECT_EQ(log.LogOf(CopyId{2, 0}).size(), 1u);
  EXPECT_EQ(log.LogOf(CopyId{3, 0}).size(), 0u);
  EXPECT_EQ(log.Copies().size(), 2u);
}

TEST(LogTest, ClearResets) {
  ImplementationLog log;
  log.Append(CopyId{1, 0}, 1, 1, OpType::kRead, 0);
  log.Clear();
  EXPECT_EQ(log.TotalRecords(), 0u);
  EXPECT_TRUE(log.Copies().empty());
}

}  // namespace
}  // namespace unicc
