// Engine::ReplicasConsistent visits written copies only. This suite checks
// it against the walk it replaced — every item x replica of the keyspace,
// read through ReadReplicas — on real replicated runs, before and after
// corrupting random copies behind the engine's back (unwritten siblings,
// written replicas, zeros and the highest item id included).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "../test_util.h"
#include "common/rng.h"
#include "engine/builder.h"
#include "engine/engine.h"

namespace unicc {
namespace {

// The pre-change check: all replicas of every item read the same value.
bool FullKeyspaceWalk(const Engine& engine, ItemId num_items) {
  for (ItemId i = 0; i < num_items; ++i) {
    const std::vector<std::uint64_t> values = engine.ReadReplicas(i);
    for (std::uint64_t v : values) {
      if (v != values[0]) return false;
    }
  }
  return true;
}

EngineOptions ReplicatedEngine(std::uint64_t seed) {
  EngineOptions eo = test::SmallEngine(seed);
  eo.num_user_sites = 4;
  eo.num_data_sites = 4;
  eo.num_items = 96;
  eo.replication = 2 + static_cast<std::uint32_t>(seed % 3);
  return eo;
}

std::vector<Arrival> Workload(const EngineOptions& eo) {
  return test::DrawClass(test::SmallWorkload(60), eo,
                         Rng(eo.seed ^ 0x9e3779b9));
}

// Writes a random value into one random replica of a random item. The
// store is owned by a data site's backend, not a const object, so the
// cast is defined; it stands in for a replica that missed a write.
void CorruptOne(const Catalog& catalog, ItemId num_items, Rng* rng,
                const std::function<const Store&(SiteId)>& store_at) {
  const ItemId item = rng->Bernoulli(0.25)
                          ? num_items - 1
                          : static_cast<ItemId>(rng->UniformInt(num_items));
  const CopyId copy = catalog.CopyOf(
      item, static_cast<std::uint32_t>(rng->UniformInt(catalog.replication())));
  const_cast<Store&>(store_at(copy.site)).Write(copy, rng->UniformInt(3));
}

TEST(ReplicaCheckTest, EngineMatchesFullWalk) {
  int disagreements = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const EngineOptions eo = ReplicatedEngine(seed);
    const auto engine = EngineBuilder(eo).Build().value();
    ASSERT_TRUE(engine->AddWorkload(Workload(eo)).ok());
    engine->Run();
    ASSERT_TRUE(engine->ReplicasConsistent()) << "seed " << seed;
    ASSERT_TRUE(FullKeyspaceWalk(*engine, eo.num_items)) << "seed " << seed;

    Rng rng(seed * 31 + 1);
    const int corruptions = 1 + static_cast<int>(rng.UniformInt(2));
    for (int c = 0; c < corruptions; ++c) {
      CorruptOne(engine->catalog(), eo.num_items, &rng,
                 [&engine](SiteId site) -> const Store& {
                   return engine->StoreAt(site);
                 });
    }
    const bool want = FullKeyspaceWalk(*engine, eo.num_items);
    EXPECT_EQ(engine->ReplicasConsistent(), want) << "seed " << seed;
    if (!want) ++disagreements;
  }
  EXPECT_GT(disagreements, 6);  // the corruptions do break agreement
}

}  // namespace
}  // namespace unicc
