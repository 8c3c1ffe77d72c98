// Post-run read-one/write-all check: at quiescence every replica of an
// item must hold the same value. Engine::ReplicasConsistent runs it over
// its data sites; `store_at` abstracts how a site's store is reached, so
// the check also runs over bare stores in tests.
#ifndef UNICC_STORAGE_REPLICA_CHECK_H_
#define UNICC_STORAGE_REPLICA_CHECK_H_

#include <cstdint>

#include "storage/catalog.h"
#include "storage/store.h"

namespace unicc {

// True iff all replicas of every item agree. `store_at(site)` returns the
// Store of one data site. Only written copies are visited: for each one,
// every replica of its item is read and compared with it. An item none of
// whose copies was written reads 0 on every replica, so the verdict equals
// a walk over every item x replica, at O(written copies x replication)
// instead of O(keyspace x replication).
template <typename StoreAtFn>
bool ReplicasAgree(const Catalog& catalog, StoreAtFn&& store_at) {
  bool agree = true;
  for (SiteId site : catalog.data_sites()) {
    const Store& store = store_at(site);
    store.ForEachWritten([&](const CopyId& copy, std::uint64_t value) {
      for (std::uint32_t k = 0; agree && k < catalog.replication(); ++k) {
        const CopyId replica = catalog.CopyOf(copy.item, k);
        if (replica.site == copy.site) continue;
        if (store_at(replica.site).Read(replica) != value) agree = false;
      }
    });
    if (!agree) return false;
  }
  return true;
}

}  // namespace unicc

#endif  // UNICC_STORAGE_REPLICA_CHECK_H_
