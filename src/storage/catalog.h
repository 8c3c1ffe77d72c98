// The catalog maps logical data items to their physical copies under
// read-one/write-all replication. Placement is deterministic (round-robin
// over the data sites) so experiments are reproducible.
#ifndef UNICC_STORAGE_CATALOG_H_
#define UNICC_STORAGE_CATALOG_H_

#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace unicc {

class Catalog {
 public:
  // Places `num_items` logical items over `data_sites` with `replication`
  // copies each (replication <= data_sites.size()). Copy k of item i lives
  // at data_sites[(i + k) % data_sites.size()].
  static StatusOr<Catalog> Make(ItemId num_items,
                                std::vector<SiteId> data_sites,
                                std::uint32_t replication);

  ItemId num_items() const { return num_items_; }
  std::uint32_t replication() const { return replication_; }
  const std::vector<SiteId>& data_sites() const { return data_sites_; }

  // Copy k of `item` (k < replication()). Allocation-free; callers that
  // need every copy (issuer request expansion, the replica check) iterate
  // k over this.
  CopyId CopyOf(ItemId item, std::uint32_t k) const {
    return CopyId{item, data_sites_[(item + k) % data_sites_.size()]};
  }

  // The copy a read should use. `preference` picks among replicas (e.g. a
  // random draw or the reader's site hash); reads use exactly one copy.
  CopyId ReadCopy(ItemId item, std::uint64_t preference) const;

 private:
  Catalog(ItemId num_items, std::vector<SiteId> data_sites,
          std::uint32_t replication);

  ItemId num_items_;
  std::vector<SiteId> data_sites_;
  std::uint32_t replication_;
};

}  // namespace unicc

#endif  // UNICC_STORAGE_CATALOG_H_
