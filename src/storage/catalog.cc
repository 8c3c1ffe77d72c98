#include "storage/catalog.h"

#include <utility>

namespace unicc {

Catalog::Catalog(ItemId num_items, std::vector<SiteId> data_sites,
                 std::uint32_t replication)
    : num_items_(num_items),
      data_sites_(std::move(data_sites)),
      replication_(replication) {}

StatusOr<Catalog> Catalog::Make(ItemId num_items,
                                std::vector<SiteId> data_sites,
                                std::uint32_t replication) {
  if (num_items == 0) {
    return Status::InvalidArgument("num_items must be positive");
  }
  if (data_sites.empty()) {
    return Status::InvalidArgument("need at least one data site");
  }
  if (replication == 0 || replication > data_sites.size()) {
    return Status::InvalidArgument(
        "replication must be in [1, #data_sites]");
  }
  return Catalog(num_items, std::move(data_sites), replication);
}

CopyId Catalog::ReadCopy(ItemId item, std::uint64_t preference) const {
  return CopyOf(item,
                static_cast<std::uint32_t>(preference % replication_));
}

}  // namespace unicc
