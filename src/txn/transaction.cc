#include "txn/transaction.h"

#include <algorithm>

namespace unicc {

Status TxnSpec::Validate() const {
  if (read_set.empty() && write_set.empty()) {
    return Status::InvalidArgument("transaction accesses no items");
  }
  for (ItemId r : read_set) {
    if (std::find(write_set.begin(), write_set.end(), r) !=
        write_set.end()) {
      return Status::InvalidArgument(
          "read_set and write_set must be disjoint (a read-then-write item "
          "belongs in write_set only)");
    }
  }
  auto has_dup = [](const std::vector<ItemId>& items) {
    // Point transactions are a few items: compare every pair, which
    // beats copying and sorting them.
    constexpr std::size_t kPairwiseMax = 16;
    if (items.size() <= kPairwiseMax) {
      for (std::size_t i = 1; i < items.size(); ++i) {
        if (std::find(items.begin(), items.begin() + i, items[i]) !=
            items.begin() + i) {
          return true;
        }
      }
      return false;
    }
    // Sorts a per-thread scratch copy: once warm, no allocation.
    thread_local std::vector<ItemId> v;
    v.assign(items.begin(), items.end());
    std::sort(v.begin(), v.end());
    return std::adjacent_find(v.begin(), v.end()) != v.end();
  };
  if (has_dup(read_set) || has_dup(write_set)) {
    return Status::InvalidArgument("duplicate item in access set");
  }
  return Status::OK();
}

}  // namespace unicc
