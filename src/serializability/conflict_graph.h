// Conflict-serializability checking (paper, Theorem 1 / Section 4.3): build
// the conflict graph <s over committed transactions from the per-copy
// implementation logs and test it for acyclicity. When acyclic, a
// serialization order (topological sort) is produced as a witness.
#ifndef UNICC_SERIALIZABILITY_CONFLICT_GRAPH_H_
#define UNICC_SERIALIZABILITY_CONFLICT_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "storage/log.h"

namespace unicc {

// The verdict of a serializability check. ConflictGraphChecker fills every
// field; OnlineChecker (serializability/online_checker.h), which keeps no
// graph of the transactions it dropped, fills `serializable`, `cycle` and
// `num_txns` and leaves `order` empty and `num_edges` 0.
struct SerializabilityReport {
  bool serializable = false;
  // Witness serialization order (committed transactions, topologically
  // sorted) when serializable. ConflictGraphChecker only.
  std::vector<TxnId> order;
  // A cycle in the conflict graph when not serializable, each transaction
  // followed by one it precedes. Both checkers.
  std::vector<TxnId> cycle;
  // Committed transactions with at least one implemented operation. Both
  // checkers.
  std::size_t num_txns = 0;
  // Edges of the compressed conflict graph. ConflictGraphChecker only.
  std::size_t num_edges = 0;
};

// The committed incarnation of each transaction (txn -> attempt). Log
// records from other incarnations are ignored.
using CommittedSet = std::unordered_map<TxnId, std::uint32_t>;

class ConflictGraphChecker {
 public:
  // Builds the conflict graph of the committed set from `log` and checks
  // acyclicity.
  static SerializabilityReport Check(const ImplementationLog& log,
                                     const CommittedSet& committed);
};

}  // namespace unicc

#endif  // UNICC_SERIALIZABILITY_CONFLICT_GRAPH_H_
