// Online conflict-serializability checking: serialization-graph testing
// with its garbage-collection rule (Bernstein, Hadzilacos & Goodman,
// "Concurrency Control and Recovery in Database Systems", 1987, §4.4).
//
// The data sites feed implemented operations as they happen (LogSink) and
// the issuers report each incarnation's commit or abort. The checker builds
// the same conflict graph as ConflictGraphChecker, over the same committed
// incarnations, but holds only the transactions that can still be on a
// cycle, so its memory follows live work instead of run length.
//
// Where records come from. Only T/O reads are implemented before their
// transaction commits (at grant). Every other record arrives after the
// commit: 2PL and PA operations at release, T/O writes at the semi-lock
// transform or the apply. An early read waits for its incarnation to
// resolve: the checker holds it with the writer it followed, and the first
// committed write after it on that copy gets a pending in-edge. A commit
// turns both into edges; an abort drops them. A record whose incarnation is
// neither running nor committed (a dead T/O read granted before its abort
// reached the copy) is ignored, as ConflictGraphChecker ignores it.
//
// When a transaction is dropped. A committed transaction whose records
// have all arrived, with no in-edge and no pending in-edge, can never join
// a cycle: every later record on its copies comes after its own, so it
// only gains out-edges. It is dropped with its out-edges, which may drop
// their targets in turn. A transaction on a cycle keeps an in-edge and is
// never dropped, so Check() finds every cycle among the transactions still
// held, and after a drained serializable run nothing is held.
#ifndef UNICC_SERIALIZABILITY_ONLINE_CHECKER_H_
#define UNICC_SERIALIZABILITY_ONLINE_CHECKER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "serializability/conflict_graph.h"
#include "storage/log.h"

namespace unicc {

class OnlineChecker : public LogSink {
 public:
  // True iff `attempt` is `txn`'s running incarnation: begun, and neither
  // committed nor aborted.
  using RunningFn = std::function<bool(TxnId txn, std::uint32_t attempt)>;

  explicit OnlineChecker(RunningFn running);

  void Append(const CopyId& copy, TxnId txn, std::uint32_t attempt, OpType op,
              SimTime when) override;
  // Incarnation `attempt` of `txn` committed; it implements `num_requests`
  // operations in all, early reads included.
  void OnCommit(TxnId txn, std::uint32_t attempt, std::size_t num_requests);
  // Incarnation `attempt` of `txn` aborted.
  void OnAbort(TxnId txn, std::uint32_t attempt);

  // The verdict over the transactions still held; fills `serializable`,
  // `cycle` and `num_txns`.
  SerializabilityReport Check() const;

  // Records appended, counting ignored ones.
  std::uint64_t TotalRecords() const { return total_records_; }
  // Transactions still held: committed ones that may join a cycle, and
  // running ones with early reads.
  std::size_t Held() const { return nodes_.size(); }

 private:
  struct Node;
  // An early read on `copy`, with the committed writer it followed (if
  // any) and the first committed write after it (once one arrived; that
  // writer holds a pending in-edge for it).
  struct EarlyRead {
    CopyId copy;
    bool has_writer = false;
    TxnId writer = 0;
    Node* next = nullptr;
  };
  struct Node {
    TxnId id = 0;
    std::uint32_t attempt = 0;  // the running or committed incarnation
    bool committed = false;
    // A record of the committed incarnation arrived: in num_txns_.
    bool counted = false;
    std::size_t records_left = 0;  // committed: records still to arrive
    std::size_t in = 0;            // held in-edges, with multiplicity
    std::size_t pending_in = 0;    // early reads ordered before its writes
    std::vector<Node*> out;        // edges to held transactions
    std::vector<CopyId> copies;    // copies whose state may name it
    std::vector<EarlyRead> early;  // running: its early reads
  };
  // One copy's conflict frontier, naming held transactions only.
  struct CopyState {
    struct EarlyRef {
      Node* reader;
      std::size_t index;  // into the reader's `early`
    };
    Node* writer = nullptr;       // last committed writer
    std::vector<Node*> readers;   // committed readers since that write
    std::vector<EarlyRef> early;  // early readers since that write

    bool empty() const {
      return writer == nullptr && readers.empty() && early.empty();
    }
  };

  void AddEarlyRead(Node& n, const CopyId& copy, OpType op);
  void AddCommitted(Node& n, const CopyId& copy, OpType op);
  void AddEdge(Node* from, Node* to);
  // Removes `n`'s early read entry from its copy's frontier.
  void ForgetEarly(const Node& n, std::size_t index);
  // Drops `n` if it can no longer join a cycle, cascading to its targets.
  void MaybeDrop(Node& n);
  static bool Droppable(const Node& n) {
    return n.committed && n.records_left == 0 && n.in == 0 &&
           n.pending_in == 0;
  }

  using NodeMap = std::unordered_map<TxnId, Node>;
  using CopyMap = std::unordered_map<CopyId, CopyState>;

  // A fresh node for incarnation `attempt` of `txn`, made from a spare
  // map node when one is available.
  Node& AddNode(TxnId txn, std::uint32_t attempt);
  // Moves `it`'s map node onto the spare list, reset to a fresh node.
  void DropNode(NodeMap::iterator it);
  // `copy`'s frontier, made empty (from a spare map node when one is
  // available) on first use.
  CopyState& FrontierOf(const CopyId& copy);
  // Moves an empty frontier's map node onto the spare list.
  void DropFrontier(CopyMap::iterator it);

  RunningFn running_;
  NodeMap nodes_;
  CopyMap copies_;
  // Map nodes of dropped transactions and emptied frontiers, inserted
  // again under the next key. A reused node keeps its vectors' capacity,
  // so a warm checker allocates nothing per transaction or record.
  std::vector<NodeMap::node_type> spare_nodes_;
  std::vector<CopyMap::node_type> spare_frontiers_;
  std::vector<Node*> drop_work_;  // MaybeDrop's scratch
  std::uint64_t total_records_ = 0;
  std::size_t num_txns_ = 0;
};

}  // namespace unicc

#endif  // UNICC_SERIALIZABILITY_ONLINE_CHECKER_H_
