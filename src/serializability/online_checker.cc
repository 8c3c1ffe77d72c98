#include "serializability/online_checker.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace unicc {

OnlineChecker::OnlineChecker(RunningFn running)
    : running_(std::move(running)) {
  UNICC_CHECK(running_ != nullptr);
}

OnlineChecker::Node& OnlineChecker::AddNode(TxnId txn,
                                            std::uint32_t attempt) {
  Node* n;
  if (spare_nodes_.empty()) {
    n = &nodes_.try_emplace(txn).first->second;
  } else {
    NodeMap::node_type spare = std::move(spare_nodes_.back());
    spare_nodes_.pop_back();
    spare.key() = txn;
    n = &nodes_.insert(std::move(spare)).position->second;
  }
  n->id = txn;
  n->attempt = attempt;
  return *n;
}

void OnlineChecker::DropNode(NodeMap::iterator it) {
  // Reset to a fresh node, keeping the vectors' capacity.
  Node& n = it->second;
  n.committed = false;
  n.counted = false;
  n.records_left = 0;
  n.in = 0;
  n.pending_in = 0;
  n.out.clear();
  n.copies.clear();
  n.early.clear();
  spare_nodes_.push_back(nodes_.extract(it));
}

OnlineChecker::CopyState& OnlineChecker::FrontierOf(const CopyId& copy) {
  auto it = copies_.find(copy);
  if (it != copies_.end()) return it->second;
  if (spare_frontiers_.empty()) return copies_.try_emplace(copy).first->second;
  CopyMap::node_type spare = std::move(spare_frontiers_.back());
  spare_frontiers_.pop_back();
  spare.key() = copy;
  return copies_.insert(std::move(spare)).position->second;
}

void OnlineChecker::DropFrontier(CopyMap::iterator it) {
  spare_frontiers_.push_back(copies_.extract(it));
}

void OnlineChecker::Append(const CopyId& copy, TxnId txn,
                           std::uint32_t attempt, OpType op,
                           SimTime /*when*/) {
  ++total_records_;
  auto it = nodes_.find(txn);
  // A committed transaction has held a node since its commit, until its
  // last record; so a missing node means an early read or a dead
  // incarnation's record.
  if (it == nodes_.end() && !running_(txn, attempt)) return;
  Node& n = it != nodes_.end() ? it->second : AddNode(txn, attempt);
  if (n.attempt != attempt) return;  // an earlier, aborted incarnation
  if (n.committed) {
    AddCommitted(n, copy, op);
  } else {
    AddEarlyRead(n, copy, op);
  }
}

void OnlineChecker::AddEarlyRead(Node& n, const CopyId& copy, OpType op) {
  UNICC_CHECK_MSG(op == OpType::kRead,
                  "a write was implemented before its transaction committed");
  CopyState& cs = FrontierOf(copy);
  EarlyRead er;
  er.copy = copy;
  if (cs.writer != nullptr) {
    er.has_writer = true;
    er.writer = cs.writer->id;
  }
  cs.early.push_back(CopyState::EarlyRef{&n, n.early.size()});
  n.early.push_back(er);
}

void OnlineChecker::AddCommitted(Node& n, const CopyId& copy, OpType op) {
  UNICC_CHECK_MSG(n.records_left > 0,
                  "a transaction implemented more operations than it "
                  "requested");
  --n.records_left;
  if (!n.counted) {
    n.counted = true;
    ++num_txns_;
  }
  CopyState& cs = FrontierOf(copy);
  if (cs.writer != nullptr) AddEdge(cs.writer, &n);
  if (op == OpType::kRead) {
    cs.readers.push_back(&n);
  } else {
    for (Node* r : cs.readers) AddEdge(r, &n);
    cs.readers.clear();
    // Running readers ahead of this write: each owes it an edge if it
    // commits.
    for (const CopyState::EarlyRef& ref : cs.early) {
      EarlyRead& er = ref.reader->early[ref.index];
      er.next = &n;
      ++n.pending_in;
    }
    cs.early.clear();
    cs.writer = &n;
  }
  n.copies.push_back(copy);
  MaybeDrop(n);
}

void OnlineChecker::AddEdge(Node* from, Node* to) {
  if (from == to) return;
  if (!from->out.empty() && from->out.back() == to) return;
  from->out.push_back(to);
  ++to->in;
}

void OnlineChecker::OnCommit(TxnId txn, std::uint32_t attempt,
                             std::size_t num_requests) {
  auto it = nodes_.find(txn);
  // No record will ever name a transaction without requests.
  if (it == nodes_.end() && num_requests == 0) return;
  Node& n = it != nodes_.end() ? it->second : AddNode(txn, attempt);
  UNICC_CHECK_MSG(!n.committed && n.attempt == attempt,
                  "commit of an incarnation that is not running");
  UNICC_CHECK_MSG(n.early.size() <= num_requests,
                  "a transaction implemented more operations than it "
                  "requested");
  n.committed = true;
  n.records_left = num_requests - n.early.size();
  n.copies.reserve(num_requests);
  if (!n.early.empty()) {
    n.counted = true;
    ++num_txns_;
  }
  for (std::size_t i = 0; i < n.early.size(); ++i) {
    const EarlyRead& er = n.early[i];
    if (er.has_writer) {
      auto w = nodes_.find(er.writer);
      if (w != nodes_.end()) AddEdge(&w->second, &n);
    }
    if (er.next != nullptr) {
      --er.next->pending_in;
      AddEdge(&n, er.next);
    } else {
      // No write followed it yet: a committed reader since the last write.
      ForgetEarly(n, i);
      FrontierOf(er.copy).readers.push_back(&n);
      n.copies.push_back(er.copy);
    }
  }
  n.early.clear();
  MaybeDrop(n);
}

void OnlineChecker::OnAbort(TxnId txn, std::uint32_t attempt) {
  auto it = nodes_.find(txn);
  if (it == nodes_.end() || it->second.attempt != attempt) return;
  Node& n = it->second;
  UNICC_CHECK_MSG(!n.committed, "abort of a committed incarnation");
  for (std::size_t i = 0; i < n.early.size(); ++i) {
    Node* next = n.early[i].next;
    if (next == nullptr) {
      ForgetEarly(n, i);
      continue;
    }
    // The pending in-edge is void. Any later entry naming the same writer
    // still pins it, so this cascade cannot drop a node used below.
    --next->pending_in;
    MaybeDrop(*next);
  }
  DropNode(it);
}

void OnlineChecker::ForgetEarly(const Node& n, std::size_t index) {
  const CopyId& copy = n.early[index].copy;
  auto it = copies_.find(copy);
  UNICC_CHECK(it != copies_.end());
  std::vector<CopyState::EarlyRef>& refs = it->second.early;
  auto ref = std::find_if(refs.begin(), refs.end(),
                          [&](const CopyState::EarlyRef& r) {
                            return r.reader == &n && r.index == index;
                          });
  UNICC_CHECK(ref != refs.end());
  *ref = refs.back();
  refs.pop_back();
  if (it->second.empty()) DropFrontier(it);
}

void OnlineChecker::MaybeDrop(Node& first) {
  if (!Droppable(first)) return;
  drop_work_.push_back(&first);
  while (!drop_work_.empty()) {
    Node* n = drop_work_.back();
    drop_work_.pop_back();
    for (Node* m : n->out) {
      if (--m->in == 0 && Droppable(*m)) drop_work_.push_back(m);
    }
    for (const CopyId& copy : n->copies) {
      auto it = copies_.find(copy);
      if (it == copies_.end()) continue;
      CopyState& cs = it->second;
      if (cs.writer == n) cs.writer = nullptr;
      auto r = std::find(cs.readers.begin(), cs.readers.end(), n);
      if (r != cs.readers.end()) {
        *r = cs.readers.back();
        cs.readers.pop_back();
      }
      if (cs.empty()) DropFrontier(it);
    }
    DropNode(nodes_.find(n->id));
  }
}

SerializabilityReport OnlineChecker::Check() const {
  SerializabilityReport report;
  report.num_txns = num_txns_;

  // Kahn's algorithm over the held committed transactions; running ones
  // have no edges yet. Leftover nodes are on (or downstream of) a cycle.
  std::unordered_map<const Node*, std::size_t> indeg;
  std::vector<const Node*> ready;
  for (const auto& [id, n] : nodes_) {
    if (!n.committed) continue;
    indeg[&n] = n.in;
    if (n.in == 0) ready.push_back(&n);
  }
  std::size_t sorted = 0;
  while (!ready.empty()) {
    const Node* n = ready.back();
    ready.pop_back();
    ++sorted;
    for (const Node* m : n->out) {
      if (--indeg[m] == 0) ready.push_back(m);
    }
  }
  if (sorted == indeg.size()) {
    report.serializable = true;
    return report;
  }

  // Every leftover node keeps an in-edge from another leftover node, so
  // walking predecessors must revisit a node; the revisit closes a cycle.
  // Leftovers are visited by id, so the cycle reported is reproducible.
  std::vector<const Node*> left;
  for (const auto& [n, d] : indeg) {
    if (d > 0) left.push_back(n);
  }
  std::sort(left.begin(), left.end(),
            [](const Node* a, const Node* b) { return a->id < b->id; });
  std::unordered_map<const Node*, const Node*> pred;
  for (const Node* n : left) {
    for (const Node* m : n->out) {
      if (indeg.at(m) > 0) pred[m] = n;
    }
  }
  std::vector<TxnId> path;
  std::unordered_map<const Node*, std::size_t> pos;
  for (const Node* cur = left.front();;) {
    auto seen = pos.find(cur);
    if (seen != pos.end()) {
      const auto first =
          path.begin() + static_cast<std::ptrdiff_t>(seen->second);
      report.cycle.assign(first, path.end());
      std::reverse(report.cycle.begin(), report.cycle.end());
      break;
    }
    pos[cur] = path.size();
    path.push_back(cur->id);
    cur = pred.at(cur);
  }
  return report;
}

}  // namespace unicc
