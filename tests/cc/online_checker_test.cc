// OnlineChecker: the engine's online serializability check. Deterministic
// cases pin the early-read and dead-incarnation rules; a randomized
// differential case compares it with ConflictGraphChecker, the offline
// oracle, over histories with early reads, aborts and late records of dead
// incarnations.
#include "serializability/online_checker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "serializability/conflict_graph.h"
#include "storage/log.h"

namespace unicc {
namespace {

const CopyId kX{0, 1};
const CopyId kY{1, 1};

// Feeds one history to both checkers; the test plays the issuers, so it
// says which incarnation of each transaction is running.
class History {
 public:
  History()
      : online_([this](TxnId txn, std::uint32_t attempt) {
          auto it = running_.find(txn);
          return it != running_.end() && it->second == attempt;
        }) {}

  void Begin(TxnId txn, std::uint32_t attempt) { running_[txn] = attempt; }
  void Record(TxnId txn, std::uint32_t attempt, const CopyId& copy,
              OpType op) {
    log_.Append(copy, txn, attempt, op, 0);
    online_.Append(copy, txn, attempt, op, 0);
  }
  void Commit(TxnId txn, std::size_t num_requests) {
    const std::uint32_t attempt = running_.at(txn);
    running_.erase(txn);
    committed_[txn] = attempt;
    online_.OnCommit(txn, attempt, num_requests);
  }
  void Abort(TxnId txn) {
    const std::uint32_t attempt = running_.at(txn);
    running_.erase(txn);
    online_.OnAbort(txn, attempt);
  }

  const OnlineChecker& online() const { return online_; }
  const ImplementationLog& log() const { return log_; }
  const CommittedSet& committed() const { return committed_; }
  SerializabilityReport Offline() const {
    return ConflictGraphChecker::Check(log_, committed_);
  }

 private:
  std::unordered_map<TxnId, std::uint32_t> running_;
  CommittedSet committed_;
  ImplementationLog log_;
  OnlineChecker online_;
};

TEST(OnlineCheckerTest, AbortedEarlyReadReleasesTheWriterBehindIt) {
  History h;
  h.Begin(1, 1);
  h.Record(1, 1, kX, OpType::kRead);  // early T/O read by running t1
  h.Begin(2, 1);
  h.Commit(2, 1);
  h.Record(2, 1, kX, OpType::kWrite);  // t2 owes t1 an in-edge
  EXPECT_EQ(h.online().Held(), 2u);
  h.Abort(1);
  EXPECT_EQ(h.online().Held(), 0u);
  const SerializabilityReport report = h.online().Check();
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(report.num_txns, 1u);
}

TEST(OnlineCheckerTest, CommittedEarlyReadClosesACycle) {
  History h;
  h.Begin(1, 1);
  h.Begin(2, 1);
  h.Commit(2, 2);
  h.Record(2, 1, kY, OpType::kWrite);
  h.Record(1, 1, kY, OpType::kRead);   // early, after w2(y): 2 -> 1
  h.Record(1, 1, kX, OpType::kRead);   // early, before w2(x)
  h.Record(2, 1, kX, OpType::kWrite);  // pending 1 -> 2
  EXPECT_TRUE(h.online().Check().serializable) << "t1 may still abort";
  h.Commit(1, 2);
  const SerializabilityReport report = h.online().Check();
  EXPECT_FALSE(report.serializable);
  std::vector<TxnId> cycle = report.cycle;
  std::sort(cycle.begin(), cycle.end());
  EXPECT_EQ(cycle, (std::vector<TxnId>{1, 2}));
  EXPECT_EQ(report.num_txns, 2u);
  EXPECT_FALSE(h.Offline().serializable);
}

TEST(OnlineCheckerTest, LateRecordOfADeadIncarnationIsIgnored) {
  History h;
  h.Begin(1, 1);
  h.Abort(1);
  h.Begin(1, 2);
  h.Commit(1, 1);
  h.Record(1, 2, kX, OpType::kWrite);
  EXPECT_EQ(h.online().Held(), 0u) << "complete and unordered: dropped";
  // Attempt 1's read, granted before its abort reached the copy.
  h.Record(1, 1, kX, OpType::kRead);
  EXPECT_EQ(h.online().Held(), 0u);
  EXPECT_EQ(h.online().TotalRecords(), 2u);
  const SerializabilityReport report = h.online().Check();
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(report.num_txns, 1u);
  EXPECT_EQ(h.Offline().num_txns, 1u);
}

TEST(OnlineCheckerTest, DrainedHistoryLeavesNothingHeld) {
  // r1(x) w2(x) r3(x) w3(y) r4(y): 1 -> 2 -> 3 -> 4. Each transaction is
  // dropped once its records are in and its predecessors are gone.
  History h;
  for (TxnId t = 1; t <= 4; ++t) h.Begin(t, 1);
  h.Commit(1, 1);
  h.Record(1, 1, kX, OpType::kRead);
  h.Commit(2, 1);
  h.Commit(3, 2);
  h.Record(2, 1, kX, OpType::kWrite);
  EXPECT_EQ(h.online().Held(), 1u) << "t3 waits for its records";
  h.Record(3, 1, kX, OpType::kRead);
  h.Record(3, 1, kY, OpType::kWrite);
  h.Commit(4, 1);
  h.Record(4, 1, kY, OpType::kRead);
  EXPECT_EQ(h.online().Held(), 0u);
  const SerializabilityReport report = h.online().Check();
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(report.num_txns, 4u);
  EXPECT_EQ(report.num_txns, h.Offline().num_txns);
}

// True iff some copy implements a committed operation of `a` before a
// conflicting committed operation of `b`.
bool Conflicts(const ImplementationLog& log, const CommittedSet& committed,
               TxnId a, TxnId b) {
  for (const CopyId& copy : log.Copies()) {
    bool a_read = false;
    bool a_wrote = false;
    for (const LogRecord& r : log.LogOf(copy)) {
      auto it = committed.find(r.txn);
      if (it == committed.end() || it->second != r.attempt) continue;
      if (r.txn == a) {
        (r.op == OpType::kRead ? a_read : a_wrote) = true;
      } else if (r.txn == b &&
                 (a_wrote || (a_read && r.op == OpType::kWrite))) {
        return true;
      }
    }
  }
  return false;
}

TEST(OnlineCheckerTest, AgreesWithTheOfflineChecker) {
  constexpr int kHistories = 20000;
  Rng rng(0x5e71a1);
  int not_serializable = 0;
  std::uint64_t early_reads = 0;
  std::uint64_t aborts = 0;
  std::uint64_t dead_records = 0;
  for (int iter = 0; iter < kHistories; ++iter) {
    struct Txn {
      // One operation per copy; copies are distinct.
      std::vector<std::pair<CopyId, OpType>> ops;
      // Reads are implemented while the incarnation runs, as under T/O.
      bool early = false;
      // The incarnation that resolves last, and whether it aborts too.
      std::uint32_t last = 1;
      bool expires = false;
      std::uint32_t attempt = 0;  // the current incarnation
      bool running = false;
      bool resolved = false;
      // Per op: implemented by the current incarnation.
      std::vector<bool> done;
      // Committed: ops still to implement.
      std::vector<std::size_t> left;
    };
    struct Dead {
      TxnId txn;
      std::uint32_t attempt;
      CopyId copy;
      OpType op;
    };
    enum Action { kLateRecord, kBegin, kResolve, kEarlyRead, kDeadRecord };
    const std::uint32_t num_copies = 1 + rng.UniformInt(4);
    std::vector<Txn> txns(2 + rng.UniformInt(6));
    for (Txn& t : txns) {
      std::vector<ItemId> items(num_copies);
      for (ItemId i = 0; i < num_copies; ++i) items[i] = i;
      const std::size_t n = 1 + rng.UniformInt(std::min(3u, num_copies));
      for (std::size_t k = 0; k < n; ++k) {
        std::swap(items[k], items[k + rng.UniformInt(num_copies - k)]);
        const OpType op = rng.Bernoulli(0.5) ? OpType::kRead : OpType::kWrite;
        t.ops.emplace_back(CopyId{items[k], 1}, op);
      }
      t.early = rng.Bernoulli(0.6);
      while (rng.Bernoulli(0.35)) ++t.last;
      t.expires = rng.Bernoulli(0.1);
    }
    History h;
    std::vector<Dead> dead;
    // Each step takes one enabled action at random; the history ends when
    // every transaction resolved and every record arrived.
    for (;;) {
      std::vector<std::pair<std::size_t, Action>> actions;
      for (std::size_t i = 0; i < txns.size(); ++i) {
        const Txn& t = txns[i];
        if (t.resolved) {
          if (!t.left.empty()) actions.emplace_back(i, kLateRecord);
        } else if (!t.running) {
          actions.emplace_back(i, kBegin);
        } else {
          actions.emplace_back(i, kResolve);
          if (t.early) actions.emplace_back(i, kEarlyRead);
        }
      }
      if (!dead.empty()) actions.emplace_back(0, kDeadRecord);
      if (actions.empty()) break;
      const auto [i, action] = actions[rng.UniformInt(actions.size())];
      Txn& t = txns[i];
      const TxnId id = i + 1;
      switch (action) {
        case kLateRecord: {
          const std::size_t k = rng.UniformInt(t.left.size());
          const auto& [copy, op] = t.ops[t.left[k]];
          h.Record(id, t.attempt, copy, op);
          t.left.erase(t.left.begin() + static_cast<std::ptrdiff_t>(k));
          break;
        }
        case kBegin:
          ++t.attempt;
          t.running = true;
          t.done.assign(t.ops.size(), false);
          h.Begin(id, t.attempt);
          break;
        case kResolve:
          t.running = false;
          t.resolved = t.attempt == t.last;
          if (t.resolved && !t.expires) {
            h.Commit(id, t.ops.size());
            for (std::size_t k = 0; k < t.ops.size(); ++k) {
              if (!t.done[k]) t.left.push_back(k);
            }
            break;
          }
          h.Abort(id);
          ++aborts;
          // Requests of the dead incarnation may still be implemented:
          // reads granted before the abort reached their copy, and now and
          // then a write, which both checkers must ignore just the same.
          for (std::size_t k = 0; k < t.ops.size(); ++k) {
            const auto& [copy, op] = t.ops[k];
            if (!t.done[k] &&
                rng.Bernoulli(op == OpType::kRead ? 0.5 : 0.1)) {
              dead.push_back(Dead{id, t.attempt, copy, op});
            }
          }
          break;
        case kEarlyRead: {
          std::vector<std::size_t> reads;
          for (std::size_t k = 0; k < t.ops.size(); ++k) {
            if (!t.done[k] && t.ops[k].second == OpType::kRead) {
              reads.push_back(k);
            }
          }
          if (reads.empty()) break;
          const std::size_t k = reads[rng.UniformInt(reads.size())];
          h.Record(id, t.attempt, t.ops[k].first, OpType::kRead);
          t.done[k] = true;
          ++early_reads;
          break;
        }
        case kDeadRecord: {
          const std::size_t k = rng.UniformInt(dead.size());
          const Dead d = dead[k];
          dead.erase(dead.begin() + static_cast<std::ptrdiff_t>(k));
          h.Record(d.txn, d.attempt, d.copy, d.op);
          ++dead_records;
          break;
        }
      }
    }

    const SerializabilityReport online = h.online().Check();
    const SerializabilityReport offline = h.Offline();
    ASSERT_EQ(online.serializable, offline.serializable) << "history " << iter;
    ASSERT_EQ(online.num_txns, offline.num_txns) << "history " << iter;
    ASSERT_EQ(h.online().TotalRecords(), h.log().TotalRecords());
    if (online.serializable) {
      ASSERT_EQ(h.online().Held(), 0u) << "history " << iter;
      continue;
    }
    ++not_serializable;
    ASSERT_GE(online.cycle.size(), 2u) << "history " << iter;
    for (std::size_t k = 0; k < online.cycle.size(); ++k) {
      const TxnId a = online.cycle[k];
      const TxnId b = online.cycle[(k + 1) % online.cycle.size()];
      ASSERT_TRUE(h.committed().contains(a)) << "history " << iter;
      ASSERT_TRUE(Conflicts(h.log(), h.committed(), a, b))
          << "history " << iter << ": no conflict " << a << " -> " << b;
    }
  }
  EXPECT_GE(not_serializable, 1000);
  EXPECT_LE(not_serializable, kHistories - 1000);
  EXPECT_GT(early_reads, 10000u);
  EXPECT_GT(aborts, 10000u);
  EXPECT_GT(dead_records, 1000u);
}

}  // namespace
}  // namespace unicc
