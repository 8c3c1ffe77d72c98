// The request issuer (RI) of the PAM model: admits transactions at a user
// site, translates logical operations to physical requests (read-one /
// write-all over the catalog), and drives the per-protocol transaction state
// machine:
//
//   2PL: send all requests -> wait for all grants -> compute -> release.
//        May be chosen as a deadlock victim -> abort + restart.
//   T/O: send all requests (transaction timestamp) -> any Reject aborts the
//        incarnation and restarts with a fresh timestamp. Under the unified
//        backend, a commit while holding pre-scheduled locks takes the
//        semi-lock path: transform, report commit, keep collecting normal
//        grants, then release.
//   PA : send requests with (TS_i, INT_i) -> collect one grant-or-back-off
//        response per request -> if any back-off, TS'_i = max_j TS'_ij is
//        sent to every queue -> wait for all grants -> compute -> release.
//
// The same issuer drives the pure and unified backends; the wire protocol is
// identical.
#ifndef UNICC_CC_UNIFIED_ISSUER_H_
#define UNICC_CC_UNIFIED_ISSUER_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cc/backend.h"
#include "common/rng.h"
#include "common/types.h"
#include "storage/catalog.h"
#include "txn/timestamp.h"
#include "txn/transaction.h"

namespace unicc {

// Computes write values from the values read; keyed by item. If a
// transaction supplies no function, each written item gets the transaction
// id as value.
using ComputeFn = std::function<std::vector<std::pair<ItemId, std::uint64_t>>(
    const std::unordered_map<ItemId, std::uint64_t>&)>;

struct IssuerOptions {
  // Default PA back-off interval INT_i when the spec leaves it zero.
  Timestamp default_backoff_interval = 64;
  // Constant offset added to this site's clock when generating timestamps,
  // modelling loosely synchronized site clocks (no NTP in 1988): skewed
  // clocks are what makes requests arrive out of timestamp order, causing
  // T/O rejects and PA back-offs.
  Duration clock_skew = 0;
  // Mean of the exponential restart delay after a T/O reject or a deadlock
  // abort (the paper's "cost of restarts" parameter).
  Duration restart_delay_mean = 20 * kMillisecond;
  // When false, T/O commits never take the semi-lock path (used with pure
  // backends and with the lock-everything ablation).
  bool semi_locks = true;
  // Liveness under an unreliable network: an incarnation that has not
  // reached its compute phase within this window after sending its
  // requests is aborted and restarted (the fresh CcRequests re-cover any
  // lost message). 0 disables the timer entirely — no events scheduled —
  // so lossless runs are byte-identical to builds without the feature.
  Duration request_timeout = 0;
};

// Event hooks consumed by metrics and the STL parameter estimator.
struct IssuerEvents {
  // Invoked exactly once per transaction, at commit.
  std::function<void(const TxnResult&)> on_commit;
  // A request message was sent (per incarnation).
  std::function<void(Protocol, OpType)> on_request_sent;
  // An incarnation aborted (reject or deadlock victim).
  std::function<void(Protocol, TxnOutcome)> on_restart;
  // Incarnation `attempt` of `txn` aborted: restarted for any reason, or
  // expired. Its records (early T/O reads) no longer count.
  std::function<void(TxnId txn, Attempt attempt)> on_abort;
  // Lock-time sample: grant-to-release (committed) or grant-to-abort
  // (aborted) for one request.
  std::function<void(Protocol, Duration, bool aborted)> on_lock_hold;
};

class RequestIssuer {
 public:
  RequestIssuer(SiteId site, CcContext ctx, const Catalog* catalog,
                IssuerOptions options, Rng rng, IssuerEvents events);

  // Admits a transaction that arrived at `arrival` (<= now) and drives it
  // to commit, restarting incarnations as its protocol requires. An
  // arrival before now makes system time include the wait before
  // admission — the engine's MPL gate uses this for arrivals parked until
  // a commit freed a slot. `compute`, when set, computes the transaction's
  // writes from its reads (e.g. banking transfers); the issuer drops it
  // when the transaction commits or expires.
  void Begin(const TxnSpec& spec, SimTime arrival, ComputeFn compute);
  void OnGrant(const msg::Grant& m);
  void OnBackoff(const msg::Backoff& m);
  void OnPaAccept(const msg::PaAccept& m);
  void OnReject(const msg::Reject& m);
  void OnVictim(const msg::Victim& m);

  // The issuer's site crashed (fail-stop) and recovers at `recover_at`:
  // every in-flight incarnation that is not yet executing aborts (its
  // reliable AbortTxns free the queue slots) and restarts no earlier than
  // recovery. Executing transactions hold every grant and are allowed to
  // finish — completing a fully granted transaction cannot violate
  // serializability.
  void OnCrash(SimTime recover_at);

  // Deadline expiry (overload control): aborts `txn`'s current incarnation
  // and removes it for good — unlike AbortAndRestart, no restart is
  // scheduled. Returns false when the transaction is unknown (already
  // committed) or executing (fully granted work is allowed to finish,
  // mirroring the crash rule); the caller counts a true return as an
  // `expired` outcome.
  bool Expire(TxnId txn);

  // True while `attempt` is `txn`'s current incarnation and it has not
  // committed.
  bool IsRunning(TxnId txn, Attempt attempt) const;
  // Number of transactions begun but not yet committed.
  std::size_t ActiveCount() const { return active_.size(); }

  SiteId site() const { return site_; }

  // Counters (cumulative over the issuer's lifetime).
  std::uint64_t commits() const { return commits_; }
  std::uint64_t reject_restarts() const { return reject_restarts_; }
  std::uint64_t deadlock_restarts() const { return deadlock_restarts_; }
  std::uint64_t timeout_restarts() const { return timeout_restarts_; }
  std::uint64_t backoff_rounds() const { return backoff_rounds_; }
  std::uint64_t semi_commits() const { return semi_commits_; }

 private:
  struct PhysReq {
    CopyId copy;
    OpType op;
  };
  struct ReqState {
    bool responded = false;  // got grant or back-off (PA round accounting)
    bool granted = false;
    bool normal = false;
    Timestamp backoff_offer = 0;
    std::uint64_t value = 0;
    bool has_value = false;
    SimTime grant_time = 0;
  };
  struct ActiveTxn {
    TxnSpec spec;
    Attempt attempt = 1;
    SimTime arrival = 0;
    SimTime attempt_start = 0;
    Timestamp ts = 0;
    Timestamp interval = 1;
    std::vector<PhysReq> reqs;
    // Per-request state, parallel to `reqs` (copies are unique within a
    // transaction: read/write sets are disjoint and writes of one item go
    // to distinct copies). Transactions touch a handful of copies, so a
    // linear scan beats a hash map and reuses its buffer across attempts.
    std::vector<ReqState> st;
    std::size_t grants = 0;
    std::size_t normals = 0;
    std::size_t responses = 0;
    bool negotiated = false;   // PA: final timestamp sent
    bool executing = false;    // compute phase scheduled
    std::uint32_t backoff_rounds = 0;
    std::uint32_t attempts_total = 1;
    ComputeFn compute;

    // Index of `copy` in reqs/st, or reqs.size() when absent.
    std::size_t FindReq(const CopyId& copy) const {
      std::size_t i = 0;
      while (i < reqs.size() && !(reqs[i].copy == copy)) ++i;
      return i;
    }
  };
  // Residual state of a T/O transaction that committed via the semi-lock
  // path: still collecting normal grants before sending releases.
  struct Lingering {
    Attempt attempt = 1;
    std::vector<CopyId> copies;
    std::vector<std::uint8_t> normal;  // parallel to `copies`
    std::size_t normals = 0;
  };

  void StartAttempt(ActiveTxn& t);
  void CheckProgress(ActiveTxn& t);
  void Execute(ActiveTxn& t);
  void Commit(ActiveTxn& t);
  // `not_before` floors the restart time (crash recovery); 0 restarts
  // after the usual exponential delay.
  void AbortAndRestart(ActiveTxn& t, TxnOutcome why, SimTime not_before = 0);
  void ReportLockHolds(const ActiveTxn& t, bool aborted);
  void FinishLingering(TxnId txn, Lingering& lg);
  // Enters `txn` into active_ in a fresh state, reusing a spare map node
  // (vector capacities retained) when one is available.
  ActiveTxn& Activate(TxnId txn);
  // Moves `txn`'s map node out of active_ onto the spare list.
  void Recycle(TxnId txn);

  ActiveTxn* FindActive(TxnId txn, Attempt attempt);

  SiteId site_;
  CcContext ctx_;
  const Catalog* catalog_;
  IssuerOptions options_;
  Rng rng_;
  IssuerEvents events_;
  TimestampGenerator tsgen_;

  using ActiveMap = std::unordered_map<TxnId, ActiveTxn>;
  ActiveMap active_;
  std::unordered_map<TxnId, Lingering> lingering_;
  // Map nodes of finished transactions, extracted from active_ and
  // inserted again under the next id. A node is made only when none is
  // spare, so active_ and spare_ together never hold more nodes than the
  // issuer's peak active count.
  std::vector<ActiveMap::node_type> spare_;

  std::uint64_t commits_ = 0;
  std::uint64_t reject_restarts_ = 0;
  std::uint64_t deadlock_restarts_ = 0;
  std::uint64_t timeout_restarts_ = 0;
  std::uint64_t backoff_rounds_ = 0;
  std::uint64_t semi_commits_ = 0;
};

}  // namespace unicc

#endif  // UNICC_CC_UNIFIED_ISSUER_H_
