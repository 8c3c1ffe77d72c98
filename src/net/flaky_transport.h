// Fault-injecting decorator over SimTransport. With an active FaultModel
// every send consults the model positionally (per-channel sequence
// numbers index the fault schedule): link delay comes from the topology
// tiers, lossy kinds may be dropped, duplicable kinds may be delivered
// twice, reordered messages are held back, and messages to a crashed site
// are dropped (unreliable kinds) or deferred to just after recovery
// (reliable kinds).
//
// With an inactive model (or none) Send falls straight through to
// SimTransport::Send and performs zero extra RNG draws — a no-fault
// FlakyTransport run is byte-identical to a SimTransport run.
#ifndef UNICC_NET_FLAKY_TRANSPORT_H_
#define UNICC_NET_FLAKY_TRANSPORT_H_

#include <cstdint>
#include <unordered_map>

#include "common/rng.h"
#include "net/fault_model.h"
#include "net/transport.h"

namespace unicc {

class FlakyTransport : public SimTransport {
 public:
  // `model` may be null (plain SimTransport behavior) and must outlive
  // the transport.
  FlakyTransport(Simulator* sim, NetworkOptions options, Rng rng,
                 const FaultModel* model);

  void Send(SiteId from, SiteId to, Message m) override;

  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t duplicated() const { return duplicated_; }

 private:
  // Next per-channel ordinal (the fault schedule's position index).
  std::uint64_t NextSeq(SiteId from, SiteId to);
  // Applies the model's crash gating to a delivery at `deliver`: returns
  // false when the message is dropped (receiver down, unreliable kind);
  // otherwise `*deliver` is pushed past recovery for reliable kinds.
  bool CrashAdjust(MessageKind kind, SiteId from, SiteId to,
                   std::uint64_t seq, SimTime* deliver);

  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  const FaultModel* model_;
  std::unordered_map<std::uint64_t, std::uint64_t> seq_;
};

}  // namespace unicc

#endif  // UNICC_NET_FLAKY_TRANSPORT_H_
