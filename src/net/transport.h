// Message transport between sites. SimTransport models transmission delay
// (constant base + optional exponential jitter; intra-site messages use a
// separate, typically much smaller, local delay) and accounts every message
// by kind for the communication-cost experiments.
//
// Given a FaultModel, every send consults the model positionally instead
// (per-channel sequence numbers index the fault schedule): link delay
// comes from the topology tiers, lossy kinds may be dropped, duplicable
// kinds may be delivered twice, reordered messages are held back, and
// messages to a crashed site are dropped (unreliable kinds) or deferred to
// just after recovery (reliable kinds). Without one, Send draws only the
// jitter from its Rng.
#ifndef UNICC_NET_TRANSPORT_H_
#define UNICC_NET_TRANSPORT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/message.h"
#include "sim/simulator.h"

namespace unicc {

class FaultModel;

// Receives messages delivered to a site.
using SiteHandler = std::function<void(SiteId from, const Message&)>;

// Delay parameters for SimTransport.
struct NetworkOptions {
  // Fixed one-way delay between distinct sites.
  Duration base_delay = 10 * kMillisecond;
  // Mean of an additional exponential jitter term; 0 disables jitter.
  Duration jitter_mean = 0;
  // Delay for messages where from == to (request issuer co-located with the
  // data site).
  Duration local_delay = 100 * kMicrosecond;
  // Deliver messages between the same (from, to) pair in send order, like a
  // TCP session. Without this, jitter can reorder a transaction's AbortTxn
  // ahead of its own CcRequest, leaving an unreleasable zombie lock.
  bool fifo_per_channel = true;
};

// Event-driven transport over the simulator.
class SimTransport {
 public:
  // `faults`, when given, must be active (FaultModel::Active) and outlive
  // the transport.
  SimTransport(Simulator* sim, NetworkOptions options, Rng rng,
               const FaultModel* faults = nullptr);

  // Registers the handler for a site. Must be called before any message is
  // delivered to that site.
  void RegisterSite(SiteId site, SiteHandler handler);

  // Sends `m` from site `from` to site `to`; delivery is asynchronous.
  void Send(SiteId from, SiteId to, Message m);

  // --- accounting -----------------------------------------------------
  // Every message put on the wire counts, lost or not: the
  // communication-cost experiments measure what was sent.
  std::uint64_t TotalMessages() const { return total_messages_; }
  // Messages between distinct sites only (what a real network would carry).
  std::uint64_t RemoteMessages() const { return remote_messages_; }
  std::uint64_t MessagesOfKind(MessageKind k) const {
    return by_kind_[static_cast<std::size_t>(k)];
  }
  // Messages the fault model dropped, and extra copies it delivered.
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t duplicated() const { return duplicated_; }
  void ResetCounters();

 private:
  Duration DelayFor(SiteId from, SiteId to);
  void Account(const Message& m, bool remote);
  // Send under the fault model.
  void SendWithFaults(SiteId from, SiteId to, Message m);
  // Applies the model's crash gating to a delivery at `deliver`: returns
  // false when the message is dropped (receiver down, unreliable kind);
  // otherwise `*deliver` is pushed past recovery for reliable kinds.
  bool CrashAdjust(MessageKind kind, SiteId from, SiteId to,
                   std::uint64_t seq, SimTime* deliver);
  // Applies FIFO-per-channel ordering: returns `deliver`, pushed past the
  // last delivery already scheduled on the (from, to) channel, and records
  // it as the channel's new high-water mark. Identity when
  // fifo_per_channel is off.
  SimTime ClampFifo(SiteId from, SiteId to, SimTime deliver);
  void ScheduleDelivery(SimTime when, SiteId from, SiteId to, Message m);

  // In-flight messages live in a free-listed pool; the delivery event
  // captures only the node index, so it fits EventFn's inline buffer and
  // the steady-state send/deliver cycle performs no heap allocation.
  std::uint32_t AcquireNode(Message m);
  void Deliver(SiteId from, SiteId to, std::uint32_t node);

  Simulator* sim_;
  NetworkOptions options_;
  Rng rng_;
  const FaultModel* faults_;
  std::vector<SiteHandler> handlers_;
  // Last scheduled delivery time per (from, to) channel (FIFO
  // enforcement), as a flat site x site matrix: all sites register before
  // the first send, so the matrix is sized once.
  std::vector<SimTime> last_delivery_;
  std::size_t channel_stride_ = 0;
  std::vector<Message> pool_;             // in-flight message nodes
  std::vector<std::uint32_t> pool_free_;  // recycled node indices
  std::uint64_t total_messages_ = 0;
  std::uint64_t remote_messages_ = 0;
  std::array<std::uint64_t, static_cast<std::size_t>(MessageKind::kNumKinds)>
      by_kind_{};
  // --- fault path only ---
  // Next per-channel ordinal (the fault schedule's position index), keyed
  // by (from << 32 | to).
  std::unordered_map<std::uint64_t, std::uint64_t> fault_seq_;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
};

}  // namespace unicc

#endif  // UNICC_NET_TRANSPORT_H_
