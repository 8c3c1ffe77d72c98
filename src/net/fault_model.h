// Declarative network fault/topology model for the deterministic
// simulator. FaultOptions describes the link topology (region tiers with
// LAN/WAN/geo latency classes), seeded message loss / duplication /
// reordering and site crash-and-recover events; FaultModel answers the
// per-message questions a transport asks (link delay, drop/duplicate
// decision, crash windows).
//
// Every decision is *positional*: a pure hash of (fault seed, channel,
// per-channel sequence number, purpose salt), never a stateful RNG
// stream. That is what makes fault schedules bit-reproducible under a
// fixed [fault] seed (the same (from, to, seq) message always gets the
// same fate) and free on the no-fault path (the engine builds a model
// only when a fault knob is set, and SimTransport without one draws
// nothing extra).
//
// Message-kind semantics (see docs/architecture.md, "Fault model"):
//   reliable   — {Grant, FinalTs, Release, SemiTransform, AbortTxn} are
//                never lost: losing one can strand committed state (a
//                semi-committed T/O transaction waits forever for a lost
//                normal-upgrade Grant; a lost Release leaves zombie
//                locks) and no timeout may restart a committed
//                transaction. Models "retransmit until acked".
//   lossy      — everything else (CcRequest, PA negotiation replies,
//                Reject, Victim, detector traffic) may be dropped;
//                issuer request timeouts and detector round timeouts
//                recover liveness.
//   duplicable — idempotent-at-the-receiver kinds only ({Grant, Backoff,
//                PaAccept, Reject, Victim}).
#ifndef UNICC_NET_FAULT_MODEL_H_
#define UNICC_NET_FAULT_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "net/message.h"
#include "net/transport.h"

namespace unicc {

// Mixed into the engine seed to derive a fault seed when none is given.
constexpr std::uint64_t kFaultSeedSalt = 0xf4a7c159e3779b97ull;

// One fail-stop site outage: the site is down in [at, at + down). While
// down, unreliable inbound messages are dropped and reliable ones are
// deferred to just after recovery; queue-manager state is durable.
struct CrashEvent {
  SiteId site = 0;
  SimTime at = 0;
  Duration down = 0;
};

struct FaultOptions {
  // Seed of the positional fault hash; 0 derives one from the engine seed.
  std::uint64_t seed = 0;

  // --- topology ([topology] scenario section) -------------------------
  // Number of latency regions; 0 disables the topology layer (the flat
  // base_delay mesh of NetworkOptions applies).
  std::uint32_t regions = 0;
  enum class Placement : std::uint8_t {
    kBlocked = 0,     // contiguous site-id blocks per region
    kInterleave = 1,  // site id modulo regions
  };
  Placement placement = Placement::kBlocked;
  // Tier delays: same region -> LAN, adjacent regions -> WAN, further ->
  // geo. Requires lan <= wan <= geo and lan > 0.
  Duration lan_delay = 1 * kMillisecond;
  Duration wan_delay = 30 * kMillisecond;
  Duration geo_delay = 100 * kMillisecond;
  // Mean of the per-tier exponential jitter term; 0 disables.
  Duration lan_jitter = 0;
  Duration wan_jitter = 0;
  Duration geo_jitter = 0;

  // --- message faults ([fault] scenario section) ----------------------
  double loss = 0;       // per-message drop probability (lossy kinds only)
  double duplicate = 0;  // duplication probability (duplicable kinds only)
  // Reordering: with probability `reorder` a message is held back by a
  // uniform extra delay in (0, reorder_delay]. FIFO per channel is still
  // enforced, so reordering manifests across channels (e.g. a Victim
  // overtaking the CcRequest path it races).
  double reorder = 0;
  Duration reorder_delay = 20 * kMillisecond;

  std::vector<CrashEvent> crashes;

  // True when any knob changes message behavior (topology, loss,
  // duplication, reordering or crashes).
  bool Active() const;

  // Structural validation; `total_sites` bounds crash site ids (user +
  // data sites; the detector site is not crashable).
  Status Validate(std::uint32_t total_sites) const;
};

class FaultModel {
 public:
  // `total_sites` covers every addressable site (user + data + detector).
  FaultModel(const FaultOptions& options, const NetworkOptions& network,
             std::uint32_t total_sites);

  bool Active() const { return active_; }
  std::uint64_t seed() const { return options_.seed; }
  const FaultOptions& options() const { return options_; }

  // Per-message fate; `seq` is the per-channel ordinal maintained by the
  // transport. Pure functions of (seed, from, to, seq).
  struct Decision {
    bool drop = false;
    bool duplicate = false;
    Duration extra = 0;      // reorder hold-back for the original
    Duration dup_extra = 0;  // additional hold-back for the duplicate
  };
  Decision Decide(MessageKind kind, SiteId from, SiteId to,
                  std::uint64_t seq) const;

  // Link latency for this message: tier base + hashed exponential jitter
  // when the topology is enabled, else NetworkOptions base + hashed
  // jitter. from == to keeps the local delay.
  Duration LinkDelay(SiteId from, SiteId to, std::uint64_t seq) const;

  // Crash schedule (options-driven, not seeded).
  bool DownAt(SiteId site, SimTime t) const;
  // End of the outage covering `t` (chains overlapping outages); `t`
  // itself when the site is up.
  SimTime RecoverTime(SiteId site, SimTime t) const;

  std::uint32_t RegionOf(SiteId site) const;

  // Never dropped (losing one strands committed state).
  static bool Reliable(MessageKind k);
  // Safe to deliver twice (receiver handling is idempotent).
  static bool Duplicable(MessageKind k);

 private:
  std::uint64_t Draw(std::uint64_t salt, SiteId from, SiteId to,
                     std::uint64_t seq) const;

  FaultOptions options_;
  NetworkOptions network_;
  std::uint32_t total_sites_;
  bool active_ = false;
};

}  // namespace unicc

#endif  // UNICC_NET_FAULT_MODEL_H_
