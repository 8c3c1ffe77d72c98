// Synthetic workload generation: Poisson arrivals at rate lambda, item
// choice uniform or Zipfian, transaction size (the paper's s_t) and read
// fraction configurable, and a pluggable protocol-choice policy (fixed /
// mixed / dynamic selector).
//
// Generation is a lazy ArrivalStream (MakeGeneratorStream): arrivals are
// produced one pull at a time, so open-system runs need O(1) workload
// memory. WorkloadGenerator::Generate() drains the same stream into a
// vector for the closed-batch paths.
#ifndef UNICC_WORKLOAD_GENERATOR_H_
#define UNICC_WORKLOAD_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "txn/transaction.h"
#include "workload/stream.h"
#include "workload/zipf.h"

namespace unicc {

struct WorkloadOptions {
  // Global transaction arrival rate (transactions per simulated second).
  double arrival_rate_per_sec = 20.0;
  // Number of transactions to generate.
  std::uint64_t num_txns = 1000;
  // Transaction size s_t: items accessed, uniform in [min, max].
  std::uint32_t size_min = 4;
  std::uint32_t size_max = 4;
  // Fraction of accessed items that are read-only (rest are writes).
  double read_fraction = 0.5;
  // Zipf exponent for item popularity; 0 = uniform.
  double zipf_theta = 0.0;
  // Local computing phase duration per transaction.
  Duration compute_time = 5 * kMillisecond;

  // The generator's preconditions over `num_items` items and
  // `num_user_sites` home sites: a positive finite rate, 1 <= size_min <=
  // size_max <= num_items, read_fraction in [0, 1], zipf_theta >= 0 and at
  // least one user site. NaN fails every check.
  Status Validate(ItemId num_items, std::uint32_t num_user_sites) const;
};

// Decides the protocol of each generated transaction. The dynamic selector
// plugs in here; nullptr defaults to 2PL.
using ProtocolPolicy = std::function<Protocol(const TxnSpec&)>;

// Fixed-protocol policy.
ProtocolPolicy FixedProtocol(Protocol p);

// Random mix with the given weights (need not sum to 1).
ProtocolPolicy MixedProtocol(double w_2pl, double w_to, double w_pa,
                             Rng rng);

// Lazy stream over the WorkloadOptions workload: Poisson arrivals with
// ids 1..num_txns, protocols left as 2PL (the engine applies the policy
// at admission). Identical draw-for-draw to WorkloadGenerator::Generate().
std::unique_ptr<ArrivalStream> MakeGeneratorStream(WorkloadOptions options,
                                                   ItemId num_items,
                                                   std::uint32_t num_user_sites,
                                                   Rng rng);

class WorkloadGenerator {
 public:
  WorkloadGenerator(WorkloadOptions options, ItemId num_items,
                    std::uint32_t num_user_sites, Rng rng);

  // Compatibility alias: the arrival record predates the stream layer.
  using Arrival = unicc::Arrival;

  // Generates the full arrival schedule by draining the lazy stream.
  // Idempotent: the stream draws from a copy of the generator's Rng, so
  // every call returns the same schedule (matching BuildWorkload's
  // two-builds-are-identical contract); use a differently seeded
  // generator for an independent workload.
  std::vector<Arrival> Generate();

 private:
  WorkloadOptions options_;
  ItemId num_items_;
  std::uint32_t num_user_sites_;
  Rng rng_;
};

}  // namespace unicc

#endif  // UNICC_WORKLOAD_GENERATOR_H_
