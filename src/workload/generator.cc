#include "workload/generator.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/check.h"

namespace unicc {

Status WorkloadOptions::Validate(ItemId num_items,
                                 std::uint32_t num_user_sites) const {
  const char* bad = nullptr;
  if (!(arrival_rate_per_sec > 0) || !std::isfinite(arrival_rate_per_sec)) {
    bad = "arrival rate must be finite and > 0";
  } else if (size_min < 1 || size_min > size_max) {
    bad = "need 1 <= size_min <= size_max";
  } else if (size_max > num_items) {
    bad = "size_max exceeds the item count";
  } else if (!(read_fraction >= 0 && read_fraction <= 1)) {
    bad = "read fraction must be in [0, 1]";
  } else if (!(zipf_theta >= 0) || !std::isfinite(zipf_theta)) {
    bad = "zipf theta must be finite and >= 0";
  } else if (num_user_sites == 0) {
    bad = "need at least one user site";
  }
  return bad == nullptr ? Status::OK() : Status::InvalidArgument(bad);
}

ProtocolPolicy FixedProtocol(Protocol p) {
  return [p](const TxnSpec&) { return p; };
}

ProtocolPolicy MixedProtocol(double w_2pl, double w_to, double w_pa,
                             Rng rng) {
  const double total = w_2pl + w_to + w_pa;
  UNICC_CHECK(total > 0);
  auto state = std::make_shared<Rng>(rng);
  return [=](const TxnSpec&) {
    const double u = state->UniformDouble() * total;
    if (u < w_2pl) return Protocol::kTwoPhaseLocking;
    if (u < w_2pl + w_to) return Protocol::kTimestampOrdering;
    return Protocol::kPrecedenceAgreement;
  };
}

namespace {

class GeneratorStream final : public ArrivalStream {
 public:
  GeneratorStream(WorkloadOptions options, ItemId num_items,
                  std::uint32_t num_user_sites, Rng rng)
      : options_(options),
        num_items_(num_items),
        num_user_sites_(num_user_sites),
        rng_(rng),
        zipf_(num_items, options.zipf_theta),
        mean_gap_us_(1e6 / options.arrival_rate_per_sec) {
    UNICC_CHECK(options_.Validate(num_items, num_user_sites).ok());
  }

  bool Next(Arrival* out) override {
    if (next_id_ > options_.num_txns) return false;
    t_ += rng_.Exponential(mean_gap_us_);
    out->when = static_cast<SimTime>(t_);
    out->spec = MakeSpec(next_id_++);
    return true;
  }

 private:
  TxnSpec MakeSpec(TxnId id) {
    TxnSpec spec;
    spec.id = id;
    spec.home = static_cast<SiteId>(rng_.UniformInt(num_user_sites_));
    spec.compute_time = options_.compute_time;
    const std::uint32_t size = static_cast<std::uint32_t>(
        rng_.UniformRange(options_.size_min, options_.size_max));
    // Draw `size` distinct items (Zipfian draws retried on duplicates).
    std::vector<ItemId> items;
    items.reserve(size);
    while (items.size() < size) {
      const ItemId item = static_cast<ItemId>(zipf_.Next(rng_));
      if (std::find(items.begin(), items.end(), item) == items.end()) {
        items.push_back(item);
      }
    }
    for (ItemId item : items) {
      if (rng_.Bernoulli(options_.read_fraction)) {
        spec.read_set.push_back(item);
      } else {
        spec.write_set.push_back(item);
      }
    }
    // Every transaction must access at least one item in some mode; the
    // split above guarantees that because `items` is non-empty.
    return spec;
  }

  WorkloadOptions options_;
  ItemId num_items_;
  std::uint32_t num_user_sites_;
  Rng rng_;
  ZipfGenerator zipf_;
  double mean_gap_us_;  // exponential inter-arrival mean
  double t_ = 0;
  TxnId next_id_ = 1;
};

}  // namespace

std::unique_ptr<ArrivalStream> MakeGeneratorStream(
    WorkloadOptions options, ItemId num_items, std::uint32_t num_user_sites,
    Rng rng) {
  return std::make_unique<GeneratorStream>(options, num_items,
                                           num_user_sites, rng);
}

WorkloadGenerator::WorkloadGenerator(WorkloadOptions options,
                                     ItemId num_items,
                                     std::uint32_t num_user_sites, Rng rng)
    : options_(options),
      num_items_(num_items),
      num_user_sites_(num_user_sites),
      rng_(rng) {}

std::vector<WorkloadGenerator::Arrival> WorkloadGenerator::Generate() {
  auto stream = MakeGeneratorStream(options_, num_items_, num_user_sites_,
                                    rng_);
  std::vector<Arrival> arrivals =
      DrainStream(*stream, static_cast<std::size_t>(options_.num_txns));
  UNICC_CHECK(arrivals.size() == options_.num_txns);
  return arrivals;
}

}  // namespace unicc
