#include "workload/stream.h"

#include <utility>

namespace unicc {

namespace {

class VectorStream final : public ArrivalStream {
 public:
  explicit VectorStream(std::vector<Arrival> arrivals)
      : arrivals_(std::move(arrivals)) {}

  bool Next(Arrival* out) override {
    if (pos_ == arrivals_.size()) return false;
    *out = std::move(arrivals_[pos_++]);
    return true;
  }

 private:
  std::vector<Arrival> arrivals_;
  std::size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<ArrivalStream> MakeVectorStream(
    std::vector<Arrival> arrivals) {
  return std::make_unique<VectorStream>(std::move(arrivals));
}

std::uint64_t PumpStream(ArrivalStream& stream,
                         const std::function<void(const Arrival&)>& fn) {
  std::uint64_t pumped = 0;
  Arrival a;
  while (stream.Next(&a)) {
    fn(a);
    ++pumped;
  }
  return pumped;
}

}  // namespace unicc
