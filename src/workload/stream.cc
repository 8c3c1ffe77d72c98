#include "workload/stream.h"

#include <utility>

namespace unicc {

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
