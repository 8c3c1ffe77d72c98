#include "engine/builder.h"

namespace unicc {

StatusOr<std::unique_ptr<Engine>> EngineBuilder::Build() {
  if (Status s = options_.Validate(); !s.ok()) return s;
  auto engine = std::make_unique<Engine>(options_, std::move(callbacks_));
  if (policy_) engine->SetProtocolPolicy(std::move(policy_));
  for (auto& [txn, fn] : compute_) engine->SetCompute(txn, std::move(fn));
  compute_.clear();
  if (stream_ != nullptr) engine->SetArrivalStream(std::move(stream_));
  return engine;
}

}  // namespace unicc
