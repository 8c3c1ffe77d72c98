#include "engine/builder.h"

namespace unicc {

StatusOr<std::unique_ptr<Engine>> EngineBuilder::Build() {
  if (Status s = options_.Validate(); !s.ok()) return s;
  return std::unique_ptr<Engine>(new Engine(options_, std::move(callbacks_),
                                            std::move(policy_),
                                            std::move(stream_)));
}

}  // namespace unicc
