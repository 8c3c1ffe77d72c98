// EngineBuilder: the one way to construct an Engine. It collects the full
// configuration first (callbacks, protocol policy, arrival stream),
// validates the options once and returns Status instead of aborting, so
// callers (the runner library, tools) can surface configuration errors to
// users, and no engine is ever live but half-configured.
#ifndef UNICC_ENGINE_BUILDER_H_
#define UNICC_ENGINE_BUILDER_H_

#include <memory>
#include <utility>

#include "common/status.h"
#include "engine/engine.h"

namespace unicc {

class EngineBuilder {
 public:
  explicit EngineBuilder(EngineOptions options)
      : options_(std::move(options)) {}

  EngineBuilder& WithCallbacks(EngineCallbacks callbacks) {
    callbacks_ = std::move(callbacks);
    return *this;
  }
  EngineBuilder& WithProtocolPolicy(ProtocolPolicy policy) {
    policy_ = std::move(policy);
    return *this;
  }
  EngineBuilder& WithArrivalStream(std::unique_ptr<ArrivalStream> stream) {
    stream_ = std::move(stream);
    return *this;
  }

  // Validates the options and returns the fully wired engine, or the
  // validation error. Consumes the staged callbacks, policy and stream;
  // call once.
  StatusOr<std::unique_ptr<Engine>> Build();

 private:
  EngineOptions options_;
  EngineCallbacks callbacks_;
  ProtocolPolicy policy_;
  std::unique_ptr<ArrivalStream> stream_;
};

}  // namespace unicc

#endif  // UNICC_ENGINE_BUILDER_H_
