#include "engine/sharded_engine.h"

#include <algorithm>
#include <barrier>
#include <thread>
#include <utility>

#include "common/check.h"
#include "net/sharded_transport.h"
#include "storage/replica_check.h"

namespace unicc {

namespace {
// Per-shard seed mix (splitmix64's golden-ratio increment). Shard 0 keeps
// the original seed, which is what makes a shards=1 run replay the classic
// engine's draw streams exactly.
std::uint64_t ShardSeed(std::uint64_t seed, std::uint32_t shard) {
  return seed ^ (0x9e3779b97f4a7c15ull * shard);
}
}  // namespace

struct ShardedEngine::Sync {
  std::barrier<> start;
  std::barrier<> done;
  explicit Sync(std::ptrdiff_t n) : start(n), done(n) {}
};

ShardedEngine::ShardedEngine(EngineOptions options, CallbacksFactory callbacks)
    : options_(std::move(options)),
      plan_(ShardPlan::Build(options_)),
      bus_(plan_.shards),
      directory_(plan_.shards),
      lookahead_(options_.fault.MinLinkDelay(options_.network.base_delay)) {
  UNICC_CHECK_MSG(options_.Validate().ok(), "invalid engine options");
  merged_metrics_.SetKeepResults(options_.keep_results);
  // Resolve a derived fault seed *before* per-shard seed mixing: the fault
  // schedule is positional and must be identical on every shard.
  if ((options_.fault.Active() || options_.fault.force_flaky) &&
      options_.fault.seed == 0) {
    options_.fault.seed = options_.seed ^ kFaultSeedSalt;
  }
  for (std::uint32_t s = 0; s < plan_.shards; ++s) {
    EngineOptions shard_options = options_;
    shard_options.seed = ShardSeed(options_.seed, s);
    ShardContext ctx;
    ctx.shard = s;
    ctx.plan = &plan_;
    ctx.bus = &bus_;
    ctx.directory = &directory_;
    // With one shard the engine-local stop flag serves the central
    // detector, exactly as in the classic engine; with several, only the
    // coordinator knows when every shard is done.
    ctx.global_stop = plan_.shards > 1 ? &global_stop_ : nullptr;
    engines_.push_back(std::make_unique<Engine>(
        shard_options, callbacks ? callbacks(s) : EngineCallbacks{}, ctx));
  }
}

ShardedEngine::~ShardedEngine() = default;

Status ShardedEngine::AddTransaction(SimTime when, TxnSpec spec) {
  if (spec.home >= options_.num_user_sites) {
    return Status::InvalidArgument("home is not a user site");
  }
  return engines_[plan_.OwnerOf(spec.home)]->AddTransaction(when,
                                                            std::move(spec));
}

Status ShardedEngine::AddWorkload(
    const std::vector<WorkloadGenerator::Arrival>& arrivals) {
  for (const auto& a : arrivals) {
    if (Status s = AddTransaction(a.when, a.spec); !s.ok()) return s;
  }
  return Status::OK();
}

void ShardedEngine::SetCompute(TxnId txn, ComputeFn fn) {
  for (auto& e : engines_) e->SetCompute(txn, fn);
}

void ShardedEngine::WorkerLoop(std::uint32_t shard) {
  for (;;) {
    sync_->start.arrive_and_wait();
    if (quit_) return;
    engines_[shard]->RunWindow(window_end_);
    sync_->done.arrive_and_wait();
  }
}

RunSummary ShardedEngine::Run() {
  UNICC_CHECK_MSG(!ran_, "ShardedEngine::Run may only be called once");
  ran_ = true;
  const std::uint32_t num_shards = plan_.shards;
  for (auto& e : engines_) e->BeginShardRun();

  sync_ = std::make_unique<Sync>(static_cast<std::ptrdiff_t>(num_shards) + 1);
  std::vector<std::thread> workers;
  workers.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    workers.emplace_back([this, s] { WorkerLoop(s); });
  }

  // Same livelock guard as Simulator::RunToCompletion, summed shard-wide.
  constexpr std::uint64_t kMaxEvents = 500'000'000ULL;
  bool force_stopped = false;
  // Each iteration is one barrier generation. Workers are parked on the
  // start barrier while the coordinator drains the bus and plans the next
  // window, so every shared field below is written race-free.
  for (;;) {
    for (std::uint32_t dst = 0; dst < num_shards; ++dst) {
      for (ShardEnvelope& e : bus_.DrainTo(dst)) {
        engines_[dst]->sharded_transport()->Inject(std::move(e));
      }
    }
    directory_.MergePending();

    std::uint64_t admitted = 0;
    std::uint64_t committed = 0;
    for (const auto& e : engines_) {
      admitted += e->admitted();
      committed += e->committed_count();
    }
    if (!force_stopped && committed == admitted) {
      // Batch admission is closed, everything committed: stop detector
      // ticks everywhere so residual traffic can drain.
      for (auto& e : engines_) e->ForceStop();
      global_stop_ = true;
      force_stopped = true;
    }

    SimTime next = Simulator::kNoPending;
    for (auto& e : engines_) {
      next = std::min(next, e->NextEventTime());
    }
    if (next == Simulator::kNoPending) {
      UNICC_CHECK_MSG(bus_.Empty(), "drained run left bus traffic");
      UNICC_CHECK_MSG(committed == admitted,
                      "sharded run drained with uncommitted transactions");
      quit_ = true;
      sync_->start.arrive_and_wait();  // release workers into the exit
      break;
    }
    UNICC_CHECK_MSG(TotalEventsRun() < kMaxEvents,
                    "event cap exceeded: possible livelock");
    // Fast-forward window: everything in [next, next + lookahead) is
    // causally safe, wherever each shard's clock currently is.
    window_end_ = next + lookahead_;
    sync_->start.arrive_and_wait();
    sync_->done.arrive_and_wait();
  }
  for (auto& w : workers) w.join();

  MergeResults();

  RunSummary total;
  for (const auto& e : engines_) {
    const RunSummary s = e->Summarize();
    total.admitted += s.admitted;
    total.committed += s.committed;
    total.makespan = std::max(total.makespan, s.makespan);
    total.total_messages += s.total_messages;
    total.remote_messages += s.remote_messages;
    total.deadlock_victims += s.deadlock_victims;
    total.reject_restarts += s.reject_restarts;
    total.backoff_rounds += s.backoff_rounds;
  }
  total.mean_system_time_ms = merged_metrics_.MeanSystemTimeMs();
  return total;
}

void ShardedEngine::MergeResults() {
  if (options_.metrics_window > 0) {
    merged_timeline_ =
        std::make_unique<TimelineRecorder>(options_.metrics_window);
  }
  for (const auto& e : engines_) {
    merged_metrics_.MergeFrom(e->metrics());
    if (merged_timeline_ != nullptr && e->timeline() != nullptr) {
      merged_timeline_->MergeFrom(*e->timeline());
    }
    merged_log_.MergeFrom(e->log());
    for (const auto& [txn, attempts] : e->committed_set()) {
      merged_committed_[txn] = attempts;
    }
  }
}

SerializabilityReport ShardedEngine::CheckSerializability() const {
  return ConflictGraphChecker::Check(merged_log_, merged_committed_);
}

std::vector<std::uint64_t> ShardedEngine::ReadReplicas(ItemId item) const {
  const Catalog& catalog = engines_[0]->catalog();
  std::vector<std::uint64_t> out;
  out.reserve(catalog.replication());
  for (std::uint32_t k = 0; k < catalog.replication(); ++k) {
    const CopyId copy = catalog.CopyOf(item, k);
    out.push_back(engines_[plan_.OwnerOf(copy.site)]->ReadCopy(copy));
  }
  return out;
}

bool ShardedEngine::ReplicasConsistent() const {
  return ReplicasAgree(engines_[0]->catalog(),
                       [this](SiteId site) -> const Store& {
                         return engines_[plan_.OwnerOf(site)]->StoreAt(site);
                       });
}

std::uint64_t ShardedEngine::MessagesOfKind(MessageKind k) const {
  std::uint64_t n = 0;
  for (const auto& e : engines_) n += e->transport().MessagesOfKind(k);
  return n;
}

std::uint64_t ShardedEngine::TotalEventsRun() const {
  std::uint64_t n = 0;
  for (const auto& e : engines_) n += e->simulator().EventsRun();
  return n;
}

std::uint64_t ShardedEngine::deadlock_victim_count() const {
  std::uint64_t n = 0;
  for (const auto& e : engines_) n += e->deadlock_victim_count();
  return n;
}

}  // namespace unicc
