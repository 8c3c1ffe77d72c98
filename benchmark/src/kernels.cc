#include "kernels.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cc/backend.h"
#include "cc/unified/queue_manager.h"
#include "common/check.h"
#include "common/rng.h"
#include "deadlock/wfg.h"
#include "engine/builder.h"
#include "net/transport.h"
#include "scenario/scenario.h"
#include "selector/selector.h"
#include "serializability/conflict_graph.h"
#include "sim/simulator.h"
#include "stl/estimators.h"
#include "storage/log.h"
#include "storage/store.h"
#include "trace.h"
#include "workload/zipf.h"

namespace unicc::bench {

namespace {

// Keeps kernel results observable so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

// Runs `batch` (which returns the number of operations it performed) once
// to warm up, then until `min_seconds` have passed; returns ns per op.
template <typename F>
double NsPerOp(F&& batch, double min_seconds) {
  batch();
  const Clock::time_point start = Clock::now();
  double ops = 0;
  std::int64_t elapsed = 0;
  do {
    ops += static_cast<double>(batch());
    elapsed = ElapsedNs(start);
  } while (static_cast<double>(elapsed) < min_seconds * 1e9);
  return static_cast<double>(elapsed) / ops;
}

// A two-site transport whose handlers drop everything: the substrate the
// queue-manager kernels send their grants over.
struct TwoSites {
  TwoSites() : transport(&sim, Options(), Rng(2)) {
    transport.RegisterSite(0, [](SiteId, const Message&) {});
    transport.RegisterSite(1, [](SiteId, const Message&) {});
  }
  static NetworkOptions Options() {
    NetworkOptions net;
    net.base_delay = 1;
    net.local_delay = 1;
    return net;
  }
  Simulator sim;
  SimTransport transport;
  ImplementationLog log;
};

msg::CcRequest WriteRequest(TxnId txn, const CopyId& copy) {
  msg::CcRequest req;
  req.txn = txn;
  req.attempt = 1;
  req.copy = copy;
  req.op = OpType::kWrite;
  req.proto = Protocol::kTwoPhaseLocking;
  req.reply_to = 0;
  return req;
}

double ScheduleRunNs(double min_s) {
  Simulator sim;
  std::uint64_t ran = 0;
  const double ns = NsPerOp(
      [&] {
        for (int i = 0; i < 1000; ++i) {
          sim.Schedule(static_cast<Duration>(i % 97), [&ran] { ++ran; });
        }
        sim.RunToCompletion();
        return 1000;
      },
      min_s);
  g_sink = g_sink + ran;
  return ns;
}

double SendDeliverNs(double min_s) {
  Simulator sim;
  SimTransport transport(&sim, TwoSites::Options(), Rng(2));
  std::uint64_t delivered = 0;
  transport.RegisterSite(0, [](SiteId, const Message&) {});
  transport.RegisterSite(1,
                         [&delivered](SiteId, const Message&) { ++delivered; });
  TxnId txn = 0;
  const double ns = NsPerOp(
      [&] {
        for (int i = 0; i < 1000; ++i) transport.Send(0, 1, msg::Victim{++txn});
        sim.RunToCompletion();
        return 1000;
      },
      min_s);
  g_sink = g_sink + delivered;
  return ns;
}

double QmGrantReleaseNs(double min_s) {
  TwoSites s;
  UnifiedQueueManager qm(1, CcContext{&s.sim, &s.transport, &s.log},
                         UnifiedQmOptions{});
  const CopyId copy{0, 1};
  TxnId txn = 1;
  return NsPerOp(
      [&] {
        for (int i = 0; i < 256; ++i, ++txn) {
          qm.OnRequest(WriteRequest(txn, copy));
          qm.OnRelease(msg::Release{txn, 1, copy, true, txn});
          s.sim.RunToCompletion();
        }
        return 256;
      },
      min_s);
}

double FindCycleUs(double min_s) {
  WaitForGraph g;
  Rng rng(5);
  while (g.NumEdges() < 4096) {
    const TxnId a = rng.UniformInt(2048);
    const TxnId b = rng.UniformInt(2048);
    if (a != b) g.AddEdge(a < b ? a : b, a < b ? b : a);  // acyclic
  }
  return NsPerOp(
             [&] {
               g_sink = g_sink + g.FindCycle().size();
               return 1;
             },
             min_s) *
         1e-3;
}

// An estimator fed a plausible mix of every intake event.
ParamEstimator FedEstimator() {
  ParamEstimator est;
  for (int i = 0; i < 3000; ++i) {
    const auto p = static_cast<Protocol>(i % kNumProtocols);
    const OpType op = i % 4 == 0 ? OpType::kWrite : OpType::kRead;
    est.OnRequestSent(p, op);
    est.OnGrant(op);
    est.OnLockHold(p, 5 * kMillisecond, i % 50 == 0);
    if (i % 40 == 0) est.OnReject(op, p);
    if (i % 60 == 0) est.OnBackoffOffer(op);
    if (i % 3 == 0) {
      TxnResult r;
      r.id = static_cast<TxnId>(i);
      r.protocol = p;
      r.arrival = static_cast<SimTime>(i) * kMillisecond;
      r.commit = r.arrival + 40 * kMillisecond;
      r.num_requests = 3;
      est.OnCommit(r);
    }
    if (i % 90 == 0) est.OnRestart(p, TxnOutcome::kRestartedByDeadlock);
  }
  return est;
}

double SnapshotNs(double min_s) {
  const ParamEstimator est = FedEstimator();
  return NsPerOp(
      [&] {
        for (int i = 0; i < 1000; ++i) {
          const SystemParams sys = est.Snapshot(10 * kSecond, 400);
          g_sink = g_sink + static_cast<std::uint64_t>(sys.lambda_a);
        }
        return 1000;
      },
      min_s);
}

double SelectorRefreshUs(double min_s) {
  const ParamEstimator est = FedEstimator();
  Simulator sim;
  sim.Schedule(10 * kSecond, [] {});
  sim.RunToCompletion();  // a non-zero clock for throughput snapshots
  const MinStlSelector selector(&sim, &est, 400);
  return NsPerOp(
             [&] {
               const double stl = selector.EstimateFor({2, 1}).stl_2pl;
               g_sink = g_sink + static_cast<std::uint64_t>(stl);
               return 1;
             },
             min_s) *
         1e-3;
}

double StoreRwNs(double min_s) {
  constexpr ItemId kCopies = 1 << 16;
  Store store;
  return NsPerOp(
      [&] {
        std::uint64_t sum = 0;
        for (ItemId i = 0; i < kCopies; ++i) {
          const CopyId c{i, i % 8};
          store.Write(c, i);
          sum += store.Read(c);
        }
        g_sink = g_sink + sum;
        return kCopies;
      },
      min_s);
}

// Engine::ReplicasConsistent over a 2^20-item, 2-replica keyspace of
// which only a few hundred copies were ever written: the per-copy cost of
// the post-run verify loop, which probes every copy in the keyspace.
double ReplicaProbeNs(double min_s) {
  EngineOptions options;
  options.num_items = 1 << 20;
  options.replication = 2;
  auto built = EngineBuilder(options).Build();
  UNICC_CHECK(built.ok());
  std::unique_ptr<Engine> engine = std::move(built).value();
  for (TxnId t = 1; t <= 256; ++t) {
    TxnSpec spec;
    spec.id = t;
    spec.home = static_cast<SiteId>(t % options.num_user_sites);
    spec.write_set = {static_cast<ItemId>(t * 4099 % options.num_items)};
    UNICC_CHECK(engine->AddTransaction(t * kMillisecond, spec).ok());
  }
  engine->Run();
  const double copies =
      static_cast<double>(options.num_items) * options.replication;
  return NsPerOp(
             [&] {
               UNICC_CHECK(engine->ReplicasConsistent());
               return 1;
             },
             min_s) /
         copies;
}

double ZipfRejectionNs(double min_s) {
  const ZipfRejectionSampler zipf(8388608, 0.99);
  Rng rng(7);
  return NsPerOp(
      [&] {
        std::uint64_t sum = 0;
        for (int i = 0; i < 10000; ++i) sum += zipf.Next(rng);
        g_sink = g_sink + sum;
        return 10000;
      },
      min_s);
}

// A YCSB-like class over 131072 items; its stream never runs dry.
constexpr char kPullScenario[] = R"(
[scenario]
name = stream-pull-kernel

[engine]
items = 131072

[class ops]
txns = 100000000
rate = 1000
size = 1..3
read_fraction = 0.9
access = zipf
theta = 0.99
)";

double StreamPullNs(double min_s) {
  auto spec = ScenarioSpec::Parse(kPullScenario);
  UNICC_CHECK(spec.ok());
  ScenarioSpec::OpenWorkload open = spec->Open();
  Arrival a;
  return NsPerOp(
      [&] {
        for (int i = 0; i < 10000; ++i) UNICC_CHECK(open.stream->Next(&a));
        g_sink = g_sink + a.spec.id;
        return 10000;
      },
      min_s);
}

// A serial history of 50k read-one/write-one transactions over 4096
// copies: 100k log records with long last-writer chains.
double CheckNsPerRecord(double min_s) {
  ImplementationLog log;
  CommittedSet committed;
  for (TxnId t = 1; t <= 50000; ++t) {
    const SimTime when = t * 10;
    log.Append(CopyId{static_cast<ItemId>(t % 4096), 0}, t, 1, OpType::kRead,
               when);
    log.Append(CopyId{static_cast<ItemId>(t * 7 % 4096), 0}, t, 1,
               OpType::kWrite, when + 1);
    committed[t] = 1;
  }
  const double records = static_cast<double>(log.TotalRecords());
  return NsPerOp(
             [&] {
               UNICC_CHECK(
                   ConflictGraphChecker::Check(log, committed).serializable);
               return 1;
             },
             min_s) /
         records;
}

}  // namespace

double CollectEdgesUs(std::uint32_t queues, double min_s) {
  TwoSites s;
  UnifiedQueueManager qm(1, CcContext{&s.sim, &s.transport, &s.log},
                         UnifiedQmOptions{});
  for (std::uint32_t q = 0; q < queues; ++q) {
    const CopyId copy{q, 1};
    qm.OnRequest(WriteRequest(q + 1, copy));
    qm.OnRelease(msg::Release{q + 1, 1, copy, true, q});
  }
  s.sim.RunToCompletion();
  std::vector<WaitEdge> edges;
  return NsPerOp(
             [&] {
               edges.clear();
               qm.CollectWaitEdges(&edges);
               return 1;
             },
             min_s) *
         1e-3;
}

KernelCosts RunKernels(double min_seconds) {
  KernelCosts k;
  k.sim_schedule_run_ns = ScheduleRunNs(min_seconds);
  k.net_send_deliver_ns = SendDeliverNs(min_seconds);
  k.cc_qm_grant_release_ns = QmGrantReleaseNs(min_seconds);
  k.collect_edges_us_q64 = CollectEdgesUs(64, min_seconds);
  k.collect_edges_us_q131072 = CollectEdgesUs(131072, min_seconds);
  k.find_cycle_us_e4096 = FindCycleUs(min_seconds);
  k.stl_snapshot_ns = SnapshotNs(min_seconds);
  k.selector_refresh_us = SelectorRefreshUs(min_seconds);
  k.store_rw_ns = StoreRwNs(min_seconds);
  k.replica_probe_ns = ReplicaProbeNs(min_seconds);
  k.zipf_rejection_ns = ZipfRejectionNs(min_seconds);
  k.stream_pull_ns = StreamPullNs(min_seconds);
  k.check_ns_per_record = CheckNsPerRecord(min_seconds);
  return k;
}

}  // namespace unicc::bench
