// perf_gate: the performance regression gate for the simulation core.
//
// Measures a small set of hot-path kernels plus one scaled-up end-to-end
// scenario run, writes the results as BENCH_core.json, and (in gate mode)
// compares them against a committed baseline with a tolerance band:
//
//   perf_gate --out=BENCH_core.json            # measure, write baseline
//   perf_gate --baseline=BENCH_core.json       # measure, gate (exit 1 on
//                                              #   regression)
//
// Kernels (items/sec, higher is better):
//   sim_schedule_run   events through Schedule() + RunToCompletion()
//   sim_cancel_churn   schedule/cancel pairs drained by the run loop
//   qm_grant_release   unified-QM write grant/release cycles
//   scenario_e2e       committed transactions/sec, wall clock, on a
//                      scaled-up declarative scenario (batch admission)
//   stream_admission   the same scenario pulled through the open-system
//                      arrival stream under an MPL cap (lazy admission
//                      gate + deferral path)
//   partitioned_run    the 8x8 partitioned macro scenario (its exact
//                      digest, partitioned_digest, pins the partitioned
//                      access pattern's results)
//   faulty_run         the seeded flaky scenario (message loss /
//                      duplication / reordering + recovery timeouts);
//                      its exact digest, faulty_digest, pins the fault
//                      schedule and the recovery machinery
//   overload_run       the bounded-admission scenario at 2x offered load
//                      (deadline shedding + retry backoff); its exact
//                      digest, overload_digest, additionally folds the
//                      shed/expired/retried/goodput counters
//   macro_run          the macro-tier [table] scenario (2M-item YCSB mix)
//                      as authored; its exact digest, macro_digest, pins
//                      the table layout, scan machinery and the
//                      rejection-inversion Zipf sampler
//   trace_write        UCTC v2 block-columnar trace encode, MB/sec
//   trace_replay       UCTC v2 block decode through the ArrivalStream
//                      reader, MB/sec; the exact round-trip digest,
//                      trace_digest, pins bit-identical record -> replay
//
// --trace-roundtrip=N runs a streaming generator -> writer -> reader
// round trip of N transactions through an on-disk v2 file (bounded
// memory, any N) and exits; CI runs 10^6 on every push and 10^8 nightly.
//
// Wall-clock rates are machine-dependent, so the gate uses a tolerance
// band (default: fail below 0.5x baseline) — wide enough for runner
// variance, tight enough to catch a reintroduced per-event allocation or
// an accidental O(n^2). Two kinds of machine-independent invariants are
// checked exactly: the result digests (the simulation is deterministic;
// any digest change means results changed, not just speed) and the
// steady-state arena property (the event loop must not grow its slot
// arena while load is constant). See docs/performance.md for how to
// refresh the baseline.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cc/unified/queue_manager.h"
#include "common/rng.h"
#include "flags.h"
#include "net/transport.h"
#include "runner/runner.h"
#include "scenario/ini.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"
#include "storage/log.h"
#include "workload/generator.h"
#include "workload/trace_io.h"

namespace {

using namespace unicc;
using flags::ParseFlag;
using flags::ParseNumberFlag;

struct KernelResult {
  std::string name;
  std::string items;  // unit label: "events", "cycles", "txns"
  double items_per_sec = 0;
};

// One pinned result digest: written to and read from the report as
// "<key>_digest", measured on `scenario` ("" for the synthetic trace
// workload). `message` says what a changed value means.
struct Digest {
  const char* key;
  std::string scenario;
  std::uint64_t value;
  const char* message;
};

double NowSeconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// Runs `batch` (which returns the number of items it processed) until at
// least `min_seconds` of wall clock have been consumed, after one warm-up
// call, and returns items/sec.
template <typename F>
double MeasureRate(F&& batch, double min_seconds) {
  batch();  // warm-up: page in code, grow arenas to steady state
  double total_items = 0;
  const double start = NowSeconds();
  double elapsed = 0;
  do {
    total_items += static_cast<double>(batch());
    elapsed = NowSeconds() - start;
  } while (elapsed < min_seconds);
  return total_items / elapsed;
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

KernelResult KernelScheduleRun(double min_seconds, bool* arena_stable) {
  Simulator sim;
  std::uint64_t sink = 0;
  auto batch = [&sim, &sink] {
    for (int i = 0; i < 1000; ++i) {
      sim.Schedule(static_cast<Duration>(i % 97), [&sink] { ++sink; });
    }
    sim.RunToCompletion();
    return 1000u;
  };
  // Steady-state invariant: once warm, a constant-load schedule/run cycle
  // must not keep growing the event arena (i.e. no per-event allocation).
  batch();
  const std::size_t warm = sim.ArenaSlots();
  batch();
  if (sim.ArenaSlots() != warm) *arena_stable = false;
  KernelResult r;
  r.name = "sim_schedule_run";
  r.items = "events";
  r.items_per_sec = MeasureRate(batch, min_seconds);
  return r;
}

KernelResult KernelCancelChurn(double min_seconds) {
  Simulator sim;
  std::uint64_t sink = 0;
  std::vector<std::uint64_t> ids(1000);
  auto batch = [&] {
    for (int i = 0; i < 1000; ++i) {
      ids[static_cast<std::size_t>(i)] =
          sim.Schedule(static_cast<Duration>(i % 97), [&sink] { ++sink; });
    }
    // Cancel every other event, then drain the rest.
    for (int i = 0; i < 1000; i += 2) {
      sim.Cancel(ids[static_cast<std::size_t>(i)]);
    }
    sim.RunToCompletion();
    return 1000u;
  };
  KernelResult r;
  r.name = "sim_cancel_churn";
  r.items = "events";
  r.items_per_sec = MeasureRate(batch, min_seconds);
  return r;
}

KernelResult KernelQmGrantRelease(double min_seconds) {
  Simulator sim;
  NetworkOptions net;
  net.base_delay = 1;
  net.local_delay = 1;
  SimTransport transport(&sim, net, Rng(2));
  ImplementationLog log;
  transport.RegisterSite(0, [](SiteId, const Message&) {});
  transport.RegisterSite(1, [](SiteId, const Message&) {});
  CcContext ctx{&sim, &transport, &log};
  UnifiedQueueManager qm(1, ctx, UnifiedQmOptions{});
  const CopyId copy{0, 1};
  TxnId txn = 1;
  auto batch = [&] {
    for (int i = 0; i < 256; ++i) {
      msg::CcRequest req;
      req.txn = txn;
      req.attempt = 1;
      req.copy = copy;
      req.op = OpType::kWrite;
      req.proto = Protocol::kTwoPhaseLocking;
      req.reply_to = 0;
      qm.OnRequest(req);
      qm.OnRelease(msg::Release{txn, 1, copy, true, txn});
      sim.RunToCompletion();
      ++txn;
    }
    return 256u;
  };
  KernelResult r;
  r.name = "qm_grant_release";
  r.items = "cycles";
  r.items_per_sec = MeasureRate(batch, min_seconds);
  return r;
}

// ---------------------------------------------------------------------------
// Trace I/O kernels (UCTC v2 codec throughput + exact round-trip digest)
// ---------------------------------------------------------------------------

// Deterministic workload for the trace kernels; fixed seed and parameters
// so the round-trip digest is machine-independent.
std::vector<Arrival> MakeTraceWorkload(std::uint64_t n) {
  WorkloadOptions wo;
  wo.arrival_rate_per_sec = 1000;
  wo.num_txns = n;
  wo.size_min = 4;
  wo.size_max = 8;
  wo.read_fraction = 0.5;
  WorkloadGenerator gen(wo, /*num_items=*/100000, /*num_user_sites=*/8,
                        Rng(0x7ace));
  return gen.Generate();
}

// Encodes `arrivals` through the block writer into an in-memory sink (the
// kernels measure codec throughput, not disk).
std::string EncodeTraceV2(const std::vector<Arrival>& arrivals, bool* ok) {
  std::ostringstream sink;
  auto writer = TraceWriter::ToStream(&sink);
  if (!writer.ok()) {
    std::fprintf(stderr, "perf_gate: trace encode failed: %s\n",
                 writer.status().ToString().c_str());
    *ok = false;
    return std::string();
  }
  Status s;
  for (const Arrival& a : arrivals) {
    if (s = (*writer)->Append(a); !s.ok()) break;
  }
  if (s.ok()) s = (*writer)->Finish();
  if (!s.ok()) {
    std::fprintf(stderr, "perf_gate: trace encode failed: %s\n",
                 s.ToString().c_str());
    *ok = false;
    return std::string();
  }
  return std::move(sink).str();
}

KernelResult KernelTraceWrite(double min_seconds,
                              const std::vector<Arrival>& arrivals,
                              double encoded_mb, bool* ok) {
  KernelResult r;
  r.name = "trace_write";
  r.items = "MB";
  r.items_per_sec = MeasureRate(
      [&arrivals, encoded_mb, ok] {
        bool enc_ok = true;
        EncodeTraceV2(arrivals, &enc_ok);
        if (!enc_ok) *ok = false;
        return encoded_mb;
      },
      min_seconds);
  return r;
}

KernelResult KernelTraceReplay(double min_seconds, const std::string& bytes,
                               std::uint64_t write_digest,
                               std::uint64_t* trace_digest, bool* ok) {
  KernelResult r;
  r.name = "trace_replay";
  r.items = "MB";
  const double mb = static_cast<double>(bytes.size()) / 1e6;
  std::istringstream in(bytes);
  // Verified pass before timing anything: decode everything, fold the
  // reader-side digest, and require an exact round trip.
  {
    auto reader = TraceReader::FromStream(&in);
    if (!reader.ok()) {
      std::fprintf(stderr, "perf_gate: trace decode failed: %s\n",
                   reader.status().ToString().c_str());
      *ok = false;
      return r;
    }
    std::uint64_t d = kTraceDigestSeed;
    Arrival a;
    while ((*reader)->Next(&a)) d = FoldArrivalDigest(d, a);
    if (!(*reader)->status().ok()) {
      std::fprintf(stderr, "perf_gate: trace decode failed: %s\n",
                   (*reader)->status().ToString().c_str());
      *ok = false;
      return r;
    }
    if (d != write_digest) {
      std::fprintf(stderr,
                   "perf_gate: FAIL trace round trip is not bit-identical "
                   "(%016llx -> %016llx)\n",
                   static_cast<unsigned long long>(write_digest),
                   static_cast<unsigned long long>(d));
      *ok = false;
    }
    *trace_digest = d;
  }
  r.items_per_sec = MeasureRate(
      [&in, mb, ok] {
        in.clear();
        in.seekg(0);
        auto reader = TraceReader::FromStream(&in);
        if (!reader.ok()) {
          *ok = false;
          return mb;
        }
        Arrival a;
        while ((*reader)->Next(&a)) {
        }
        if (!(*reader)->status().ok()) *ok = false;
        return mb;
      },
      min_seconds);
  return r;
}

// Streaming generator -> on-disk writer -> reader round trip of `n`
// transactions: memory stays bounded by one block at any n (the 10^8
// nightly run writes ~7 GB without materializing anything), and the
// writer- and reader-side digests must match exactly.
int RunTraceRoundTrip(std::uint64_t n) {
  const std::string path = "trace_roundtrip.uctc";
  WorkloadOptions wo;
  wo.arrival_rate_per_sec = 1000;
  wo.num_txns = n;
  wo.size_min = 4;
  wo.size_max = 8;
  wo.read_fraction = 0.5;
  auto stream = MakeGeneratorStream(wo, /*num_items=*/100000,
                                    /*num_user_sites=*/8, Rng(0x7ace));
  auto writer = TraceWriter::Open(path);
  if (!writer.ok()) {
    std::fprintf(stderr, "perf_gate: %s\n",
                 writer.status().ToString().c_str());
    return 2;
  }
  std::uint64_t write_digest = kTraceDigestSeed;
  Status s;
  Arrival a;
  const double w0 = NowSeconds();
  while (stream->Next(&a)) {
    write_digest = FoldArrivalDigest(write_digest, a);
    if (s = (*writer)->Append(a); !s.ok()) break;
  }
  if (s.ok()) s = (*writer)->Finish();
  const double w_elapsed = NowSeconds() - w0;
  if (!s.ok()) {
    std::fprintf(stderr, "perf_gate: trace write failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  const double mb = static_cast<double>((*writer)->bytes_written()) / 1e6;
  std::printf("trace_roundtrip: wrote %llu records (%.1f MB) at %.1f MB/s\n",
              static_cast<unsigned long long>((*writer)->records()), mb,
              mb / w_elapsed);

  auto reader = TraceReader::Open(path);
  if (!reader.ok()) {
    std::fprintf(stderr, "perf_gate: %s\n",
                 reader.status().ToString().c_str());
    return 1;
  }
  std::uint64_t read_digest = kTraceDigestSeed;
  const double r0 = NowSeconds();
  while ((*reader)->Next(&a)) read_digest = FoldArrivalDigest(read_digest, a);
  const double r_elapsed = NowSeconds() - r0;
  std::remove(path.c_str());
  if (!(*reader)->status().ok()) {
    std::fprintf(stderr, "perf_gate: trace replay failed: %s\n",
                 (*reader)->status().ToString().c_str());
    return 1;
  }
  std::printf("trace_roundtrip: replayed %llu records at %.1f MB/s\n",
              static_cast<unsigned long long>((*reader)->records_read()),
              mb / r_elapsed);
  if ((*reader)->records_read() != n || read_digest != write_digest) {
    std::fprintf(stderr,
                 "perf_gate: FAIL trace round trip is not bit-identical "
                 "(%llu/%llu records, digest %016llx -> %016llx)\n",
                 static_cast<unsigned long long>((*reader)->records_read()),
                 static_cast<unsigned long long>(n),
                 static_cast<unsigned long long>(write_digest),
                 static_cast<unsigned long long>(read_digest));
    return 1;
  }
  std::printf("trace_roundtrip: digest %016llx (round trip OK)\n",
              static_cast<unsigned long long>(read_digest));
  return 0;
}

// Runs `spec` through the runner facade. A scenario the runner rejects
// yields empty stats, which fail the calling kernel's checks.
runner::RunStats RunScenario(const ScenarioSpec& spec) {
  runner::RunRequest request;
  request.spec = &spec;
  auto session = runner::RunSession::Create(std::move(request));
  if (!session.ok()) {
    std::fprintf(stderr, "perf_gate: %s\n",
                 session.status().ToString().c_str());
    return runner::RunStats();
  }
  return (*session)->Run().stats;
}

// FNV-1a over the deterministic integer outcomes of a run: if this digest
// moves, the optimization changed simulation results, not just its speed.
void MixDigest(std::uint64_t* h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= 1099511628211ULL;
  }
}

std::uint64_t DigestStats(const runner::RunStats& s) {
  std::uint64_t h = 1469598103934665603ULL;
  MixDigest(&h, s.committed);
  MixDigest(&h, s.deadlock_victims);
  MixDigest(&h, s.reject_restarts);
  MixDigest(&h, s.backoff_rounds);
  MixDigest(&h, s.serializable ? 1 : 0);
  for (int p = 0; p < kNumProtocols; ++p) {
    MixDigest(&h, s.committed_by_proto[p]);
  }
  return h;
}

// The overload kernel's digest additionally folds the overload-control
// outcome counters, pinning the shed/expire/retry machinery exactly.
std::uint64_t DigestOverloadStats(const runner::RunStats& s) {
  std::uint64_t h = DigestStats(s);
  MixDigest(&h, s.admitted);
  MixDigest(&h, s.shed);
  MixDigest(&h, s.expired);
  MixDigest(&h, s.retried);
  MixDigest(&h, s.goodput);
  return h;
}

// Shared scenario-kernel recipe: load `path`, scale the main class to
// `txns` so the wall-clock measurement has signal (the arrival rate stays
// as authored, preserving the scenario's contention), run, digest.
// `stream` switches the run to open-system: a [run] MPL cap puts the
// pull/schedule/defer machinery of streaming admission on the measured
// path. `scale_main = false` runs the scenario as authored (multi-class
// scenarios have no "main" to scale; the macro kernel's signal comes from
// its size, not a txn multiplier). Every arrival is eventually admitted
// (the MPL cap only delays), so committed must equal the spec's total and
// both digests are machine-independent.
KernelResult KernelScenarioRun(const char* name, bool stream,
                               const std::string& path, std::uint64_t txns,
                               std::uint64_t* digest, bool* ok,
                               bool scale_main = true) {
  KernelResult r;
  r.name = name;
  r.items = "txns";
  auto ini = IniFile::ReadFile(path);
  if (!ini.ok()) {
    std::fprintf(stderr, "perf_gate: %s: %s\n", path.c_str(),
                 ini.status().ToString().c_str());
    *ok = false;
    return r;
  }
  IniFile scaled = *ini;
  if (scale_main) scaled.Set("class main", "txns", std::to_string(txns));
  if (stream) scaled.Set("run", "max_inflight", "64");
  auto spec = ScenarioSpec::FromIni(scaled);
  if (!spec.ok()) {
    std::fprintf(stderr, "perf_gate: %s: %s\n", path.c_str(),
                 spec.status().ToString().c_str());
    *ok = false;
    return r;
  }
  const std::uint64_t expected = spec->TotalTxns();
  const double start = NowSeconds();
  const runner::RunStats stats = RunScenario(*spec);
  const double elapsed = NowSeconds() - start;
  r.items_per_sec = static_cast<double>(stats.committed) / elapsed;
  *digest = DigestStats(stats);
  if (stats.committed != expected || !stats.serializable) {
    std::fprintf(stderr,
                 "perf_gate: %s run is broken (committed=%llu/%llu, "
                 "serializable=%s)\n",
                 name, static_cast<unsigned long long>(stats.committed),
                 static_cast<unsigned long long>(expected),
                 stats.serializable ? "yes" : "no");
    *ok = false;
  }
  return r;
}

// Overload kernel: the bounded-admission scenario as authored (2x offered
// load, deadline shedding, one retry round). Unlike the other scenario
// kernels, shed work never commits, so committed < txns by design; the
// run is instead required to actually shed and to stay serializable, and
// its digest (DigestOverloadStats) pins every overload counter exactly.
KernelResult KernelOverloadRun(const std::string& path,
                               std::uint64_t* digest, bool* ok) {
  KernelResult r;
  r.name = "overload_run";
  r.items = "txns";
  auto spec = ScenarioSpec::LoadFile(path);
  if (!spec.ok()) {
    std::fprintf(stderr, "perf_gate: %s: %s\n", path.c_str(),
                 spec.status().ToString().c_str());
    *ok = false;
    return r;
  }
  const double start = NowSeconds();
  const runner::RunStats stats = RunScenario(*spec);
  const double elapsed = NowSeconds() - start;
  r.items_per_sec = static_cast<double>(stats.committed) / elapsed;
  *digest = DigestOverloadStats(stats);
  if (stats.shed == 0 || !stats.serializable) {
    std::fprintf(stderr,
                 "perf_gate: overload_run is broken (shed=%llu, "
                 "serializable=%s)\n",
                 static_cast<unsigned long long>(stats.shed),
                 stats.serializable ? "yes" : "no");
    *ok = false;
  }
  return r;
}

// ---------------------------------------------------------------------------
// JSON in/out
// ---------------------------------------------------------------------------

void WriteReport(const std::string& path,
                 const std::vector<KernelResult>& kernels,
                 const std::vector<Digest>& digests) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_gate: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::fprintf(f,
               "{\n  \"suite\": \"core\",\n"
               "  \"generated_by\": \"perf_gate\",\n");
  for (const Digest& d : digests) {
    std::fprintf(f, "  \"%s_digest\": {\"value\": \"%016llx\"", d.key,
                 static_cast<unsigned long long>(d.value));
    if (!d.scenario.empty()) {
      std::fprintf(f, ", \"scenario\": \"%s\"", d.scenario.c_str());
    }
    std::fprintf(f, "},\n");
  }
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"items\": \"%s\", "
                 "\"items_per_sec\": %.1f}%s\n",
                 kernels[i].name.c_str(), kernels[i].items.c_str(),
                 kernels[i].items_per_sec,
                 i + 1 == kernels.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("perf_gate: wrote %s\n", path.c_str());
}

// Minimal targeted extraction from a perf_gate-written baseline: kernel
// (name, items_per_sec) pairs and the value of every digest in `table`
// the baseline pins. Not a general JSON parser; the file format is owned
// by this tool.
struct Baseline {
  std::vector<KernelResult> kernels;
  std::map<std::string, std::uint64_t> digests;  // key -> pinned value
};

bool LoadBaseline(const std::string& path, const std::vector<Digest>& table,
                  Baseline* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  for (const Digest& d : table) {
    char key[64];
    std::snprintf(key, sizeof(key), "\"%s_digest\": {\"value\": \"", d.key);
    if (std::size_t p = text.find(key); p != std::string::npos) {
      out->digests[d.key] =
          std::strtoull(text.c_str() + p + std::strlen(key), nullptr, 16);
    }
  }
  const std::string nkey = "\"name\": \"";
  const std::string vkey = "\"items_per_sec\": ";
  std::size_t pos = 0;
  while ((pos = text.find(nkey, pos)) != std::string::npos) {
    pos += nkey.size();
    const std::size_t end = text.find('"', pos);
    if (end == std::string::npos) return false;
    KernelResult k;
    k.name = text.substr(pos, end - pos);
    const std::size_t vpos = text.find(vkey, end);
    if (vpos == std::string::npos) return false;
    k.items_per_sec = std::strtod(text.c_str() + vpos + vkey.size(), nullptr);
    out->kernels.push_back(std::move(k));
    pos = end;
  }
  return !out->kernels.empty();
}

void PrintHelp() {
  std::puts(
      "perf_gate: hot-path performance measurement and regression gate\n"
      "  --out=<file>        write results as JSON (default: none)\n"
      "  --baseline=<file>   gate against a committed baseline; exit 1 on\n"
      "                      regression\n"
      "  --tolerance=<t>     fail a kernel below t x baseline (default 0.5)\n"
      "  --min-time=<sec>    minimum measuring time per kernel "
      "(default 0.5)\n"
      "  --scenario=<file>   scenario for the end-to-end kernel\n"
      "                      (default scenarios/quickstart.ini)\n"
      "  --txns=<n>          scaled-up transaction count for the scenario\n"
      "                      kernel (default 20000)\n"
      "  --faulty-scenario=<file>  seeded flaky scenario for the\n"
      "                      faulty_run kernel\n"
      "                      (default scenarios/flaky_mesh.ini)\n"
      "  --faulty-txns=<n>   transaction count for the faulty kernel\n"
      "                      (default 2000)\n"
      "  --overload-scenario=<file>  bounded-admission scenario for the\n"
      "                      overload_run kernel\n"
      "                      (default scenarios/overload.ini)\n"
      "  --macro-scenario=<file>  macro-tier [table] scenario for the\n"
      "                      macro_run kernel, run as authored\n"
      "                      (default scenarios/macro_ycsb.ini)\n"
      "  --trace-roundtrip=<n>  instead of the kernel suite, run a\n"
      "                      bounded-memory generator -> v2 trace file ->\n"
      "                      replay round trip of n transactions and exit\n"
      "                      (0 on a bit-identical round trip)");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string baseline_path;
  std::string scenario_path = "scenarios/quickstart.ini";
  const std::string partitioned_path = "scenarios/macro_partitioned.ini";
  std::string faulty_path = "scenarios/flaky_mesh.ini";
  std::string overload_path = "scenarios/overload.ini";
  std::string macro_path = "scenarios/macro_ycsb.ini";
  double tolerance = 0.5;
  double min_time = 0.5;
  std::uint64_t txns = 20000;
  const std::uint64_t partitioned_txns = 8000;
  std::uint64_t faulty_txns = 2000;
  std::uint64_t trace_roundtrip = 0;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0) {
      PrintHelp();
      return 0;
    } else if (ParseFlag(a, "--out", &out_path) ||
               ParseFlag(a, "--baseline", &baseline_path) ||
               ParseFlag(a, "--scenario", &scenario_path) ||
               ParseFlag(a, "--faulty-scenario", &faulty_path) ||
               ParseFlag(a, "--overload-scenario", &overload_path) ||
               ParseFlag(a, "--macro-scenario", &macro_path) ||
               ParseNumberFlag(a, "--tolerance", &tolerance) ||
               ParseNumberFlag(a, "--min-time", &min_time) ||
               ParseNumberFlag(a, "--txns", &txns) ||
               ParseNumberFlag(a, "--faulty-txns", &faulty_txns) ||
               ParseNumberFlag(a, "--trace-roundtrip", &trace_roundtrip)) {
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", a);
      return 2;
    }
  }

  if (trace_roundtrip > 0) return RunTraceRoundTrip(trace_roundtrip);

  bool ok = true;
  bool arena_stable = true;
  std::uint64_t digest = 0;
  std::uint64_t stream_digest = 0;
  std::vector<KernelResult> kernels;
  kernels.push_back(KernelScheduleRun(min_time, &arena_stable));
  kernels.push_back(KernelCancelChurn(min_time));
  kernels.push_back(KernelQmGrantRelease(min_time));
  kernels.push_back(KernelScenarioRun("scenario_e2e", /*stream=*/false,
                                      scenario_path, txns, &digest, &ok));
  kernels.push_back(KernelScenarioRun("stream_admission", /*stream=*/true,
                                      scenario_path, txns, &stream_digest,
                                      &ok));
  std::uint64_t partitioned_digest = 0;
  kernels.push_back(KernelScenarioRun("partitioned_run", /*stream=*/false,
                                      partitioned_path, partitioned_txns,
                                      &partitioned_digest, &ok));
  std::uint64_t faulty_digest = 0;
  kernels.push_back(KernelScenarioRun("faulty_run", /*stream=*/false,
                                      faulty_path, faulty_txns,
                                      &faulty_digest, &ok));
  std::uint64_t overload_digest = 0;
  kernels.push_back(KernelOverloadRun(overload_path, &overload_digest, &ok));
  // The macro-tier kernel runs its [table] scenario as authored (its
  // millions of items are the point; a txn multiplier would only slow the
  // suite): wall-clock txns/sec is banded like the other kernels and
  // macro_digest pins the table layout, the scan machinery and the
  // rejection-inversion Zipf draws exactly.
  std::uint64_t macro_digest = 0;
  kernels.push_back(KernelScenarioRun("macro_run", /*stream=*/false,
                                      macro_path, 0, &macro_digest, &ok,
                                      /*scale_main=*/false));
  std::uint64_t trace_digest = 0;
  {
    const std::vector<Arrival> trace_wl = MakeTraceWorkload(50000);
    std::uint64_t write_digest = kTraceDigestSeed;
    for (const Arrival& a : trace_wl) {
      write_digest = FoldArrivalDigest(write_digest, a);
    }
    bool enc_ok = true;
    const std::string encoded = EncodeTraceV2(trace_wl, &enc_ok);
    if (!enc_ok) ok = false;
    const double encoded_mb = static_cast<double>(encoded.size()) / 1e6;
    kernels.push_back(KernelTraceWrite(min_time, trace_wl, encoded_mb, &ok));
    kernels.push_back(KernelTraceReplay(min_time, encoded, write_digest,
                                        &trace_digest, &ok));
  }

  const std::vector<Digest> digests = {
      {"scenario", scenario_path, digest,
       "simulation results differ from the baseline build"},
      {"stream", scenario_path, stream_digest,
       "streaming-admission results differ from the baseline build"},
      {"partitioned", partitioned_path, partitioned_digest,
       "partitioned macro-scenario results differ from the baseline build"},
      {"faulty", faulty_path, faulty_digest,
       "the seeded fault schedule or the recovery machinery diverged from "
       "the baseline build"},
      {"overload", overload_path, overload_digest,
       "the shed/expire/retry machinery diverged from the baseline build"},
      {"macro", macro_path, macro_digest,
       "macro-tier results (table layout, scans, or rejection-inversion "
       "Zipf draws) differ from the baseline build"},
      {"trace", "", trace_digest,
       "the v2 trace codec no longer round-trips the baseline workload "
       "bit-identically"},
  };

  std::printf("%-18s %14s  %s\n", "kernel", "items/sec", "unit");
  for (const KernelResult& k : kernels) {
    std::printf("%-18s %14.0f  %s\n", k.name.c_str(), k.items_per_sec,
                k.items.c_str());
  }
  for (const Digest& d : digests) {
    char name[32];
    std::snprintf(name, sizeof(name), "%s_digest", d.key);
    std::printf("%-18s %016llx\n", name,
                static_cast<unsigned long long>(d.value));
  }

  if (!arena_stable) {
    std::fprintf(stderr,
                 "perf_gate: FAIL event arena grew under constant load "
                 "(per-event allocation reintroduced?)\n");
    ok = false;
  }

  if (!baseline_path.empty()) {
    Baseline base;
    if (!LoadBaseline(baseline_path, digests, &base)) {
      std::fprintf(stderr, "perf_gate: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::printf("\n%-18s %14s %14s %7s\n", "kernel", "baseline", "current",
                "ratio");
    for (const KernelResult& k : kernels) {
      for (const KernelResult& b : base.kernels) {
        if (b.name != k.name) continue;
        const double ratio =
            b.items_per_sec > 0 ? k.items_per_sec / b.items_per_sec : 0;
        const bool pass = ratio >= tolerance;
        std::printf("%-18s %14.0f %14.0f %6.2fx %s\n", k.name.c_str(),
                    b.items_per_sec, k.items_per_sec, ratio,
                    pass ? "" : "FAIL");
        if (!pass) ok = false;
      }
    }
    for (const Digest& d : digests) {
      const auto pinned = base.digests.find(d.key);
      if (pinned == base.digests.end()) {
        std::printf("perf_gate: baseline pins no %s_digest; not gated\n",
                    d.key);
        continue;
      }
      if (pinned->second == d.value) continue;
      std::fprintf(stderr,
                   "perf_gate: FAIL %s digest changed (%016llx -> %016llx): "
                   "%s\n",
                   d.key, static_cast<unsigned long long>(pinned->second),
                   static_cast<unsigned long long>(d.value), d.message);
      ok = false;
    }
  }

  // Written even when the gate fails: CI uploads the measured numbers as
  // an artifact precisely so a failing run can be diagnosed.
  if (!out_path.empty()) WriteReport(out_path, kernels, digests);
  return ok ? 0 : 1;
}
