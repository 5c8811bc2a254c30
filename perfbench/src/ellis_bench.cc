// ellis_bench: the repository benchmark for EllisHashTableV2.  Three
// closed-loop workloads (read-zipf, grow-drain, durable-paged), every call
// checked against a model the benchmark computes apart from the table.
// See perfbench/README.md for the workloads, metrics and the layer map.
//
//   ellis_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--small] [--git-sha <sha>] [--spans-out <file>]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1).

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/ellis_v2.h"
#include "metrics/gate.h"
#include "storage/page_store.h"
#include "support.h"
#include "util/histogram.h"

#if EXHASH_METRICS_ENABLED
#include "metrics/table_metrics.h"
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

namespace perfbench {
namespace {

using exhash::core::EllisHashTableV2;
using exhash::core::TableOptions;
using exhash::core::TableStats;
using exhash::storage::IoStatus;
using exhash::storage::PageStoreStats;
using exhash::storage::RecoveryReport;
using exhash::util::RaxLockStats;

constexpr size_t kPageSize = 4096;
constexpr int kInitialDepth = 2;
constexpr double kZipfTheta = 0.99;
// Setups per end-to-end run; setup_s is their median.
constexpr int kSetups = 3;
// Recovering constructors per run; recovery_s is their median.
constexpr int kRecoveries = 9;
// Traced runs keep every kSpanSample-th client call as a span, up to
// kSpanCap per client.
constexpr uint32_t kSpanSample = 16;
constexpr size_t kSpanCap = 1 << 16;
// The window is cut into slices of 2^kSliceShift ns (~134 ms).  A slice's
// rate counts its calls per second of the client time the host left to
// the clients (HostTakeReader).  Host interference only ever lowers a
// slice's rate and raises its latencies, so the rate is the upper quartile
// of the slice rates and every latency percentile the lower quartile over
// slices of the slice's percentile: interference that hits up to three
// quarters of the slices of a run does not move them.
constexpr int kSliceShift = 27;
constexpr double kRateQuantile = 0.75;
constexpr double kLatencyQuantile = 0.25;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string git_sha = "unknown";
  std::string spans_out;
};

// --------------------------------------------------------------------------
// Workload shapes.  Client c owns the key indices [c*block, (c+1)*block);
// writes go only to owned keys.

enum class Workload { kReadZipf, kGrowDrain, kDurablePaged };

struct Shape {
  Workload workload;
  const char* name;
  int clients;
  uint32_t block;       // keys owned per client
  uint32_t zipf_keys;   // keys drawn by Zipf rank (a multiple of clients)
  uint32_t churn;       // read-zipf: per-client keys removed and re-inserted
  bool preload;         // all clients*block keys loaded during setup
  size_t stream_ops;    // per client (grow-drain: one whole lap)
  size_t warmup_ops;    // per client, checked but untimed, before the window
  size_t crash_tail_ops;  // durable-paged: per client, after the last checkpoint
  size_t page_budget;   // 0 = every page resident
  bool wal;
  uint64_t ckpt_every;  // durable-paged: completed ops between checkpoints
  // Splits and merges run in the window (grow-drain).  Elsewhere the run
  // checks that none does, and a scan must visit exactly its limit.
  bool restructures;
};

Shape MakeShape(const std::string& name, bool small) {
  Shape s{};
  if (name == "read-zipf") {
    s.workload = Workload::kReadZipf;
    s.name = "read-zipf";
    s.clients = 4;
    s.zipf_keys = small ? 40000 : 2000000;
    s.churn = small ? 64 : 1024;
    s.block = s.zipf_keys / 4 + s.churn;
    s.preload = true;
    s.stream_ops = small ? 20000 : 1000000;
    s.warmup_ops = small ? 5000 : 200000;
  } else if (name == "grow-drain") {
    s.workload = Workload::kGrowDrain;
    s.name = "grow-drain";
    s.clients = 2;
    s.block = small ? 10000 : 500000;
    s.restructures = true;
    // The stream and the warm-up are each one whole lap (GenGrowDrain,
    // RunWindow).
  } else if (name == "durable-paged") {
    s.workload = Workload::kDurablePaged;
    s.name = "durable-paged";
    s.clients = 2;
    const uint32_t keys = small ? 30000 : 1000000;
    s.block = (keys + 1) / 2;
    s.zipf_keys = 2 * s.block;
    s.preload = true;
    s.stream_ops = small ? 20000 : 600000;
    s.warmup_ops = small ? 3000 : 100000;
    // About 1/8 of the data pages (a 4 KiB bucket holds 253 records and
    // the preloaded table runs about 3/4 full).
    s.page_budget = std::max<size_t>(32, s.zipf_keys / (253 * 3 / 4) / 8);
    s.wal = true;
    // Rare enough that most slices hold no checkpoint, so the slice-quartile
    // latencies do not depend on how many land in a slice.
    s.ckpt_every = small ? 4000 : 1000000;
    s.crash_tail_ops = small ? 1000 : 50000;
  }
  return s;
}

uint32_t Universe(const Shape& s) { return uint32_t(s.clients) * s.block; }

// Zipf rank -> key index: ranks alternate between owners, so each client
// owns every clients-th rank and the hot keys spread over all owners.
uint32_t RankIndex(const Shape& s, uint64_t rank) {
  return uint32_t(rank % s.clients) * s.block + uint32_t(rank / s.clients);
}
uint32_t OwnRankIndex(const Shape& s, uint64_t rank, int client) {
  return uint32_t(client) * s.block + uint32_t(rank / s.clients);
}

// --------------------------------------------------------------------------
// Op streams, generated from the seed before the window opens.  Every
// stream is one lap that leaves the set of present keys as it found it, so
// clients may replay it; the predicted outcome of each own-key call is
// encoded in the op.

std::vector<uint32_t> GenReadZipf(const Shape& s, const Zipf& zipf, int c,
                                  Rng& rng) {
  std::vector<uint32_t> ops;
  ops.reserve(s.stream_ops);
  const uint32_t churn_base = uint32_t(c) * s.block + s.zipf_keys / s.clients;
  uint32_t churn = 0;
  while (ops.size() < s.stream_ops) {
    const double u = rng.Uniform();
    if (u < 0.002 && ops.size() + 2 <= s.stream_ops) {
      // A remove and its re-insert: the bucket never exceeds the count it
      // was preloaded with, so nothing splits or merges.
      const uint32_t idx = churn_base + churn;
      churn = (churn + 1) % s.churn;
      ops.push_back(MakeOp(kRemove, kTrue, idx));
      ops.push_back(MakeOp(kInsert, kTrue, idx));
    } else if (u < 0.012) {
      ops.push_back(MakeOp(kScan, kAny, RankIndex(s, zipf.Sample(rng))));
    } else if (u < 0.062) {
      ops.push_back(
          MakeOp(kUpdate, kTrue, OwnRankIndex(s, zipf.Sample(rng), c)));
    } else {
      // Nothing but the owner's churn keys is ever absent.
      ops.push_back(MakeOp(kFind, kTrue, RankIndex(s, zipf.Sample(rng))));
    }
  }
  return ops;
}

std::vector<uint32_t> GenGrowDrain(const Shape& s, int c, Rng& rng) {
  const uint32_t base = uint32_t(c) * s.block;
  std::vector<uint32_t> order(s.block);
  std::iota(order.begin(), order.end(), base);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  std::vector<uint32_t> ops;
  ops.reserve(size_t(s.block) * 25 / 10 + 16);
  std::vector<uint32_t> live;
  live.reserve(s.block);
  // Per 60 ops of a phase: 40 inserts (grow) or removes (drain), 10
  // updates and 9 finds of own live keys, 1 scan.
  auto extra = [&](uint64_t w) {
    if (w < 50) {
      ops.push_back(MakeOp(kUpdate, kTrue, live[rng.Below(live.size())]));
    } else if (w < 59) {
      ops.push_back(MakeOp(kFind, kTrue, live[rng.Below(live.size())]));
    } else {
      ops.push_back(MakeOp(kScan, kAny, base + uint32_t(rng.Below(s.block))));
    }
  };
  size_t next = 0;
  while (next < order.size()) {
    const uint64_t w = rng.Below(60);
    if (w < 40 || live.empty()) {
      live.push_back(order[next++]);
      ops.push_back(MakeOp(kInsert, kTrue, live.back()));
    } else {
      extra(w);
    }
  }
  for (size_t i = live.size(); i > 1; --i) {
    std::swap(live[i - 1], live[rng.Below(i)]);
  }
  while (!live.empty()) {
    const uint64_t w = rng.Below(60);
    if (w < 40) {
      ops.push_back(MakeOp(kRemove, kTrue, live.back()));
      live.pop_back();
    } else {
      extra(w);
    }
  }
  return ops;
}

std::vector<uint32_t> GenDurablePaged(const Shape& s, const Zipf& zipf, int c,
                                      Rng& rng) {
  const uint32_t base = uint32_t(c) * s.block;
  std::vector<uint8_t> present(s.block, 1);
  std::deque<uint32_t> removed;  // re-inserted oldest first
  std::vector<uint32_t> ops;
  ops.reserve(s.stream_ops + 64);
  auto own_expect = [&](uint32_t idx) {
    return present[idx - base] ? kTrue : kFalse;
  };
  while (ops.size() < s.stream_ops) {
    const double u = rng.Uniform();
    if (u < 0.01) {
      ops.push_back(MakeOp(kScan, kAny, RankIndex(s, zipf.Sample(rng))));
    } else if (u < 0.50) {
      const uint32_t idx = RankIndex(s, zipf.Sample(rng));
      const bool own = idx / s.block == uint32_t(c);
      ops.push_back(MakeOp(kFind, own ? own_expect(idx) : kAny, idx));
    } else if (u < 0.90) {
      const uint32_t idx = OwnRankIndex(s, zipf.Sample(rng), c);
      ops.push_back(MakeOp(kUpdate, own_expect(idx), idx));
    } else if (u < 0.95 && !removed.empty()) {
      const uint32_t idx = removed.front();
      removed.pop_front();
      present[idx - base] = 1;
      ops.push_back(MakeOp(kInsert, kTrue, idx));
    } else {
      uint32_t idx = 0;
      for (int tries = 0; tries < 8; ++tries) {
        idx = OwnRankIndex(s, zipf.Sample(rng), c);
        if (present[idx - base]) break;
      }
      const Expect e = own_expect(idx);
      if (e == kTrue) {
        present[idx - base] = 0;
        removed.push_back(idx);
      }
      ops.push_back(MakeOp(kRemove, e, idx));
    }
  }
  // Close the lap: every key removed in it comes back.
  for (const uint32_t idx : removed) ops.push_back(MakeOp(kInsert, kTrue, idx));
  return ops;
}

// --------------------------------------------------------------------------
// The model: per key index, whether it is present and its version.  Each
// entry is written only by its owner during the window (owner-major
// layout, so owners never share a cache line but at block edges), and
// every transition follows the op's predicted outcome, never the table's
// answer.

struct Model {
  std::vector<uint32_t> version;
  std::vector<uint8_t> present;
  uint64_t Count() const {
    return uint64_t(std::count(present.begin(), present.end(), 1));
  }
};

Model InitialModel(const Shape& s) {
  Model m;
  m.version.assign(Universe(s), 0);
  m.present.assign(Universe(s), s.preload ? 1 : 0);
  return m;
}

// --------------------------------------------------------------------------
// Clients.

struct Span {
  uint64_t id;
  uint64_t start_ns;
  uint64_t dur_ns;
  uint32_t call;
};

// Span call names beyond the client kinds.
enum SpanCall : uint32_t {
  kSpanCheckpoint = kKinds,
  kSpanRecover,
  kSpanPreload,
  kSpanCalls
};
const char* SpanCallName(uint32_t call) {
  static const char* const kNames[] = {"find",   "update",     "insert",
                                       "remove", "scan",       "checkpoint",
                                       "recover", "preload"};
  return kNames[call];
}

struct alignas(64) Client {
  int id = 0;
  const std::vector<uint32_t>* stream = nullptr;
  uint64_t warmup_ops = 0;
  uint64_t window_ops = 0;
  uint64_t tail_ops = 0;
  uint64_t mismatches = 0;
  std::string first_mismatch;
  uint64_t window_start_ns = 0;
  std::vector<LatencyHist> hist[kKinds];  // per slice
  std::vector<Span> spans;
  uint32_t span_countdown = 0;
  std::atomic<long> tid{0};
  alignas(64) std::atomic<uint64_t> progress{0};
};

struct Context {
  const Shape& shape;
  uint64_t salt;
  uint64_t scan_salt;
  EllisHashTableV2* table;
  Model* model;
  bool trace;
  uint64_t epoch_ns;  // span timestamps are relative to this
};

uint64_t ScanLimit(uint64_t scan_salt, size_t pos) {
  return 10 + Fmix64(scan_salt + pos) % 91;
}

const std::function<uint64_t(uint64_t)>& Increment() {
  static const std::function<uint64_t(uint64_t)> f = [](uint64_t v) {
    return v + 1;
  };
  return f;
}

// Runs one op, times the call, and judges it against the prediction and
// the model.  `timed` is false for calls outside the window.
void Execute(const Context& ctx, Client& cl, uint32_t op, size_t pos,
             bool timed) {
  const Kind kind = OpKind(op);
  const Expect expect = OpExpect(op);
  const uint32_t idx = OpIndex(op);
  const uint64_t key = KeyOf(ctx.salt, idx);
  Model& m = *ctx.model;
  EllisHashTableV2& t = *ctx.table;

  uint64_t value = 0;
  uint64_t limit = 0;
  uint64_t seen = 0;
  uint64_t untagged = 0;
  bool result = true;
  const uint64_t t0 = NowNs();
  switch (kind) {
    case kFind:
      result = t.Find(key, &value);
      break;
    case kUpdate:
      result = t.Update(key, Increment());
      break;
    case kInsert:
      result = t.Insert(key, ValueOf(key, 0));
      break;
    case kRemove:
      result = t.Remove(key);
      break;
    default:
      limit = ScanLimit(ctx.scan_salt, pos);
      value = t.ScanFrom(key, limit, [&](uint64_t k, uint64_t v) {
        ++seen;
        if (!Tagged(k, v)) ++untagged;
      });
      break;
  }
  const uint64_t t1 = NowNs();
  if (timed) {
    const size_t slice = std::min<size_t>(
        (t0 - cl.window_start_ns) >> kSliceShift, cl.hist[kind].size() - 1);
    cl.hist[kind][slice].Add(t1 - t0);
    if (ctx.trace && cl.span_countdown-- == 0) {
      cl.span_countdown = kSpanSample - 1;
      if (cl.spans.size() < kSpanCap) {
        cl.spans.push_back({(uint64_t(cl.id + 1) << 48) | (cl.window_ops),
                            t0 - ctx.epoch_ns, t1 - t0, kind});
      }
    }
  }

  bool ok = !(expect == kTrue && !result) && !(expect == kFalse && result);
  switch (kind) {
    case kFind:
      if (result) {
        ok = ok && (idx / ctx.shape.block == uint32_t(cl.id)
                        ? value == ValueOf(key, m.version[idx])
                        : Tagged(key, value));
      }
      break;
    case kUpdate:
      if (expect == kTrue) ++m.version[idx];
      break;
    case kInsert:
      m.present[idx] = 1;
      m.version[idx] = 0;
      break;
    case kRemove:
      m.present[idx] = 0;
      break;
    default:
      ok = untagged == 0 && seen == value &&
           (ctx.shape.restructures ? value <= limit : value == limit);
      break;
  }
  if (!ok) {
    if (cl.mismatches++ == 0) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "client %d: %s of index %u returned %d (value %#" PRIx64
                    ", predicted %d)",
                    cl.id, KindName(kind), idx, int(result), value,
                    int(expect));
      cl.first_mismatch = buf;
    }
  }
}

// Closed loop: the next call is issued when the previous one returns.
// The client first runs `warmup` untimed calls (so the thread, the caches
// and, for the durable workload, the buffer pool are warm before timing),
// reports ready and waits for the window.  Stops when
// `stop` is set, then runs its untimed tail: kFinishLap completes the lap,
// so the table ends in the lap's end state; kCrashTail waits for
// `tail_go` (set after the post-window checkpoint) and makes
// crash_tail_ops more calls, so every crash image holds the same amount
// of log past its checkpoint.
enum class Tail { kNone, kFinishLap, kCrashTail };

struct Signals {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<uint64_t> window_start_ns{0};
  std::atomic<bool> stop{false};
  std::atomic<int> stopped{0};
  std::atomic<bool> tail_go{false};
};

void ClientLoop(const Context& ctx, Client& cl, size_t warmup, Tail tail,
                size_t crash_tail_ops, Signals& sig) {
  const std::vector<uint32_t>& ops = *cl.stream;
  cl.tid.store(long(syscall(SYS_gettid)), std::memory_order_relaxed);
  size_t pos = 0;
  for (; cl.warmup_ops < warmup; ++cl.warmup_ops) {
    Execute(ctx, cl, ops[pos], pos, false);
    if (++pos == ops.size()) pos = 0;
  }
  sig.ready.fetch_add(1, std::memory_order_release);
  while (!sig.go.load(std::memory_order_acquire)) std::this_thread::yield();
  cl.window_start_ns = sig.window_start_ns.load(std::memory_order_relaxed);
  uint64_t n = 0;
  while (!sig.stop.load(std::memory_order_relaxed)) {
    Execute(ctx, cl, ops[pos], pos, true);
    cl.window_ops = ++n;
    if (++pos == ops.size()) pos = 0;
    if ((n & 15) == 0) cl.progress.store(n, std::memory_order_relaxed);
  }
  sig.stopped.fetch_add(1, std::memory_order_release);
  if (tail == Tail::kCrashTail) {
    while (!sig.tail_go.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    for (size_t i = 0; i < crash_tail_ops; ++i, ++cl.tail_ops) {
      Execute(ctx, cl, ops[pos], pos, false);
      if (++pos == ops.size()) pos = 0;
    }
  }
  if (tail == Tail::kFinishLap) {
    while (pos != 0) {
      Execute(ctx, cl, ops[pos], pos, false);
      ++cl.tail_ops;
      if (++pos == ops.size()) pos = 0;
    }
  }
}

// --------------------------------------------------------------------------
// Tables, setup and the checks made at quiescent points.

TableOptions BaseOptions(const Shape& s, bool metrics) {
  TableOptions o;
  o.page_size = kPageSize;
  o.initial_depth = kInitialDepth;
  o.wal = s.wal;
  o.page_budget = s.page_budget;
  o.metrics = metrics;
  return o;
}

struct Checker {
  uint64_t failed = 0;
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

// The structure laws every quiescent table must satisfy.  A recovered
// table's counters start at zero, so the bucket-accounting law is checked
// only on tables that grew from their initial depth.
void CheckLaws(EllisHashTableV2& t, const std::string& where, Checker* chk) {
  std::string err;
  chk->Expect(t.Validate(&err), where + ": Validate: " + err);
  const TableStats st = t.Stats();
  const uint64_t live = t.LiveBuckets();
  const bool recovered = t.options().recover_from != nullptr;
  chk->Expect(recovered ||
                  live == (uint64_t{1} << kInitialDepth) + st.splits - st.merges,
              where + ": LiveBuckets == 2^d0 + splits - merges (" +
                  std::to_string(live) + " vs " +
                  std::to_string((1 << kInitialDepth) + st.splits - st.merges) +
                  ")");
  chk->Expect(st.optimistic_hits + st.seq_fallbacks == st.finds,
              where + ": optimistic_hits + seq_fallbacks == finds");
  if (t.Store().pool_enabled()) {
    const PageStoreStats io = t.IoStats();
    chk->Expect(io.pool_pins_acquired == io.pool_pins_released,
                where + ": pin ledger balances");
    chk->Expect(io.pool_hits + io.pool_misses == io.frame_reads,
                where + ": pool hits + misses == frame_reads");
  }
}

// The table holds exactly the model's contents, key for key.  The reads
// are spread over kCheckThreads threads.
constexpr int kCheckThreads = 4;
void CheckContents(EllisHashTableV2& t, const Model& m, uint64_t salt,
                   const std::string& where, Checker* chk) {
  const uint32_t n = uint32_t(m.present.size());
  std::vector<uint64_t> wrong_per(kCheckThreads, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kCheckThreads; ++r) {
    readers.emplace_back([&, r] {
      for (uint32_t idx = uint32_t(r); idx < n; idx += kCheckThreads) {
        const uint64_t key = KeyOf(salt, idx);
        uint64_t v = 0;
        const bool hit = t.Find(key, &v);
        if (hit != bool(m.present[idx]) ||
            (hit && v != ValueOf(key, m.version[idx]))) {
          ++wrong_per[r];
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  const uint64_t wrong =
      std::accumulate(wrong_per.begin(), wrong_per.end(), uint64_t{0});
  // Each key that differs counts as one failed operation.
  if (wrong != 0) {
    chk->failed += wrong - 1;
    chk->Expect(false, where + ": " + std::to_string(wrong) +
                           " keys differ from the model");
  }
  const uint64_t count = m.Count();
  chk->Expect(t.Size() == count, where + ": Size() " +
                                     std::to_string(t.Size()) +
                                     " == model count " + std::to_string(count));
}

void Preload(EllisHashTableV2& t, const Shape& s, uint64_t salt) {
  for (uint32_t idx = 0; idx < Universe(s); ++idx) {
    const uint64_t key = KeyOf(salt, idx);
    t.Insert(key, ValueOf(key, 0));
  }
}

// One setup: construct, preload (grow-drain: one single-threaded warm-up
// lap over every key, so the timed laps start from pages already
// allocated), and for the durable workload the initial checkpoint.
std::unique_ptr<EllisHashTableV2> Setup(const Shape& s, uint64_t salt,
                                        bool metrics, Checker* chk) {
  auto t = std::make_unique<EllisHashTableV2>(BaseOptions(s, metrics));
  Preload(*t, s, salt);
  if (!s.preload) {
    for (uint32_t idx = 0; idx < Universe(s); ++idx) {
      t->Remove(KeyOf(salt, idx));
    }
  }
  if (s.wal) {
    chk->Expect(t->Store().Checkpoint() == IoStatus::kOk,
                "initial checkpoint");
  }
  return t;
}

double Seconds(uint64_t ns) { return double(ns) * 1e-9; }

// Prints how long the phase since `*mark` took and restarts the mark.
void Phase(const char* name, uint64_t* mark) {
  const uint64_t now = NowNs();
  std::printf("phase %-28s %8.3f s\n", name, Seconds(now - *mark));
  *mark = now;
}

double SpaceAmp(EllisHashTableV2& t) {
  return double(t.LiveBuckets() * kPageSize) / double(t.Size() * 16);
}

double RssPeakMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

// --------------------------------------------------------------------------
// Recovery.  The durable workload recovers its own crash image; the other
// two (no WAL) measure the same restart on a WAL table loaded with their
// contents and checkpointed, so recovery_s means "time until a crashed
// table of this workload's contents serves again" on every workload.

struct Recovery {
  double seconds = 0;  // median of kRecoveries recovering constructors
  RecoveryReport report;
  std::vector<uint64_t> durations_ns;
};

Recovery RecoverAndCheck(const TableOptions& base,
                         const std::shared_ptr<exhash::storage::CrashImage>& image,
                         const Model& m, uint64_t salt, Checker* chk) {
  Recovery r;
  TableOptions o = base;
  o.metrics = false;
  o.recover_from = image;
  std::unique_ptr<EllisHashTableV2> t;
  for (int i = 0; i < kRecoveries; ++i) {
    t.reset();
    const uint64_t t0 = NowNs();
    t = std::make_unique<EllisHashTableV2>(o);
    r.durations_ns.push_back(NowNs() - t0);
  }
  r.seconds = Seconds(uint64_t(Median(r.durations_ns)));
  std::printf("recovering constructors (s):");
  for (uint64_t ns : r.durations_ns) std::printf(" %.4f", Seconds(ns));
  std::printf("\n");
  r.report = t->recovery_report();
  chk->Expect(r.report.ok(), "recovery report ok: " + r.report.error);
  CheckLaws(*t, "recovered", chk);
  CheckContents(*t, m, salt, "recovered", chk);
  return r;
}

// The WAL table of the restart probe.  Its load needs no per-call
// durability: the checkpoint and the final flush make every record durable
// before the crash.
TableOptions RestartOptions() {
  TableOptions o;
  o.page_size = kPageSize;
  o.initial_depth = kInitialDepth;
  o.wal = true;
  o.wal_flush_every_commit = false;
  return o;
}

// Loads the model's contents into a WAL table, checkpoints it, then
// updates every eighth present key, so that the log past the checkpoint
// holds a fixed share of the contents, as the durable workload's crash
// tail does, and crashes it.  The updates go into the model.
std::shared_ptr<exhash::storage::CrashImage> CrashImageOfModel(
    const Shape& s, Model& m, uint64_t salt, uint64_t seed, uint64_t* mark,
    Checker* chk) {
  EllisHashTableV2 t(RestartOptions());
  std::vector<std::thread> loaders;
  for (int c = 0; c < s.clients; ++c) {
    loaders.emplace_back([&, c] {
      for (uint32_t i = 0; i < s.block; ++i) {
        const uint32_t idx = uint32_t(c) * s.block + i;
        if (!m.present[idx]) continue;
        const uint64_t key = KeyOf(salt, idx);
        t.Insert(key, ValueOf(key, m.version[idx]));
      }
    });
  }
  for (auto& th : loaders) th.join();
  Phase("restart load", mark);
  chk->Expect(t.Store().Checkpoint() == IoStatus::kOk, "restart checkpoint");
  Phase("restart checkpoint", mark);
  for (uint32_t idx = 0; idx < Universe(s); idx += 8) {
    if (!m.present[idx]) continue;
    t.Update(KeyOf(salt, idx), Increment());
    ++m.version[idx];
  }
  chk->Expect(t.Store().FlushWal() == IoStatus::kOk, "restart log flush");
  Phase("restart log tail", mark);
  t.Store().CrashNow(seed);
  auto image = t.Store().TakeCrashImage();
  Phase("restart crash image", mark);
  return image;
}

// --------------------------------------------------------------------------
// Client time taken by the host, not by the program.  A shared host takes
// a client's vCPU away (steal: the eighth field of /proc/stat's cpu line,
// summed over the vCPUs) or runs another process's thread in its place (the
// client threads' run-queue wait, the second field of
// /proc/self/task/<tid>/schedstat, counted only up to the CPU time other
// processes used meanwhile: /proc/stat's busy fields less this process's
// own CPU time).  Time taken by the program's own threads, or spent
// blocked on its locks, is never counted.  Sampled by the window's
// sampling thread at each slice boundary; a file that cannot be read
// counts 0.

struct HostTake {
  uint64_t run_delay_ns = 0;  // client threads' run-queue wait
  uint64_t steal_ns = 0;      // all vCPUs
  uint64_t busy_ns = 0;       // all vCPUs, every process
  uint64_t self_ns = 0;       // this process
};

class HostTakeReader {
 public:
  explicit HostTakeReader(const std::vector<long>& tids) {
    for (long tid : tids) {
      const std::string path =
          "/proc/self/task/" + std::to_string(tid) + "/schedstat";
      fds_.push_back(open(path.c_str(), O_RDONLY));
    }
    stat_fd_ = open("/proc/stat", O_RDONLY);
    tick_ns_ = 1e9 / double(sysconf(_SC_CLK_TCK));
  }
  ~HostTakeReader() {
    for (int fd : fds_) {
      if (fd >= 0) close(fd);
    }
    if (stat_fd_ >= 0) close(stat_fd_);
  }
  HostTakeReader(const HostTakeReader&) = delete;
  HostTakeReader& operator=(const HostTakeReader&) = delete;

  HostTake Read() const {
    HostTake h;
    char buf[256];
    for (int fd : fds_) {
      const ssize_t n = fd < 0 ? -1 : pread(fd, buf, sizeof buf - 1, 0);
      if (n <= 0) continue;
      buf[n] = 0;
      unsigned long long exec = 0, delay = 0;
      if (std::sscanf(buf, "%llu %llu", &exec, &delay) == 2) {
        h.run_delay_ns += delay;
      }
    }
    const ssize_t n =
        stat_fd_ < 0 ? -1 : pread(stat_fd_, buf, sizeof buf - 1, 0);
    unsigned long long f[8] = {};
    if (n > 0) {
      buf[n] = 0;
      if (std::sscanf(buf, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                      &f[0], &f[1], &f[2], &f[3], &f[4], &f[5], &f[6],
                      &f[7]) == 8) {
        // user, nice, system, irq, softirq; then steal.
        h.busy_ns = uint64_t(double(f[0] + f[1] + f[2] + f[5] + f[6]) * tick_ns_);
        h.steal_ns = uint64_t(double(f[7]) * tick_ns_);
      }
    }
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    h.self_ns = uint64_t(ts.tv_sec) * 1000000000ull + uint64_t(ts.tv_nsec);
    return h;
  }

 private:
  std::vector<int> fds_;
  int stat_fd_ = -1;
  double tick_ns_ = 1e7;
};

// Client time the host took between two readings.
double TakenNs(const HostTake& a, const HostTake& b) {
  auto delta = [](uint64_t x, uint64_t y) { return y > x ? double(y - x) : 0.0; };
  const double others = std::max(0.0, delta(a.busy_ns, b.busy_ns) -
                                          delta(a.self_ns, b.self_ns));
  return delta(a.steal_ns, b.steal_ns) +
         std::min(delta(a.run_delay_ns, b.run_delay_ns), others);
}

// --------------------------------------------------------------------------
// One timed window over a freshly set-up table.

struct Counters {
  TableStats stats;
  PageStoreStats io;
  RaxLockStats dir;
  RaxLockStats bucket;
  uint64_t publishes = 0;
};

Counters Snapshot(EllisHashTableV2& t) {
  return {t.Stats(), t.IoStats(), t.DirectoryLockStats(), t.BucketLockStats(),
          t.SnapshotPublishes()};
}

struct Window {
  double seconds = 0;
  uint64_t ops = 0;       // completed inside the window
  uint64_t attempted = 0; // warm-up + window + tails
  LatencyHist hist[kKinds];                     // the whole window
  std::vector<LatencyHist> slice_hist[kKinds];  // per slice
  uint64_t mismatches = 0;
  std::vector<Span> spans;
  std::vector<uint64_t> ckpt_ns;
  uint64_t ckpt_failures = 0;
  uint64_t restructures = 0;  // splits + merges during the window
  std::vector<double> wall_rates;   // ops per wall second, per slice
  std::vector<double> taken;        // share of client time the host took
  std::vector<double> slice_rates;  // ops per second left to the clients
  double ops_per_s() const { return Quantile(slice_rates, kRateQuantile); }
  // The lower quartile over slices of the slice's q-quantile, over the
  // slices with at least ten samples beyond it; the whole window's if no
  // slice has.
  double Latency(Kind k, double q) const {
    const auto need = uint64_t(std::ceil(10 / (1 - q)));
    std::vector<double> per_slice;
    for (const LatencyHist& h : slice_hist[k]) {
      if (h.count() >= need) per_slice.push_back(h.Percentile(q));
    }
    return per_slice.empty() ? hist[k].Percentile(q)
                             : Quantile(per_slice, kLatencyQuantile);
  }
};

Window RunWindow(const Shape& s, const std::vector<std::vector<uint32_t>>& streams,
                 EllisHashTableV2& table, Model& model, uint64_t salt,
                 uint64_t seed, double seconds, bool trace) {
  Context ctx{s, salt, Fmix64(seed ^ 0x5ca1ab1e), &table, &model, trace,
              NowNs()};
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < s.clients; ++c) {
    clients.push_back(std::make_unique<Client>());
    clients.back()->id = c;
    clients.back()->stream = &streams[c];
    if (trace) clients.back()->spans.reserve(kSpanCap);
    for (auto& h : clients.back()->hist) {
      h.resize((uint64_t(seconds * 1e9) >> kSliceShift) + 1);
    }
  }
  Signals sig;
  const Tail tail = s.workload == Workload::kGrowDrain ? Tail::kFinishLap
                    : s.wal                            ? Tail::kCrashTail
                                                       : Tail::kNone;
  std::vector<std::thread> threads;
  for (auto& cl : clients) {
    const size_t warmup =
        tail == Tail::kFinishLap ? cl->stream->size() : s.warmup_ops;
    threads.emplace_back([&, c = cl.get(), warmup] {
      ClientLoop(ctx, *c, warmup, tail, s.crash_tail_ops, sig);
    });
  }
  while (sig.ready.load(std::memory_order_acquire) < s.clients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Window w;
  // The durable workload's checkpoint thread checkpoints after every
  // ckpt_every completed client ops.
  std::thread ckpt;
  if (s.ckpt_every != 0) {
    ckpt = std::thread([&] {
      uint64_t next = s.ckpt_every;
      while (!sig.stop.load(std::memory_order_relaxed)) {
        uint64_t done = 0;
        for (auto& cl : clients) {
          done += cl->progress.load(std::memory_order_relaxed);
        }
        if (done < next) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          continue;
        }
        const uint64_t t0 = NowNs();
        if (table.Store().Checkpoint() != IoStatus::kOk) ++w.ckpt_failures;
        const uint64_t t1 = NowNs();
        w.ckpt_ns.push_back(t1 - t0);
        if (trace) {
          w.spans.push_back({(uint64_t{0xff} << 48) | w.ckpt_ns.size(),
                             t0 - ctx.epoch_ns, t1 - t0, kSpanCheckpoint});
        }
        next += s.ckpt_every;
      }
    });
  }
  const TableStats before = table.Stats();
  // The window, sampled every kSliceNs for the per-slice rates.
  constexpr uint64_t kSliceNs = uint64_t{1} << kSliceShift;
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + uint64_t(seconds * 1e9);
  sig.window_start_ns.store(t0, std::memory_order_relaxed);
  sig.go.store(true, std::memory_order_release);
  std::vector<long> tids;
  for (auto& cl : clients) tids.push_back(cl->tid.load(std::memory_order_relaxed));
  HostTakeReader host(tids);
  HostTake last_take = host.Read();
  uint64_t last_done = 0;
  uint64_t last_t = t0;
  for (uint64_t next = t0 + kSliceNs;; next += kSliceNs) {
    const uint64_t target = std::min(next, deadline);
    for (uint64_t now = NowNs(); now < target; now = NowNs()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(target - now));
    }
    const uint64_t t = NowNs();
    uint64_t done = 0;
    for (auto& cl : clients) done += cl->progress.load(std::memory_order_relaxed);
    // The slice's client time, less what the host took (at most 90%).
    const HostTake take = host.Read();
    const double client_ns = double(s.clients) * double(t - last_t);
    const double taken_ns = std::min(TakenNs(last_take, take), 0.9 * client_ns);
    const double ops = double(done - last_done);
    w.wall_rates.push_back(ops / Seconds(t - last_t));
    w.taken.push_back(taken_ns / client_ns);
    w.slice_rates.push_back(ops * double(s.clients) /
                            ((client_ns - taken_ns) * 1e-9));
    last_take = take;
    last_done = done;
    last_t = t;
    if (t >= deadline) break;
  }
  sig.stop.store(true, std::memory_order_relaxed);
  const uint64_t t1 = NowNs();
  while (sig.stopped.load(std::memory_order_acquire) < s.clients) {
    std::this_thread::yield();
  }
  if (ckpt.joinable()) ckpt.join();
  const TableStats after = table.Stats();
  w.restructures =
      (after.splits - before.splits) + (after.merges - before.merges);
  if (tail == Tail::kCrashTail) {
    if (table.Store().Checkpoint() != IoStatus::kOk) ++w.ckpt_failures;
    sig.tail_go.store(true, std::memory_order_release);
  }
  for (auto& th : threads) th.join();
  w.seconds = Seconds(t1 - t0);
  for (auto& cl : clients) {
    w.ops += cl->window_ops;
    w.attempted += cl->warmup_ops + cl->window_ops + cl->tail_ops;
    w.mismatches += cl->mismatches;
    if (cl->mismatches != 0) {
      std::fprintf(stderr, "MISMATCH (%" PRIu64 " calls): %s\n",
                   cl->mismatches, cl->first_mismatch.c_str());
    }
    for (uint32_t k = 0; k < kKinds; ++k) {
      w.slice_hist[k].resize(cl->hist[k].size());
      for (size_t i = 0; i < cl->hist[k].size(); ++i) {
        w.slice_hist[k][i].Merge(cl->hist[k][i]);
        w.hist[k].Merge(cl->hist[k][i]);
      }
    }
    w.spans.insert(w.spans.end(), cl->spans.begin(), cl->spans.end());
  }
  return w;
}

std::vector<std::vector<uint32_t>> MakeStreams(const Shape& s, uint64_t seed) {
  std::unique_ptr<Zipf> zipf;
  if (s.zipf_keys != 0) zipf = std::make_unique<Zipf>(s.zipf_keys, kZipfTheta);
  std::vector<std::vector<uint32_t>> streams;
  for (int c = 0; c < s.clients; ++c) {
    Rng rng(Fmix64(seed * 0x100000001b3ULL + uint64_t(c) + 1));
    switch (s.workload) {
      case Workload::kReadZipf:
        streams.push_back(GenReadZipf(s, *zipf, c, rng));
        break;
      case Workload::kGrowDrain:
        streams.push_back(GenGrowDrain(s, c, rng));
        break;
      case Workload::kDurablePaged:
        streams.push_back(GenDurablePaged(s, *zipf, c, rng));
        break;
    }
  }
  return streams;
}

// --------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string moves;  // per-layer: the end-to-end metric it should move
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    if (m.moves.empty()) {
      std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    } else {
      std::printf("  %-34s %16.6g %-6s -> %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.moves.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintFingerprint(const Args& a, const Shape& s) {
  std::printf(
      "host {\"nproc\": %ld, \"build_type\": \"%s\", \"exhash_metrics\": %d, "
      "\"compiler\": \"%s\", \"git_sha\": \"%s\", \"seed\": %" PRIu64
      ", \"workload\": \"%s\", \"seconds\": %g, \"trace\": %d, \"scale\": "
      "\"%s\"}\n",
      sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE,
      int(EXHASH_METRICS_ENABLED), PERFBENCH_COMPILER, a.git_sha.c_str(), a.seed,
      s.name, a.seconds, int(a.trace), a.small ? "small" : "full");
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "id,call,start_ns,dur_ns\n");
  for (const Span& sp : spans) {
    std::fprintf(f, "%#" PRIx64 ",%s,%" PRIu64 ",%" PRIu64 "\n", sp.id,
                 SpanCallName(sp.call), sp.start_ns, sp.dur_ns);
  }
  std::fclose(f);
}

// --------------------------------------------------------------------------
// The two run modes.

struct Finish {
  Recovery recovery;
  double space_amp = 0;
};

// Everything after the window: quiescent checks, space, crash + recovery.
Finish FinishWorkload(const Shape& s, std::unique_ptr<EllisHashTableV2>& t,
                      Model& m, uint64_t salt, uint64_t seed, Checker* chk) {
  Finish f;
  uint64_t mark = NowNs();
  CheckLaws(*t, "after window", chk);
  CheckContents(*t, m, salt, "after window", chk);
  Phase("checks after window", &mark);
  if (s.workload == Workload::kGrowDrain) {
    // Space at the grow phase's peak: load every key again from one thread
    // per client, as the grow phase does.
    std::vector<std::thread> th;
    for (int c = 0; c < s.clients; ++c) {
      th.emplace_back([&, c] {
        for (uint32_t i = 0; i < s.block; ++i) {
          const uint32_t idx = uint32_t(c) * s.block + i;
          const uint64_t key = KeyOf(salt, idx);
          t->Insert(key, ValueOf(key, 0));
        }
      });
    }
    for (auto& x : th) x.join();
    std::fill(m.present.begin(), m.present.end(), 1);
    std::fill(m.version.begin(), m.version.end(), 0);
    CheckLaws(*t, "regrown", chk);
    f.space_amp = SpaceAmp(*t);
    std::printf("regrown: depth %d, %" PRIu64 " buckets\n", t->Depth(),
                t->LiveBuckets());
    Phase("regrow", &mark);
  } else {
    f.space_amp = SpaceAmp(*t);
  }
  std::shared_ptr<exhash::storage::CrashImage> image;
  TableOptions o = RestartOptions();
  if (s.wal) {
    t->Store().CrashNow(seed);
    image = t->Store().TakeCrashImage();
    o = t->options();
    t.reset();
  } else {
    t.reset();
    image = CrashImageOfModel(s, m, salt, seed, &mark, chk);
  }
  f.recovery = RecoverAndCheck(o, image, m, salt, chk);
  Phase("recovery and its checks", &mark);
  return f;
}

int RunEndToEnd(const Args& a, const Shape& s) {
  const uint64_t salt = Fmix64(a.seed ^ 0x243f6a8885a308d3ULL);
  uint64_t mark = NowNs();
  const auto streams = MakeStreams(s, a.seed);
  Phase("op streams", &mark);
  Checker chk;
  std::vector<uint64_t> setup_ns;
  std::unique_ptr<EllisHashTableV2> table;
  for (int i = 0; i < kSetups; ++i) {
    table.reset();
    const uint64_t t0 = NowNs();
    table = Setup(s, salt, /*metrics=*/false, &chk);
    setup_ns.push_back(NowNs() - t0);
  }
  std::printf("setups (s):");
  for (uint64_t ns : setup_ns) std::printf(" %.3f", Seconds(ns));
  std::printf("\n");
  Phase("setups", &mark);
  Model model = InitialModel(s);
  Window w = RunWindow(s, streams, *table, model, salt, a.seed, a.seconds,
                       /*trace=*/false);
  Phase("window", &mark);
  const double rss = RssPeakMiB();
  chk.Expect(w.ckpt_failures == 0, "checkpoints during the window");
  chk.Expect(s.restructures || w.restructures == 0,
             "nothing splits or merges in the window");
  Finish f = FinishWorkload(s, table, model, salt, a.seed, &chk);

  std::vector<Metric> out = {
      {"setup_s", Seconds(uint64_t(Median(setup_ns))), "s", ""},
      {"ops_per_s", w.ops_per_s(), "ops/s", ""},
      {"find_p50_ns", w.Latency(kFind, 0.50), "ns", ""},
      {"find_p99_ns", w.Latency(kFind, 0.99), "ns", ""},
      {"update_p50_ns", w.Latency(kUpdate, 0.50), "ns", ""},
      {"update_p99_ns", w.Latency(kUpdate, 0.99), "ns", ""},
      {"insert_p50_ns", w.Latency(kInsert, 0.50), "ns", ""},
      {"remove_p50_ns", w.Latency(kRemove, 0.50), "ns", ""},
      {"scan_p50_ns", w.Latency(kScan, 0.50), "ns", ""},
      {"recovery_s", f.recovery.seconds, "s", ""},
      {"space_amp", f.space_amp, "ratio", ""},
      {"rss_peak_mib", rss, "MiB", ""},
  };
  std::printf("slice rates (Mops/s of client time left by the host):");
  for (double r : w.slice_rates) std::printf(" %.2f", r * 1e-6);
  std::printf("\nslice rates (Mops/s of wall time):");
  for (double r : w.wall_rates) std::printf(" %.2f", r * 1e-6);
  std::printf("\nshare of client time taken by the host: mean %.3f, max %.3f",
              std::accumulate(w.taken.begin(), w.taken.end(), 0.0) /
                  double(std::max<size_t>(1, w.taken.size())),
              w.taken.empty() ? 0.0 : *std::max_element(w.taken.begin(), w.taken.end()));
  std::printf("\nwindow %.3f s, %" PRIu64 " calls:", w.seconds, w.ops);
  for (uint32_t k = 0; k < kKinds; ++k) {
    std::printf(" %s=%" PRIu64, KindName(k), w.hist[k].count());
  }
  std::printf("\n");
  const uint64_t failed = w.mismatches + chk.failed;
  PrintResult(failed == 0, w.attempted, failed, out);
  return 0;
}

// Per-layer run: an untraced window on a metrics-off table gives the
// reference rate, then a traced window (spans on, runtime metrics on) on a
// fresh table gives the layer figures as counter deltas over the window.
int RunTraced(const Args& a, const Shape& s) {
  const uint64_t salt = Fmix64(a.seed ^ 0x243f6a8885a308d3ULL);
  const auto streams = MakeStreams(s, a.seed);
  const double half = a.seconds / 2;
  Checker chk;
  uint64_t mismatches = 0;
  uint64_t attempted = 0;
  double untraced_rate = 0;
  {
    auto table = Setup(s, salt, /*metrics=*/false, &chk);
    Model model = InitialModel(s);
    Window w = RunWindow(s, streams, *table, model, salt, a.seed, half, false);
    untraced_rate = w.ops_per_s();
    mismatches += w.mismatches;
    attempted += w.attempted;
  }
  const uint64_t p0 = NowNs();
  auto table = Setup(s, salt, /*metrics=*/true, &chk);
  const uint64_t p1 = NowNs();
  std::vector<Span> spans = {{uint64_t{0xfd} << 48, 0, p1 - p0, kSpanPreload}};
  Model model = InitialModel(s);
#if EXHASH_METRICS_ENABLED
  exhash::metrics::TableMetrics* tm = table->table_metrics();
  for (int mode = 0; mode < 3; ++mode) {
    tm->dir_lock.acquire_ns[mode].Reset();
    tm->bucket_locks.acquire_ns[mode].Reset();
  }
#endif
  const Counters before = Snapshot(*table);
  Window w = RunWindow(s, streams, *table, model, salt, a.seed, half, true);
  const Counters after = Snapshot(*table);
  mismatches += w.mismatches;
  attempted += w.attempted;
  chk.Expect(w.ckpt_failures == 0, "checkpoints during the window");
  chk.Expect(s.restructures || w.restructures == 0,
             "nothing splits or merges in the window");

  double dir_wait_p99 = 0;
  double bucket_wait_p99 = 0;
#if EXHASH_METRICS_ENABLED
  {
    exhash::util::Histogram dir, bucket;
    for (int mode = 0; mode < 3; ++mode) {
      dir.Merge(tm->dir_lock.acquire_ns[mode]);
      bucket.Merge(tm->bucket_locks.acquire_ns[mode]);
    }
    dir_wait_p99 = double(dir.Percentile(99));
    bucket_wait_p99 = double(bucket.Percentile(99));
  }
#endif
  Finish f = FinishWorkload(s, table, model, salt, a.seed, &chk);
  const double traced_rate = w.ops_per_s();

  const TableStats& s0 = before.stats;
  const TableStats& s1 = after.stats;
  const PageStoreStats& i0 = before.io;
  const PageStoreStats& i1 = after.io;
  const double ops = double(w.ops);
  const double kop = ops / 1000.0;
  const double finds = double(s1.finds - s0.finds);
  const double writes = double(w.hist[kUpdate].count() +
                               w.hist[kInsert].count() +
                               w.hist[kRemove].count());
  const double records = double((i1.wal_images - i0.wal_images) +
                                (i1.wal_deltas - i0.wal_deltas));
  const double flushed = double(i1.wal_flushed_bytes - i0.wal_flushed_bytes);
  const double hits = double(i1.pool_hits - i0.pool_hits);
  const double misses = double(i1.pool_misses - i0.pool_misses);
  const double unpinned = double(i1.pool_unpinned_reads - i0.pool_unpinned_reads);
  // WAL flush latency buckets: <1us, <4us, ... <4ms, more (Wal::Stats).
  double flush_p50_us = 0;
  {
    static const double kEdges[] = {0, 1, 4, 16, 64, 256, 1000, 4000, 16000};
    uint64_t counts[exhash::storage::Wal::kLatencyBuckets];
    uint64_t total = 0;
    for (size_t b = 0; b < exhash::storage::Wal::kLatencyBuckets; ++b) {
      counts[b] = i1.wal_flush_latency_us_hist[b] - i0.wal_flush_latency_us_hist[b];
      total += counts[b];
    }
    double seen = 0;
    const double rank = 0.5 * double(total);
    for (size_t b = 0; b < exhash::storage::Wal::kLatencyBuckets && total; ++b) {
      if (counts[b] != 0 && seen + double(counts[b]) >= rank) {
        flush_p50_us = kEdges[b] + (rank - seen) / double(counts[b]) *
                                       (kEdges[b + 1] - kEdges[b]);
        break;
      }
      seen += double(counts[b]);
    }
  }
  for (size_t i = 0; i < f.recovery.durations_ns.size(); ++i) {
    spans.push_back({(uint64_t{0xfe} << 48) | i, 0, f.recovery.durations_ns[i],
                     kSpanRecover});
  }
  spans.insert(spans.end(), w.spans.begin(), w.spans.end());
  LatencyHist span_hist[kSpanCalls];
  for (uint32_t k = 0; k < kKinds; ++k) span_hist[k] = w.hist[k];
  for (uint64_t ns : w.ckpt_ns) span_hist[kSpanCheckpoint].Add(ns);
  for (uint64_t ns : f.recovery.durations_ns) span_hist[kSpanRecover].Add(ns);
  span_hist[kSpanPreload].Add(p1 - p0);

  const std::string rz = " on read-zipf";
  const std::string gd = " on grow-drain";
  const std::string dp = " on durable-paged";
  std::vector<Metric> out = {
      {"core.optimistic_hit_ratio",
       Ratio(double(s1.optimistic_hits - s0.optimistic_hits), finds), "ratio",
       "find_p50_ns, find_p99_ns, ops_per_s" + rz},
      {"core.seq_retries_per_kop",
       Ratio(double(s1.seq_retries - s0.seq_retries), kop), "1/kop",
       "find_p50_ns, find_p99_ns, ops_per_s" + rz},
      {"core.seq_fallbacks_per_kop",
       Ratio(double(s1.seq_fallbacks - s0.seq_fallbacks), kop), "1/kop",
       "find_p50_ns, find_p99_ns, ops_per_s" + rz},
      {"core.stale_reads_per_kop",
       Ratio(double(s1.stale_reads - s0.stale_reads), kop), "1/kop",
       "find_p99_ns" + gd},
      {"core.wrong_bucket_hops_per_kop",
       Ratio(double(s1.wrong_bucket_hops - s0.wrong_bucket_hops), kop),
       "1/kop", "find_p99_ns" + gd},
      {"core.splits", double(s1.splits - s0.splits), "count",
       "insert_p50_ns, ops_per_s" + gd},
      {"core.merges", double(s1.merges - s0.merges), "count",
       "remove_p50_ns, ops_per_s" + gd},
      {"core.doublings", double(s1.doublings - s0.doublings), "count",
       "insert_p50_ns, ops_per_s" + gd},
      {"core.halvings", double(s1.halvings - s0.halvings), "count",
       "remove_p50_ns, ops_per_s" + gd},
      {"core.dir_publishes", double(after.publishes - before.publishes),
       "count", "insert_p50_ns, remove_p50_ns, ops_per_s" + gd},
      {"core.insert_retries", double(s1.insert_retries - s0.insert_retries),
       "count", "insert_p50_ns" + gd},
      {"core.delete_restarts",
       double(s1.delete_restarts - s0.delete_restarts), "count",
       "remove_p50_ns" + gd},
      {"core.partner_relocks",
       double(s1.partner_relocks - s0.partner_relocks), "count",
       "remove_p50_ns" + gd},
      {"lock.dir.alpha_per_kop",
       Ratio(double(after.dir.alpha_acquired - before.dir.alpha_acquired), kop),
       "1/kop", "ops_per_s, insert_p50_ns, remove_p50_ns" + gd},
      {"lock.dir.xi_per_kop",
       Ratio(double(after.dir.xi_acquired - before.dir.xi_acquired), kop),
       "1/kop", "ops_per_s, insert_p50_ns, remove_p50_ns" + gd},
      {"lock.dir.contended_per_kop",
       Ratio(double(after.dir.contended - before.dir.contended), kop), "1/kop",
       "ops_per_s, insert_p50_ns, remove_p50_ns" + gd},
      {"lock.dir.wait_ns_p99", dir_wait_p99, "ns",
       "ops_per_s, insert_p50_ns, remove_p50_ns" + gd},
      {"lock.bucket.contended_per_kop",
       Ratio(double(after.bucket.contended - before.bucket.contended), kop),
       "1/kop", "update_p99_ns" + rz + " and grow-drain"},
      {"lock.bucket.upgrades_per_kop",
       Ratio(double(after.bucket.upgrades - before.bucket.upgrades), kop),
       "1/kop", "update_p99_ns" + rz + " and grow-drain"},
      {"lock.bucket.wait_ns_p99", bucket_wait_p99, "ns",
       "update_p99_ns" + rz + " and grow-drain"},
      {"store.reads_per_op", Ratio(double(i1.reads - i0.reads), ops), "1/op",
       "find_p50_ns, update_p50_ns on every workload"},
      {"store.writes_per_op", Ratio(double(i1.writes - i0.writes), ops),
       "1/op", "find_p50_ns, update_p50_ns on every workload"},
      {"store.torn_ratio",
       Ratio(double(i1.optimistic_torn - i0.optimistic_torn),
             double(i1.optimistic_reads - i0.optimistic_reads)),
       "ratio", "find_p50_ns on every workload, find_p99_ns" + rz},
      {"wal.bytes_per_write", Ratio(flushed, records), "B",
       "update_p50_ns, ops_per_s, recovery_s" + dp},
      {"wal.delta_share",
       Ratio(double(i1.wal_deltas - i0.wal_deltas), records), "ratio",
       "update_p50_ns, ops_per_s, recovery_s" + dp},
      {"wal.flushes_per_commit",
       Ratio(double(i1.wal_flushes - i0.wal_flushes),
             double(i1.wal_commits - i0.wal_commits)),
       "ratio", "update_p50_ns, ops_per_s" + dp},
      {"wal.flush_us_p50", flush_p50_us, "us",
       "update_p50_ns, ops_per_s" + dp},
      {"wal.durable_bytes_per_user_byte", Ratio(flushed, writes * 16), "ratio",
       "update_p50_ns, ops_per_s, recovery_s" + dp},
      {"ckpt.calls", double(w.ckpt_ns.size()), "count",
       "update_p99_ns, recovery_s" + dp},
      {"ckpt.call_ms_p50", Median(w.ckpt_ns) * 1e-6, "ms",
       "update_p99_ns, recovery_s" + dp},
      {"pool.hit_ratio", Ratio(hits + unpinned, hits + misses + unpinned),
       "ratio", "find_p50_ns, ops_per_s" + dp},
      {"pool.evictions_per_kop",
       Ratio(double(i1.pool_evictions - i0.pool_evictions), kop), "1/kop",
       "find_p50_ns, ops_per_s" + dp},
      {"pool.writebacks_per_kop",
       Ratio(double(i1.pool_writebacks - i0.pool_writebacks), kop), "1/kop",
       "find_p50_ns, ops_per_s" + dp},
      {"pool.unpinned_read_share",
       Ratio(unpinned, hits + misses + unpinned), "ratio",
       "find_p50_ns, ops_per_s" + dp},
      {"recovery.slots_loaded", double(f.recovery.report.slots_loaded),
       "count", "recovery_s" + dp},
      {"recovery.replayed_images", double(f.recovery.report.replayed_images),
       "count", "recovery_s" + dp},
      {"recovery.replayed_deltas", double(f.recovery.report.replayed_deltas),
       "count", "recovery_s" + dp},
  };
  for (uint32_t call = 0; call < kSpanCalls; ++call) {
    out.push_back({std::string("span.") + SpanCallName(call) + ".p50_ns",
                   span_hist[call].Percentile(0.5), "ns",
                   "trust in the layer figures"});
  }
  out.push_back({"trace.overhead", 1.0 - Ratio(traced_rate, untraced_rate),
                 "ratio", "ops_per_s (untraced " +
                              std::to_string(uint64_t(untraced_rate)) +
                              " vs traced " +
                              std::to_string(uint64_t(traced_rate)) + ")"});
  WriteSpans(a.spans_out, spans);
  std::printf("traced window %.3f s, %" PRIu64 " calls, %zu spans kept\n",
              w.seconds, w.ops, spans.size());
  const uint64_t failed = mismatches + chk.failed;
  PrintResult(failed == 0, attempted, failed, out);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (k == "--small") {
      a->small = true;
      continue;
    }
    const char* v = val();
    if (v == nullptr) return false;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return a->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ellis_bench --workload read-zipf|grow-drain|"
                 "durable-paged --seed N --seconds S --trace 0|1 [--small] "
                 "[--git-sha SHA] [--spans-out FILE]\n");
    return 2;
  }
  const perfbench::Shape shape = perfbench::MakeShape(args.workload, args.small);
  if (shape.name == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::PrintFingerprint(args, shape);
  return args.trace ? perfbench::RunTraced(args, shape)
                    : perfbench::RunEndToEnd(args, shape);
}
