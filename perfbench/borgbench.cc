// borgbench: the end-to-end benchmark of the stream, ivm, serve, ml and
// shard layers, with per-layer attribution from the production instruments.
//
//   borgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Workloads (one Retailer stream each; the seed drives GenOptions::seed and
// the stream seed, and the library only sees the generated batches):
//
//   insert-fivm    insert-only stream at scale 0.1 (211k rows): the
//                  paper's headline strategy, staging-bound.
//   mixed-serve    BuildMixedStream at scale 0.05 (delete probability 0.5,
//                  full retractions 0.02, ~196k rows; deletes of dimension
//                  relations dropped, see MakeInput): deletes, and reads
//                  beside writes.
//
// Both maintain the covariance batch with F-IVM (CovarFivm).
//
// Every workload drives its stream through the same four paths per round,
// so every end-to-end metric is measured on every workload:
//
//   loop     the per-batch AppendRows + ApplyBatch loop (also the
//            reference every other path is checked against);
//   sched    StreamScheduler, closed loop, first Push to Finish return;
//   sharded  ShardedStreamScheduler, closed loop, first Push to the return
//            of MergedCurrent after Finish;
//   serve    StreamScheduler + SnapshotServer: one open-loop producer at
//            the workload's fixed rate (each batch timed from its due
//            time) and two closed-loop readers (BeginSnapshot, Covar,
//            GroupBy every 8th iteration, TrainModel every 64th,
//            EndSnapshot).
//
// Production defaults throughout: StreamOptions{} (epochs of 8192 rows),
// ServeOptions{}, ExecPolicy with partition_grain 128. Every path keeps its
// runnable threads within a 4-CPU host: ExecPolicy threads = 1 (the
// partitioned plan run serially) and shards = min(2, nproc) with 1 intra-op
// thread each, so the pipelines' stage threads, the producer and the readers
// do not queue for CPUs behind each other.
//
// The data is generated kSetupReps times before anything is measured
// (setup_s is the median; the last build is used). Data generation and the
// loop run on one thread and are timed in that thread's CPU time; the
// pipelines, which overlap threads, are timed in wall time. Path order: an
// untimed reference loop pass runs first in every process (it also grows
// the heap, which otherwise slows whichever path runs first), then each
// round rotates the path order by one, so no path always runs first.
// Untraced closed-loop paths repeat within a round until kMinPathSeconds of
// them are measured. Every metric is the median over the run's passes of
// that pass's value; serve latencies are computed per serve pass from the
// benchmark's own samples, never from the registry's log2-bucket
// histograms (those are read only as Sum/Count and gauges). Host-bound
// timings are then scaled to a reference host speed measured by HostProbe
// (see there); stderr shows every metric as measured and its scale factor.
// perfbench/run.py runs several of these processes per run and reports
// the median of their results.
//
// With --trace 1 the run measures the per-layer metrics instead: every path
// records into a fresh obs::TraceRecorder (Chrome JSON of the first round is
// written to --out). The sched slot runs an untraced and a traced side back
// to back, each repeated to kMinPathSeconds, the side that goes first
// alternating by round; obs.trace_overhead_ratio is the median over rounds
// of traced over untraced throughput. Span self time is the span's duration
// minus the time its direct children cover on the same thread. A metric
// whose instrument is missing from the registry or the trace is omitted,
// never reported as 0.
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}. Any failed operation or output mismatch exits non-zero.
#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "ivm/ivm.h"
#include "ivm/shadow_db.h"
#include "ivm/update_stream.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/snapshot_server.h"
#include "shard/shard_map.h"
#include "shard/sharded_stream_scheduler.h"
#include "stream/stream_scheduler.h"
#include "util/timer.h"

namespace relborg {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

using Strategy = CovarFivm;

struct WorkloadSpec {
  const char* name;
  double scale;             // GenOptions::scale of the Retailer generator
  bool mixed;               // BuildMixedStream instead of BuildInsertStream
  double serve_rows_per_s;  // offered rate of the serve path's producer
};

// Serve rates are fixed offered loads, a small share of what the pipeline
// sustains saturated (1-4M rows/s on both workloads on a 4-CPU host,
// depending on how busy the host's other tenants keep it), so a slow
// stretch of the host does not tip the serve pass into a growing backlog.
constexpr WorkloadSpec kWorkloads[] = {
    {"insert-fivm", 0.1, false, 150000},
    {"mixed-serve", 0.05, true, 150000},
};

constexpr size_t kBatchRows = 1000;
constexpr int kSetupReps = 3;
// Intra-op threads of every pipeline and of the loop, and the shard count
// of the sharded path (1 intra-op thread per shard). The pipeline runs four
// stage threads besides the producer, so larger values put more runnable
// threads on a 4-CPU host than it has CPUs, and the run measures the
// scheduler instead of the program.
constexpr int kThreads = 1;
constexpr int kMaxShards = 2;
constexpr double kMinPathSeconds = 0.25;
constexpr int kReaders = 2;
constexpr int kGroupByEvery = 8;
constexpr int kTrainEvery = 64;
constexpr int kReadSpanEvery = 16;  // bench/read span sampling
// Read latency is sampled: a reader issues up to ~1M reads/s, and
// timing and storing all of them cost more than the reads. 4 is coprime to
// the 9 reads of each 8-iteration Covar/GroupBy cycle, so both kinds are
// sampled in proportion.
constexpr size_t kReadSampleEvery = 4;
// Traced serve passes: production records one serve span per read, and an
// unpaced reader issues millions of reads per pass. Each reader
// is therefore paced to kTracedReaderIters iterations spread over the
// planned ingest time (about 1.22 spans per iteration), so its ring of
// kTraceRingSlots never overwrites. Untraced passes are never paced.
constexpr uint32_t kTraceRingSlots = 1u << 19;
constexpr size_t kTracedReaderIters = 400000;
constexpr int kMergeReps = 5;
constexpr double kRelTol = 1e-9;

int HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

struct Args {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "borgbench: %s\nusage: borgbench --workload "
               "<insert-fivm|mixed-serve> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (val == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) Usage(("unknown workload " + val).c_str());
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') Usage("bad --seed");
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(args.seconds > 0)) {
        Usage("bad --seconds");
      }
      have_seconds = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") Usage("bad --trace");
      args.trace = val == "1";
      have_trace = true;
    } else if (key == "--out") {
      args.out_dir = val;
    } else {
      Usage(("unknown flag " + key).c_str());
    }
  }
  if (args.workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

// ---------------------------------------------------------------------------
// Small statistics helpers
// ---------------------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return NAN;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of an unsorted sample set.
double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return NAN;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * v->size()));
  rank = std::min(std::max<size_t>(rank, 1), v->size());
  return (*v)[rank - 1];
}

double SecondsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

// CPU time of the calling thread. Single-threaded work (data generation,
// the per-batch loop) is timed with it: it counts what the thread executed
// and not the time the host ran something else on its CPU, which on a
// shared host moves wall time by tens of percent between runs.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(Now()) {}
  double Seconds() const { return Now() - start_; }

 private:
  static double Now() {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
  }
  double start_;
};

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------

// A shared virtual machine's speed drifts with the host's other tenants:
// on a 4-vCPU VM every timing of a process, single-threaded CPU time
// included, moved together by 20-40% within minutes and by up to 3x over
// hours. HostProbe is a fixed kernel, independent of the library, that runs
// before every pass of the untraced run; the run reports its host-bound
// timings scaled to a host on which the probe takes kProbeReferenceSeconds
// (see kEndToEnd in RunWorkload). Its buffers are allocated once, so the
// library's heap state cannot change what it measures, and no library
// thread is alive while it runs.
constexpr double kProbeReferenceSeconds = 0.02;

class HostProbe {
 public:
  HostProbe() : col_(size_t{1} << 17), idx_(size_t{1} << 16), table_(kSlots) {
    (void)Run();  // first touch of the buffers, untimed
  }

  // CPU seconds of one pass: an in-cache gather over 1 MB, then random
  // read-modify-writes of an 8 MB table (beyond a core's own caches).
  double Run() {
    ThreadCpuTimer t;
    uint64_t x = 88172645463325252ull;
    auto next = [&] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    double acc = 0;
    for (int rep = 0; rep < 40; ++rep) {
      for (double& v : col_) v = static_cast<double>(next() % 1000) * 0.5;
      for (uint32_t& i : idx_) i = static_cast<uint32_t>(next() % col_.size());
      for (uint32_t i : idx_) acc += col_[i] * col_[(i * 7) % col_.size()];
    }
    for (size_t i = 0; i < 4 * kSlots; ++i) {
      Slot& s = table_[next() & (kSlots - 1)];
      acc += s.v[0] * s.v[1] + s.v[2];
      s.v[0] += 1e-9;
    }
    sink_ = acc;
    return t.Seconds();
  }

 private:
  struct Slot {
    double v[4] = {1.0, 2.0, 3.0, 0.0};
  };
  static constexpr size_t kSlots = size_t{1} << 18;
  std::vector<double> col_;
  std::vector<uint32_t> idx_;
  std::vector<Slot> table_;
  volatile double sink_ = 0;
};

// ---------------------------------------------------------------------------
// Failure accounting and output checks
// ---------------------------------------------------------------------------

// Counts only operations that can fail: Push and Finish statuses, output
// and consumed-row checks, and the readers' sight of the final epoch.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Op(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "borgbench: FAILED %s\n", what);
    }
  }
  void Returned(const Status& st, const char* what) {
    ++attempted;
    if (!st.ok()) {
      ++failed;
      std::fprintf(stderr, "borgbench: FAILED %s: %s\n", what,
                   st.ToString().c_str());
    }
  }
  // Rejected, dropped and quarantine-dropped batches are failures even when
  // every Status came back OK; the denominator counts the batches pushed.
  void Stats(const StreamStats& s, const char* what) {
    const size_t bad = s.rejected_batches + s.dropped_batches +
                       s.quarantine_dropped_batches;
    if (bad > 0) {
      failed += bad;
      std::fprintf(stderr,
                   "borgbench: FAILED %s: %zu rejected, %zu dropped, %zu "
                   "quarantine-dropped batches\n",
                   what, s.rejected_batches, s.dropped_batches,
                   s.quarantine_dropped_batches);
    }
  }
};

// Count exact, every moment within kRelTol relative: the tolerance the
// sharded scaling harness uses (Retailer's real-valued features make
// bitwise equality across summation orders unavailable).
bool SameCovar(const CovarMatrix& got, const CovarMatrix& want,
               const char* what) {
  if (got.num_features() != want.num_features() ||
      got.count() != want.count()) {
    std::fprintf(stderr,
                 "borgbench: %s: shape/count %d/%.17g vs reference %d/%.17g\n",
                 what, got.num_features(), got.count(), want.num_features(),
                 want.count());
    return false;
  }
  const int n = want.num_features();
  for (int i = 0; i <= n; ++i) {
    for (int j = i; j <= n; ++j) {
      const double a = got.Moment(i, j);
      const double b = want.Moment(i, j);
      if (!(std::fabs(a - b) <= kRelTol * std::max(1.0, std::fabs(b)))) {
        std::fprintf(stderr,
                     "borgbench: %s: moment (%d,%d) = %.17g vs reference "
                     "%.17g\n",
                     what, i, j, a, b);
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Trace analysis: per-name totals and self times from the Chrome export
// ---------------------------------------------------------------------------

struct SpanTotals {
  double total_s = 0;
  double self_s = 0;
};

struct TraceSummary {
  bool valid = false;  // events parsed and nothing dropped
  std::map<std::string, SpanTotals> spans;

  // Sum over several span names; NAN when none of them was recorded.
  double Total(std::initializer_list<const char*> names) const {
    return Sum(names, &SpanTotals::total_s);
  }
  double Self(std::initializer_list<const char*> names) const {
    return Sum(names, &SpanTotals::self_s);
  }

 private:
  double Sum(std::initializer_list<const char*> names,
             double SpanTotals::*field) const {
    double s = 0;
    bool any = false;
    for (const char* n : names) {
      auto it = spans.find(n);
      if (it == spans.end()) continue;
      s += it->second.*field;
      any = true;
    }
    return any ? s : NAN;
  }
};

struct ParsedSpan {
  double ts = 0;   // microseconds
  double dur = 0;  // microseconds
  std::string_view name;  // into the exported JSON
};

// Reads the numeric value following `"key":` inside [obj, obj_end).
bool FindNumber(const char* obj, const char* obj_end, const char* key,
                double* out) {
  const char* p = std::strstr(obj, key);
  if (p == nullptr || p >= obj_end) return false;
  p += std::strlen(key);
  char* end = nullptr;
  *out = std::strtod(p, &end);
  return end != p;
}

// Parses the complete ("ph":"X") events of TraceRecorder::ExportChromeJson
// and computes per-name total and self time. Self time is the duration
// minus the union of the direct children's intervals on the same thread.
TraceSummary Summarize(const std::string& json, uint64_t dropped) {
  TraceSummary sum;
  std::map<long, std::vector<ParsedSpan>> by_tid;
  size_t parsed = 0;
  const char* base = json.c_str();
  for (const char* p = std::strstr(base, "{\"ph\":\"X\""); p != nullptr;
       p = std::strstr(p + 1, "{\"ph\":\"X\"")) {
    const char* obj_end = std::strstr(p, "}}");
    if (obj_end == nullptr) break;
    double tid = 0;
    ParsedSpan s;
    const char* name = std::strstr(p, "\"name\":\"");
    if (!FindNumber(p, obj_end, "\"tid\":", &tid) ||
        !FindNumber(p, obj_end, "\"ts\":", &s.ts) ||
        !FindNumber(p, obj_end, "\"dur\":", &s.dur) || name == nullptr ||
        name >= obj_end) {
      return sum;  // unknown export format: withhold every span metric
    }
    name += 8;
    const char* name_end = std::strchr(name, '"');
    if (name_end == nullptr || name_end >= obj_end) return sum;
    s.name = std::string_view(name, static_cast<size_t>(name_end - name));
    by_tid[static_cast<long>(tid)].push_back(std::move(s));
    ++parsed;
  }
  for (auto& thread : by_tid) {
    std::vector<ParsedSpan>& spans = thread.second;
    // Parents before children: by start, longer first on ties.
    std::sort(spans.begin(), spans.end(),
              [](const ParsedSpan& a, const ParsedSpan& b) {
                return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
              });
    struct Open {
      const ParsedSpan* span;
      double end;
      double child_us;
    };
    std::vector<Open> stack;
    auto close = [&](const Open& o) {
      SpanTotals& t = sum.spans[std::string(o.span->name)];
      t.total_s += o.span->dur * 1e-6;
      t.self_s += std::max(0.0, o.span->dur - o.child_us) * 1e-6;
    };
    for (const ParsedSpan& s : spans) {
      while (!stack.empty() && stack.back().end <= s.ts) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) {
        // Clip to the parent: rounding in the export can overhang by 1ns.
        stack.back().child_us +=
            std::min(s.ts + s.dur, stack.back().end) - s.ts;
      }
      stack.push_back({&s, s.ts + s.dur, 0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  sum.valid = parsed > 0 && dropped == 0;
  return sum;
}

// A fresh recorder per traced pass, sized so no ring overwrites: every
// thread gets `events_per_thread` slots rounded up to a power of two.
std::unique_ptr<obs::TraceRecorder> MakeRecorder(size_t events_per_thread) {
  uint32_t cap = obs::TraceRecorder::kDefaultCapacity;
  while (cap < events_per_thread && cap < (1u << 26)) cap <<= 1;
  return std::make_unique<obs::TraceRecorder>(cap);
}

// ---------------------------------------------------------------------------
// The workload's data
// ---------------------------------------------------------------------------

struct Input {
  Dataset ds;
  std::vector<UpdateBatch> stream;
  size_t rows = 0;
  std::vector<size_t> cum_rows;  // rows in batches [0, i]
};

Input MakeInput(const WorkloadSpec& w, uint64_t seed) {
  Input in;
  GenOptions gen;
  gen.scale = w.scale;
  gen.seed = seed;
  in.ds = MakeRetailer(gen);
  UpdateStreamOptions insert;
  insert.batch_size = kBatchRows;
  insert.seed = seed;
  if (w.mixed) {
    MixedStreamOptions mixed;
    mixed.insert = insert;
    mixed.delete_probability = 0.5;
    mixed.full_retraction_probability = 0.02;
    // Dimension relations stay insert-only: a 1000-row delete empties
    // Items, Stores or Demographics for good (round-robin loads them once),
    // after which the join is empty on every seed and there is nothing to
    // read or train on. The fact relation keeps all its deletes and full
    // retractions, and every kept delete retracts rows a kept insert added.
    const int root = in.ds.query.IndexOf(in.ds.fact);
    for (UpdateBatch& b : BuildMixedStream(in.ds.query, mixed)) {
      if (b.sign < 0 && b.node != root) continue;
      in.stream.push_back(std::move(b));
    }
  } else {
    in.stream = BuildInsertStream(in.ds.query, insert);
  }
  in.cum_rows.reserve(in.stream.size());
  for (const UpdateBatch& b : in.stream) {
    in.rows += b.rows.size();
    in.cum_rows.push_back(in.rows);
  }
  return in;
}

// ---------------------------------------------------------------------------
// Per-pass results
// ---------------------------------------------------------------------------

// One value per pass for every metric; the run reports their medians.
struct Samples {
  std::map<std::string, std::vector<double>> e2e;    // untraced passes
  std::map<std::string, std::vector<double>> layer;  // traced passes
  uint64_t spans_dropped = 0;
  bool spans_withheld = false;
  bool priority_unraised = false;  // some serve producer ran at nice 0

  void E2e(const std::string& name, double v) {
    if (std::isfinite(v)) e2e[name].push_back(v);
  }
  void Layer(const std::string& name, double v) {
    if (std::isfinite(v)) layer[name].push_back(v);
  }
};

// Raises the calling (producer) thread's CPU priority for its lifetime,
// where the host allows it: the load generator shares 4 CPUs with two
// spinning readers and the pipeline, and without priority its wake-up
// delays (not the system under test) dominated how late batches were
// pushed, which freshness counts from their due time. Whether
// it was raised is part of the result's header line.
class ProducerPriority {
 public:
  ProducerPriority() : tid_(static_cast<pid_t>(syscall(SYS_gettid))) {
    errno = 0;
    old_ = getpriority(PRIO_PROCESS, static_cast<id_t>(tid_));
    raised_ = errno == 0 &&
              setpriority(PRIO_PROCESS, static_cast<id_t>(tid_), -10) == 0;
  }
  ~ProducerPriority() {
    if (raised_) setpriority(PRIO_PROCESS, static_cast<id_t>(tid_), old_);
  }
  ProducerPriority(const ProducerPriority&) = delete;
  ProducerPriority& operator=(const ProducerPriority&) = delete;
  bool raised() const { return raised_; }

 private:
  pid_t tid_;
  int old_ = 0;
  bool raised_ = false;
};

struct Env {
  const WorkloadSpec* spec;
  const Input* in;
  const CovarMatrix* ref;  // null while the reference pass runs
  ExecPolicy policy;
  ExecPolicy shard_policy;
  int shards;
  Ledger* ledger;
  Samples* samples;
  bool trace;            // record this pass into a fresh recorder
  bool export_trace;     // write this pass's Chrome JSON to out_dir
  std::string out_dir;
};

void Check(const Env& env, const CovarMatrix& got, const char* what) {
  if (env.ref == nullptr) return;
  env.ledger->Op(SameCovar(got, *env.ref, what), what);
}

void ExportTrace(const Env& env, const std::string& json,
                 const char* path_name) {
  if (!env.export_trace || env.out_dir.empty()) return;
  const std::string file =
      env.out_dir + "/" + env.spec->name + "-" + path_name + ".trace.json";
  std::ofstream f(file, std::ios::binary | std::ios::trunc);
  f << json;
  if (!f) std::fprintf(stderr, "borgbench: cannot write %s\n", file.c_str());
}

// Finishes a traced pass: summarizes the recorder, exports the last round.
TraceSummary CloseTrace(const Env& env, obs::TraceRecorder* rec,
                        const char* path_name) {
  const std::string json = rec->ExportChromeJson();
  const uint64_t dropped = rec->dropped();
  env.samples->spans_dropped += dropped;
  TraceSummary sum = Summarize(json, dropped);
  if (!sum.valid) env.samples->spans_withheld = true;
  ExportTrace(env, json, path_name);
  return sum;
}

double CounterValue(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Counter* c = reg.FindCounter(name);
  return c == nullptr ? NAN : c->Value();
}
double GaugeValue(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Gauge* g = reg.FindGauge(name);
  return g == nullptr ? NAN : g->Value();
}
double HistSum(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Histogram* h = reg.FindHistogram(name);
  return h == nullptr ? NAN : h->Sum();
}
double HistMean(const obs::MetricsRegistry& reg, const char* name) {
  const obs::Histogram* h = reg.FindHistogram(name);
  return h == nullptr || h->Count() == 0
             ? NAN
             : h->Sum() / static_cast<double>(h->Count());
}

// The stream/ivm layer breakdown of one traced pipeline pass: registry
// instruments of the pass's registry plus its spans.
void RecordPipelineLayers(const Env& env, const obs::MetricsRegistry& reg,
                          const TraceSummary& tr) {
  Samples& s = *env.samples;
  const double spec =
      CounterValue(reg, "relborg_stream_speculated_ranges_total");
  const double hits =
      CounterValue(reg, "relborg_stream_speculation_hits_total");
  if (spec > 0) s.Layer("stream.speculation_hit_ratio", hits / spec);
  s.Layer("stream.ingress_high_water_rows",
          GaugeValue(reg, "relborg_stream_ingress_high_water_rows"));
  s.Layer("stream.rows_per_range",
          CounterValue(reg, "relborg_stream_rows_total") /
              CounterValue(reg, "relborg_stream_ranges_total"));
  s.Layer("stream.gate_wait_s",
          HistSum(reg, "relborg_stream_commit_gate_wait_seconds") +
              HistSum(reg, "relborg_stream_maintain_gate_wait_seconds") +
              HistSum(reg, "relborg_stream_compute_gate_wait_seconds"));
  s.Layer("stream.epoch_latency_mean_ms",
          HistMean(reg, "relborg_stream_epoch_latency_seconds") * 1e3);
  s.Layer("stream.epoch_latency_max_ms",
          GaugeValue(reg, "relborg_stream_epoch_latency_max_seconds") * 1e3);
  if (!tr.valid) return;
  s.Layer("stream.assemble_busy_s", tr.Self({"assemble"}));
  s.Layer("stream.commit_busy_s", tr.Self({"commit"}));
  s.Layer("stream.apply_busy_s", tr.Self({"apply"}));
  s.Layer("stream.compute_busy_s", tr.Self({"compute"}));
  s.Layer("stream.push_s", tr.Total({"bench/push"}));
  s.Layer("ivm.commit_chunk_s", tr.Total({"commit-chunk"}));
  s.Layer("ivm.delta_s", tr.Total({"fivm/delta"}));
  s.Layer("ivm.propagate_s", tr.Total({"fivm/propagate"}));
}

// ---------------------------------------------------------------------------
// Paths
// ---------------------------------------------------------------------------

CovarMatrix RunLoop(const Env& env, double* measured_s = nullptr) {
  const Input& in = *env.in;
  std::unique_ptr<obs::TraceRecorder> rec;
  if (env.trace) rec = MakeRecorder(4 * in.stream.size() + 1024);
  obs::ThreadTraceScope scope(rec.get(), "bench");
  ShadowDb shadow(in.ds.query, in.ds.query.IndexOf(in.ds.fact));
  FeatureMap fm(shadow.query(), in.ds.features);
  Strategy strategy(&shadow, &fm, env.policy);
  ThreadCpuTimer timer;
  for (const UpdateBatch& b : in.stream) {
    size_t first;
    {
      obs::TraceSpan span("bench/append", "bench", -1, b.node);
      first = shadow.AppendRows(b.node, b.rows, b.sign);
    }
    obs::TraceSpan span("bench/apply", "bench", -1, b.node);
    strategy.ApplyBatch(b.node, first, b.rows.size());
  }
  const double secs = timer.Seconds();
  CovarMatrix result = strategy.Current();
  if (env.ref != nullptr && !env.trace) {
    env.samples->E2e("loop_rows_per_s", in.rows / secs);
  }
  if (rec) {
    TraceSummary tr = CloseTrace(env, rec.get(), "loop");
    if (tr.valid) {
      env.samples->Layer("ivm.append_ns_per_row",
                         tr.Total({"bench/append"}) * 1e9 / in.rows);
      env.samples->Layer("ivm.maintain_ns_per_row",
                         tr.Total({"bench/apply"}) * 1e9 / in.rows);
    }
  }
  Check(env, result, "loop output");
  if (measured_s != nullptr) *measured_s = secs;
  return result;
}

double RunSched(const Env& env, bool traced) {
  const Input& in = *env.in;
  std::vector<UpdateBatch> feed = in.stream;  // Push consumes its batch
  std::unique_ptr<obs::TraceRecorder> rec;
  if (traced) rec = MakeRecorder(4 * in.stream.size() + 1024);
  obs::ThreadTraceScope scope(rec.get(), "bench-producer");
  ShadowDb shadow(in.ds.query, in.ds.query.IndexOf(in.ds.fact));
  FeatureMap fm(shadow.query(), in.ds.features);
  Strategy strategy(&shadow, &fm, env.policy);
  obs::MetricsRegistry registry;
  StreamOptions options;
  options.metrics = &registry;
  options.trace = rec.get();
  StreamStats stats;
  double secs = 0;
  {
    StreamScheduler<Strategy> sched(&shadow, &strategy, options);
    WallTimer timer;
    for (UpdateBatch& b : feed) {
      obs::TraceSpan span("bench/push", "bench", -1, b.node);
      env.ledger->Returned(sched.Push(std::move(b)), "sched Push");
    }
    env.ledger->Returned(sched.Finish(&stats), "sched Finish");
    secs = timer.Seconds();
  }
  env.ledger->Stats(stats, "sched");
  env.ledger->Op(stats.rows == in.rows && stats.batches == in.stream.size(),
                 "sched consumed every row");
  if (!env.trace) {
    env.samples->E2e("ingest_rows_per_s", in.rows / secs);
  } else if (traced) {
    TraceSummary tr = CloseTrace(env, rec.get(), "sched");
    if (!env.spec->mixed) RecordPipelineLayers(env, registry, tr);
  }
  Check(env, strategy.Current(), "sched output");
  return secs;
}

double RunSharded(const Env& env) {
  const Input& in = *env.in;
  const int root = in.ds.query.IndexOf(in.ds.fact);
  std::unique_ptr<obs::TraceRecorder> rec;
  if (env.trace) rec = MakeRecorder(4 * in.stream.size() + 1024);
  obs::ThreadTraceScope scope(rec.get(), "bench-producer");
  FeatureMap fm(in.ds.query, in.ds.features);
  ShardedStreamOptions options;
  options.stream.trace = rec.get();
  StreamStats total;
  std::vector<double> merge_ms;
  double broadcast_rows = 0, root_skew = 0;
  double secs = 0;
  {
    ShardedStreamScheduler<Strategy> fleet(
        in.ds.query, root, &fm,
        ShardMap::ForQuery(in.ds.query, root, env.shards), env.shard_policy,
        options);
    WallTimer timer;
    for (const UpdateBatch& b : in.stream) {
      obs::TraceSpan span("bench/shard-push", "bench", -1, b.node);
      env.ledger->Returned(fleet.Push(b), "sharded Push");
    }
    env.ledger->Returned(fleet.Finish(&total), "sharded Finish");
    obs::TraceSpan merge_span("bench/merge", "bench");
    const CovarMatrix merged = fleet.MergedCurrent();
    merge_span.End();
    secs = timer.Seconds();
    Check(env, merged, "sharded output");
    for (int r = 0; r < kMergeReps; ++r) {
      obs::TraceSpan span("bench/merge", "bench");
      WallTimer t;
      (void)fleet.MergedCurrent();
      merge_ms.push_back(t.Millis());
    }
    // Rows the fleet ingested beyond the input: non-root batches are
    // broadcast to every shard.
    double delivered = 0, max_root = 0, sum_root = 0;
    for (int s = 0; s < fleet.num_shards(); ++s) {
      delivered +=
          CounterValue(fleet.shard_metrics(s), "relborg_stream_rows_total");
      const double r =
          static_cast<double>(fleet.shadow(s).committed_rows(root));
      max_root = std::max(max_root, r);
      sum_root += r;
    }
    broadcast_rows = delivered - static_cast<double>(in.rows);
    root_skew = sum_root > 0 ? max_root / (sum_root / fleet.num_shards()) : NAN;
  }
  env.ledger->Stats(total, "sharded");
  if (!env.trace) {
    env.samples->E2e("sharded_rows_per_s", in.rows / secs);
    return secs;
  }
  Samples& s = *env.samples;
  s.Layer("shard.merge_ms", Median(merge_ms));
  s.Layer("shard.broadcast_rows", broadcast_rows);
  s.Layer("shard.root_skew", root_skew);
  TraceSummary tr = CloseTrace(env, rec.get(), "sharded");
  if (tr.valid) s.Layer("shard.push_s", tr.Total({"bench/shard-push"}));
  return secs;
}

// One reader's record: latency samples plus the snapshots it saw first.
struct ReaderLog {
  std::vector<double> read_us;
  std::vector<std::pair<Clock::time_point, size_t>> fresh;  // (t, rows seen)
  size_t reads = 0;
  size_t iterations = 0;
};

void RunServe(const Env& env) {
  const Input& in = *env.in;
  std::vector<UpdateBatch> feed = in.stream;
  std::unique_ptr<obs::TraceRecorder> rec;
  if (env.trace) rec = MakeRecorder(kTraceRingSlots);
  const double planned_s = in.rows / env.spec->serve_rows_per_s;
  obs::ThreadTraceScope scope(rec.get(), "bench-producer");
  ShadowDb shadow(in.ds.query, in.ds.query.IndexOf(in.ds.fact));
  FeatureMap fm(shadow.query(), in.ds.features);
  Strategy strategy(&shadow, &fm, env.policy);
  const int response = fm.num_features() - 1;
  const int root = shadow.tree().root();
  const std::vector<int>& children = shadow.tree().node(root).children;
  const int gb_node = children.empty() ? root : children[0];
  obs::MetricsRegistry registry;
  StreamOptions options;
  options.metrics = &registry;
  options.trace = rec.get();
  StreamStats stats;
  std::vector<ReaderLog> logs(kReaders);
  std::vector<Clock::time_point> due(feed.size());
  Clock::time_point start;
  double serve_secs = 0;
  {
    StreamScheduler<Strategy> sched(&shadow, &strategy, options);
    SnapshotServer<Strategy> server(&sched, &shadow, &strategy);
    std::atomic<bool> done{false};
    std::atomic<size_t> seen_rows{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        obs::ThreadTraceScope reader_scope(rec.get(), "bench-reader");
        ReaderLog& log = logs[r];
        uint64_t last_horizon = 0;
        // Records the first sight of each new snapshot horizon.
        auto observe = [&](const SnapshotServer<Strategy>::ReadTxn& txn) {
          const Clock::time_point now = Clock::now();
          if (txn.horizon_epochs() <= last_horizon) return;
          last_horizon = txn.horizon_epochs();
          size_t rows = 0;
          for (size_t w : txn.watermark()) rows += w;
          log.fresh.push_back({now, rows});
          size_t prev = seen_rows.load(std::memory_order_relaxed);
          while (prev < rows && !seen_rows.compare_exchange_weak(prev, rows)) {
          }
        };
        const Clock::time_point reader_start = Clock::now();
        while (!done.load(std::memory_order_acquire)) {
          if (rec != nullptr) {
            if (log.iterations >= kTracedReaderIters) {
              auto txn = server.BeginSnapshot();
              observe(txn);
              server.EndSnapshot(&txn);
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
              continue;
            }
            std::this_thread::sleep_until(
                reader_start +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        planned_s * log.iterations / kTracedReaderIters)));
          }
          const size_t it = ++log.iterations;
          auto txn = server.BeginSnapshot();
          observe(txn);
          std::optional<obs::TraceSpan> span;
          if (it % kReadSpanEvery == 0) span.emplace("bench/read", "bench");
          // Times every kReadSampleEvery-th read (Covar and GroupBy alike).
          auto read = [&](auto&& call) {
            if (++log.reads % kReadSampleEvery != 0) return call();
            WallTimer t;
            auto out = call();
            log.read_us.push_back(t.Seconds() * 1e6);
            return out;
          };
          CovarMatrix m = read([&] { return server.Covar(txn); });
          if (it % kGroupByEvery == 0) {
            (void)read([&] { return server.GroupBy(txn, gb_node); });
          }
          span.reset();
          if (it % kTrainEvery == 0 && m.count() > 100) {
            obs::TraceSpan train_span("bench/train", "bench");
            (void)server.TrainModel(txn, response);
          }
          server.EndSnapshot(&txn);
        }
      });
    }
    // Open loop: batch i is due when the rows before it have been offered
    // at the fixed rate, whatever the pipeline is doing.
    ProducerPriority priority;
    if (!priority.raised()) env.samples->priority_unraised = true;
    start = Clock::now();
    size_t offered = 0;
    for (size_t i = 0; i < feed.size(); ++i) {
      due[i] = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               offered / env.spec->serve_rows_per_s));
      offered += feed[i].rows.size();
      std::this_thread::sleep_until(due[i]);
      {
        obs::TraceSpan span("bench/push", "bench", -1, feed[i].node);
        env.ledger->Returned(sched.Push(std::move(feed[i])), "serve Push");
      }
    }
    env.ledger->Returned(sched.Finish(&stats), "serve Finish");
    // Readers keep going until one of them has seen the whole stream.
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
    while (seen_rows.load() < in.rows && Clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    env.ledger->Op(seen_rows.load() == in.rows, "readers saw the final epoch");
    done.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();
    serve_secs = SecondsSince(start, Clock::now());
    auto txn = server.BeginSnapshot();
    Check(env, server.Covar(txn), "serve snapshot read after Finish");
    server.EndSnapshot(&txn);
  }
  env.ledger->Stats(stats, "serve");
  env.ledger->Op(stats.rows == in.rows && stats.batches == in.stream.size(),
                 "serve consumed every row");
  Check(env, strategy.Current(), "serve output");

  Samples& s = *env.samples;
  if (!env.trace) {
    // Freshness: batch i is fresh at the first snapshot (by any reader)
    // whose watermark covers it; snapshots are stream prefixes, so covering
    // the rows of batches [0, i] covers batch i.
    std::vector<std::pair<Clock::time_point, size_t>> fresh;
    std::vector<double> freshness_ms, read_us;
    size_t reads = 0;
    for (ReaderLog& log : logs) {
      fresh.insert(fresh.end(), log.fresh.begin(), log.fresh.end());
      read_us.insert(read_us.end(), log.read_us.begin(), log.read_us.end());
      reads += log.reads;
    }
    std::sort(fresh.begin(), fresh.end());
    size_t next = 0;  // first batch not yet covered
    for (const auto& [t, rows] : fresh) {
      while (next < in.cum_rows.size() && in.cum_rows[next] <= rows) {
        freshness_ms.push_back(SecondsSince(due[next], t) * 1e3);
        ++next;
      }
    }
    // Percentiles per pass; the run reports their medians over passes, so
    // one pass the host slowed does not set the run's tail.
    s.E2e("freshness_p50_ms", Percentile(&freshness_ms, 0.50));
    s.E2e("freshness_p99_ms", Percentile(&freshness_ms, 0.99));
    // Read latency has two modes (~0.2 and ~0.4 us on a 4-CPU Xeon host)
    // in shares that differ from pass to pass, and its median sits between
    // them, so it jumps from one mode to the other between passes; the
    // mean moves only by the share.
    double read_sum = 0;
    for (double us : read_us) read_sum += us;
    if (!read_us.empty()) s.E2e("read_mean_us", read_sum / read_us.size());
    s.E2e("read_p99_us", Percentile(&read_us, 0.99));
    s.E2e("reads_per_s", reads / serve_secs);
    return;
  }
  s.Layer("serve.read_mean_us",
          HistMean(registry, "relborg_serve_read_latency_seconds") * 1e6);
  s.Layer("serve.snapshots_published",
          CounterValue(registry, "relborg_serve_snapshots_published_total"));
  TraceSummary tr = CloseTrace(env, rec.get(), "serve");
  if (env.spec->mixed) RecordPipelineLayers(env, registry, tr);
  if (!tr.valid) return;
  s.Layer("serve.covar_self_s", tr.Self({"serve/covar"}));
  s.Layer("serve.groupby_self_s", tr.Self({"serve/group-by"}));
  s.Layer("ml.train_s", tr.Total({"bench/train"}));
}

// ---------------------------------------------------------------------------
// Running a workload
// ---------------------------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

// Runs `pass` (returning the seconds it measured) until kMinPathSeconds
// have been measured, so short streams still give throughput samples that
// startup and scheduling noise do not swamp. Returns the rows/s of all
// passes together.
template <typename Pass>
double Repeat(const Input& in, Pass pass) {
  double secs = 0;
  size_t passes = 0;
  do {
    secs += pass();
    ++passes;
  } while (secs < kMinPathSeconds);
  return static_cast<double>(passes * in.rows) / secs;
}

int RunWorkload(const Args& args) {
  const WorkloadSpec& spec = *args.workload;
  Ledger ledger;
  Samples samples;

  // data: generation plus stream build, kSetupReps identical builds; the
  // last one is kept.
  std::unique_ptr<Input> in;
  for (int r = 0; r < kSetupReps; ++r) {
    in.reset();
    ThreadCpuTimer t;
    in = std::make_unique<Input>(MakeInput(spec, args.seed));
    samples.E2e("setup_s", t.Seconds());
  }

  const int cpus = HostCpus();
  Env env;
  env.spec = &spec;
  env.in = in.get();
  env.ref = nullptr;
  env.policy.threads = kThreads;
  env.policy.partition_grain = 128;
  env.shard_policy.threads = kThreads;
  env.shard_policy.partition_grain = 128;
  env.shards = std::min(kMaxShards, cpus);
  env.ledger = &ledger;
  env.samples = &samples;
  env.trace = false;
  env.export_trace = false;
  env.out_dir = args.out_dir;

  // Reference pass (untimed; also grows the heap before any timed path).
  const CovarMatrix ref = RunLoop(env);
  env.ref = &ref;
  env.trace = args.trace;
  std::fprintf(stderr, "borgbench: reference join count %.17g\n", ref.count());

  enum PathId { kLoop, kSched, kSharded, kServe, kNumPaths };
  const char* kPathNames[] = {"loop", "sched", "sharded", "serve"};

  HostProbe probe;
  std::vector<double> probes;  // seconds, one per pass slot
  WallTimer measured;
  int rounds = 0;
  std::string order_log;
  // Rounds continue while another one of average length still ends within
  // --seconds (always at least one), so runs do not overshoot by a round.
  while (rounds == 0 ||
         measured.Seconds() * (rounds + 1) / rounds <= args.seconds) {
    env.export_trace = args.trace && rounds == 0;
    for (int k = 0; k < kNumPaths; ++k) {
      const int p = (rounds + k) % kNumPaths;
      if (!args.trace) probes.push_back(probe.Run());
      WallTimer pass_timer;
      order_log += kPathNames[p];
      order_log += k + 1 < kNumPaths ? "," : ";";
      // Traced loop and sharded passes run once per round; their layer
      // numbers are per pass.
      const auto once_or_repeat = [&](auto pass) {
        if (args.trace) {
          pass();
        } else {
          Repeat(*in, pass);
        }
      };
      switch (p) {
        case kLoop:
          once_or_repeat([&] {
            double secs = 0;
            RunLoop(env, &secs);
            return secs;
          });
          break;
        case kSched:
          if (!args.trace) {
            Repeat(*in, [&] { return RunSched(env, false); });
          } else {
            // The overhead pair: both sides back to back, the side that
            // goes first alternating by round.
            double rps[2] = {0, 0};  // untraced, traced
            for (int side = 0; side < 2; ++side) {
              const bool traced = (rounds + side) % 2 == 1;
              rps[traced] = Repeat(*in, [&] { return RunSched(env, traced); });
            }
            samples.Layer("obs.trace_overhead_ratio", rps[1] / rps[0]);
          }
          break;
        case kSharded:
          once_or_repeat([&] { return RunSharded(env); });
          break;
        case kServe:
          RunServe(env);
          break;
      }
      std::fprintf(stderr, "borgbench: round %d %s %.3f s\n", rounds,
                   kPathNames[p], pass_timer.Seconds());
    }
    ++rounds;
  }

  if (!args.trace) {
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    samples.E2e("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  } else {
    samples.Layer("obs.spans_dropped",
                  static_cast<double>(samples.spans_dropped));
  }
  // Host-bound timings are scaled to the reference host: a time by
  // kProbeReferenceSeconds / probe, a rate by its inverse, with probe the
  // median over the run's probes. Freshness stays as measured: it is mostly
  // the wait for an epoch to fill at the fixed offered rate, which the
  // host's speed does not change, and scaling it adds the probe's noise.
  enum HostScaling { kAsMeasured, kTime, kRate };
  struct EndToEnd {
    const char* name;
    const char* unit;
    HostScaling scaling;
  };
  static const EndToEnd kEndToEnd[] = {
      {"setup_s", "s", kTime},
      {"ingest_rows_per_s", "rows/s", kRate},
      {"loop_rows_per_s", "rows/s", kRate},
      {"sharded_rows_per_s", "rows/s", kRate},
      {"freshness_p50_ms", "ms", kAsMeasured},
      {"freshness_p99_ms", "ms", kAsMeasured},
      {"read_mean_us", "us", kTime},
      {"read_p99_us", "us", kTime},
      {"reads_per_s", "1/s", kRate},
      {"peak_rss_mb", "MB", kAsMeasured},
  };
  static const std::pair<const char*, const char*> kLayer[] = {
      {"stream.assemble_busy_s", "s"},
      {"stream.commit_busy_s", "s"},
      {"stream.apply_busy_s", "s"},
      {"stream.compute_busy_s", "s"},
      {"stream.speculation_hit_ratio", "ratio"},
      {"stream.push_s", "s"},
      {"stream.ingress_high_water_rows", "rows"},
      {"stream.rows_per_range", "rows"},
      {"stream.gate_wait_s", "s"},
      {"stream.epoch_latency_mean_ms", "ms"},
      {"stream.epoch_latency_max_ms", "ms"},
      {"ivm.commit_chunk_s", "s"},
      {"ivm.delta_s", "s"},
      {"ivm.propagate_s", "s"},
      {"ivm.append_ns_per_row", "ns"},
      {"ivm.maintain_ns_per_row", "ns"},
      {"serve.read_mean_us", "us"},
      {"serve.covar_self_s", "s"},
      {"serve.groupby_self_s", "s"},
      {"serve.snapshots_published", "count"},
      {"ml.train_s", "s"},
      {"shard.push_s", "s"},
      {"shard.merge_ms", "ms"},
      {"shard.broadcast_rows", "rows"},
      {"shard.root_skew", "ratio"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"obs.spans_dropped", "count"},
  };
  const double probe_s = Median(probes);
  std::vector<Metric> metrics;
  // Median over the run's passes, scaled; stderr shows the passes' range.
  auto collect = [&](const char* name, const char* unit,
                     const std::map<std::string, std::vector<double>>& got,
                     double scale) {
    auto it = got.find(name);
    if (it == got.end()) {
      std::fprintf(stderr, "borgbench: %s withheld (no samples%s)\n", name,
                   samples.spans_withheld ? "; spans dropped" : "");
      return;
    }
    const std::vector<double>& v = it->second;
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    std::fprintf(stderr,
                 "borgbench: %-30s passes=%zu min=%.6g median=%.6g max=%.6g "
                 "(as measured) x %.4f\n",
                 name, v.size(), *lo, Median(v), *hi, scale);
    metrics.push_back({name, unit, Median(v) * scale});
  };
  if (args.trace) {
    for (const auto& [name, unit] : kLayer) {
      collect(name, unit, samples.layer, 1.0);
    }
  } else {
    for (const EndToEnd& m : kEndToEnd) {
      const double scale = m.scaling == kTime   ? kProbeReferenceSeconds / probe_s
                           : m.scaling == kRate ? probe_s / kProbeReferenceSeconds
                                                : 1.0;
      collect(m.name, m.unit, samples.e2e, scale);
    }
  }

  const bool correct = ledger.failed == 0;
  if (samples.priority_unraised) {
    std::fprintf(stderr,
                 "borgbench: WARNING: the serve producer's priority could "
                 "not be raised (nice -10 needs CAP_SYS_NICE); "
                 "freshness is not comparable with runs where it was\n");
  }
  std::printf("# borgbench workload=%s seed=%" PRIu64
              " trace=%d rows=%zu batches=%zu rounds=%d threads=%d "
              "shards=%d producer_priority=%s probe_s=%.6g order=%s\n",
              spec.name, args.seed, args.trace ? 1 : 0, in->rows,
              in->stream.size(), rounds, env.policy.threads, env.shards,
              samples.priority_unraised ? "unraised" : "raised", probe_s,
              order_log.c_str());
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed);
  json += ", \"metrics\": {";
  char buf[256];
  bool first = true;
  for (const Metric& m : metrics) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, m.value, m.unit);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  if (!args.out_dir.empty()) {
    std::ofstream f(args.out_dir + "/" + spec.name + "-trace" +
                    (args.trace ? "1" : "0") + ".result.json");
    f << json << "\n";
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace relborg

int main(int argc, char** argv) {
  return relborg::RunWorkload(relborg::ParseArgs(argc, argv));
}
