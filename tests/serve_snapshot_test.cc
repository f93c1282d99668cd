// Differential suite for the serve layer (src/serve/snapshot_server.h):
// every read a client thread takes from a LIVE pipeline must be byte-exact
// against a paused-pipeline oracle at the same stream prefix — the
// per-batch AppendRows + ApplyBatch loop, its state captured after every
// batch (epochs seal at timing-dependent points, but always between
// batches).
// Covers all three strategies (zero-copy pinned serving for CovarFivm,
// boundary copies for HigherOrderIvm / FirstOrderIvm) across ExecPolicy
// thread counts {1, 2, 4}, plus the staleness knob, long-held snapshots
// surviving merge traffic, and model serving. Runs under TSan in CI (the
// reader threads hammer BeginSnapshot/Covar/GroupBy against the pipeline's
// committer, compute and applier threads).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "ivm/ivm.h"
#include "ivm/update_stream.h"
#include "ml/linear_regression.h"
#include "serve/snapshot_server.h"
#include "stream/stream_scheduler.h"
#include "tests/test_util.h"

namespace relborg {
namespace {

using testing::MakeRandomDb;
using testing::RandomDb;
using testing::Topology;

using GroupByResult = std::vector<std::pair<uint64_t, double>>;

ExecPolicy MakePolicy(int threads) {
  ExecPolicy policy;
  policy.threads = threads;
  policy.partition_grain = 16;
  return policy;
}

StreamOptions CoalescingOptions() {
  StreamOptions options;
  options.epoch_rows = 96;
  options.epoch_batches = 5;
  return options;
}

std::vector<UpdateBatch> MakeMixed(const RandomDb& db, uint64_t seed) {
  MixedStreamOptions opts;
  opts.insert.batch_size = 17;
  opts.insert.seed = seed;
  opts.delete_probability = 0.35;
  return BuildMixedStream(db.query, opts);
}

// A node whose view has multiple keys: the root's first child if any
// (leaf views are keyed by the parent edge), else the root itself.
int GroupByNode(const ShadowDb& shadow) {
  const int root = shadow.tree().root();
  const std::vector<int>& children = shadow.tree().node(root).children;
  return children.empty() ? root : children[0];
}

// What a paused pipeline would serve at each stream prefix, keyed by the
// prefix's per-node row watermark (a snapshot's watermark names its
// prefix exactly). The empty watermark is the empty database.
using Watermark = std::vector<size_t>;
struct Oracle {
  std::map<Watermark, CovarPayload> covar;
  std::map<Watermark, GroupByResult> groups;  // pinned strategies only
  Watermark final_watermark;
};

// Builds the oracle by running the per-batch loop and capturing state
// after every batch — through the SAME read entry points the server uses
// (PinServe/CovarAt/GroupByAt for CovarFivm, Current() for the copy-based
// strategies).
template <typename Strategy>
Oracle BuildOracle(const RandomDb& db, const std::vector<UpdateBatch>& stream) {
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  Strategy strategy(&shadow, &fm, MakePolicy(1));
  const int gb_node = GroupByNode(shadow);
  Oracle oracle;
  Watermark wm(shadow.tree().num_nodes(), 0);
  auto record = [&] {
    if constexpr (serve_internal::HasServePin<Strategy>::value) {
      typename Strategy::ServePin pin = strategy.PinServe();
      oracle.covar[wm] = strategy.CovarAt(pin).payload();
      oracle.groups[wm] = strategy.GroupByAt(gb_node, pin);
      strategy.UnpinServe();
    } else {
      oracle.covar[wm] = strategy.Current().payload();
    }
    oracle.final_watermark = wm;
  };
  record();
  for (const UpdateBatch& batch : stream) {
    if (batch.rows.empty()) continue;
    const size_t first = shadow.AppendRows(batch.node, batch.rows, batch.sign);
    strategy.ApplyBatch(batch.node, first, batch.rows.size());
    wm[batch.node] += batch.rows.size();
    record();
  }
  return oracle;
}

void ExpectPayloadExact(const CovarPayload& got, const CovarPayload& want,
                        uint64_t horizon) {
  EXPECT_EQ(got.count, want.count) << "horizon " << horizon;
  ASSERT_EQ(got.sum.size(), want.sum.size());
  ASSERT_EQ(got.quad.size(), want.quad.size());
  for (size_t i = 0; i < want.sum.size(); ++i) {
    EXPECT_EQ(got.sum[i], want.sum[i]) << "sum[" << i << "] @" << horizon;
  }
  for (size_t i = 0; i < want.quad.size(); ++i) {
    EXPECT_EQ(got.quad[i], want.quad[i]) << "quad[" << i << "] @" << horizon;
  }
}

// One observation a reader thread took from the live server. Verified
// against the oracle on the main thread after everything joins (gtest
// assertions stay single-threaded).
struct Observation {
  uint64_t horizon = 0;
  std::vector<size_t> watermark;
  CovarPayload covar;
  GroupByResult groups;
  bool has_groups = false;
};

// Runs the live pipeline with `kReaders` concurrent snapshot clients and
// checks every observation byte-exact against the oracle.
template <typename Strategy>
void RunLiveAndCheck(const RandomDb& db, const std::vector<UpdateBatch>& stream,
                     const StreamOptions& options, int threads,
                     const ServeOptions& serve, const Oracle& oracle) {
  constexpr bool kPinned = serve_internal::HasServePin<Strategy>::value;
  constexpr int kReaders = 3;
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  Strategy strategy(&shadow, &fm, MakePolicy(threads));
  const int gb_node = GroupByNode(shadow);
  std::vector<std::vector<Observation>> observed(kReaders);
  {
    StreamScheduler<Strategy> scheduler(&shadow, &strategy, options);
    SnapshotServer<Strategy> server(&scheduler, &shadow, &strategy, serve);
    std::atomic<bool> done{false};
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        while (true) {
          // Read the flag BEFORE the snapshot: when it is already set the
          // pipeline has finished, so this final iteration observes the
          // last published horizon.
          const bool last = done.load(std::memory_order_acquire);
          auto txn = server.BeginSnapshot();
          Observation o;
          o.horizon = txn.horizon_epochs();
          o.watermark = txn.watermark();
          o.covar = server.Covar(txn).payload();
          if constexpr (kPinned) {
            o.groups = server.GroupBy(txn, gb_node);
            o.has_groups = true;
          }
          server.EndSnapshot(&txn);
          observed[t].push_back(std::move(o));
          if (last) break;
        }
      });
    }
    for (const UpdateBatch& batch : stream) scheduler.Push(batch);
    scheduler.Finish();
    done.store(true, std::memory_order_release);
    for (std::thread& r : readers) r.join();
  }
  for (const std::vector<Observation>& per_thread : observed) {
    ASSERT_FALSE(per_thread.empty());
    uint64_t last_horizon = 0;
    for (const Observation& o : per_thread) {
      EXPECT_GE(o.horizon, last_horizon) << "horizons went backwards";
      last_horizon = o.horizon;
      auto covar_it = oracle.covar.find(o.watermark);
      ASSERT_NE(covar_it, oracle.covar.end())
          << "horizon " << o.horizon << " has a watermark no batch prefix has";
      ExpectPayloadExact(o.covar, covar_it->second, o.horizon);
      if (o.has_groups) {
        EXPECT_EQ(o.groups, oracle.groups.at(o.watermark))
            << "horizon " << o.horizon;
      }
    }
    if (serve.snapshot_every_epochs <= 1) {
      // The post-Finish iteration of every reader sees the whole stream.
      EXPECT_EQ(per_thread.back().watermark, oracle.final_watermark);
    }
  }
}

class ServeSnapshotProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, Topology>> {};

// The core differential property: live concurrent snapshot reads are
// byte-exact against the paused-pipeline oracle at their stream prefix,
// for all three strategies across ExecPolicy thread counts.
TEST_P(ServeSnapshotProperty, LiveReadsMatchPausedPipelineOracle) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/40);
  std::vector<UpdateBatch> stream = MakeMixed(db, seed + 17);
  ASSERT_FALSE(stream.empty());
  const StreamOptions options = CoalescingOptions();
  const ServeOptions serve;
  const Oracle fivm = BuildOracle<CovarFivm>(db, stream);
  const Oracle higher = BuildOracle<HigherOrderIvm>(db, stream);
  const Oracle first = BuildOracle<FirstOrderIvm>(db, stream);
  ASSERT_GT(fivm.covar.size(), 2u) << "stream too short to exercise serving";
  for (int threads : {1, 2, 4}) {
    RunLiveAndCheck<CovarFivm>(db, stream, options, threads, serve, fivm);
    RunLiveAndCheck<HigherOrderIvm>(db, stream, options, threads, serve,
                                    higher);
    RunLiveAndCheck<FirstOrderIvm>(db, stream, options, threads, serve,
                                   first);
  }
}

// The staleness knob: with snapshot_every_epochs = K the server only ever
// publishes horizons that are multiples of K (plus the initial 0), and
// every read is still byte-exact at its (staler) stream prefix.
TEST_P(ServeSnapshotProperty, StalenessKnobBoundsPublishedHorizons) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/40);
  std::vector<UpdateBatch> stream = MakeMixed(db, seed + 31);
  const StreamOptions options = CoalescingOptions();
  ServeOptions serve;
  serve.snapshot_every_epochs = 3;
  const Oracle oracle = BuildOracle<CovarFivm>(db, stream);
  // Reuse the differential harness; it asserts every observed prefix
  // exists in the oracle and matches byte-exact.
  RunLiveAndCheck<CovarFivm>(db, stream, options, /*threads=*/2, serve,
                             oracle);
  // And separately pin down the knob's horizon arithmetic.
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  CovarFivm strategy(&shadow, &fm, MakePolicy(2));
  StreamScheduler<CovarFivm> scheduler(&shadow, &strategy, options);
  SnapshotServer<CovarFivm> server(&scheduler, &shadow, &strategy, serve);
  for (const UpdateBatch& batch : stream) scheduler.Push(batch);
  StreamStats stats;
  scheduler.Finish(&stats);
  auto txn = server.BeginSnapshot();
  EXPECT_EQ(txn.horizon_epochs() % 3, 0u);
  EXPECT_LE(stats.epochs - txn.horizon_epochs(), 2u);
  server.EndSnapshot(&txn);
  EXPECT_EQ(server.published_snapshots(), 1 + stats.epochs / 3);
}

// A transaction held open across many epochs of merge traffic still reads
// its original horizon byte-exact (the pin table's COW protection), and
// overlapping transactions may close in any order.
TEST_P(ServeSnapshotProperty, LongHeldSnapshotsSurviveMergeTraffic) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/40);
  std::vector<UpdateBatch> stream = MakeMixed(db, seed + 47);
  const StreamOptions options = CoalescingOptions();
  const Oracle oracle = BuildOracle<CovarFivm>(db, stream);
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  CovarFivm strategy(&shadow, &fm, MakePolicy(2));
  StreamScheduler<CovarFivm> scheduler(&shadow, &strategy, options);
  SnapshotServer<CovarFivm> server(&scheduler, &shadow, &strategy);
  const int gb_node = GroupByNode(shadow);
  // Open transactions at staggered points of the ingest; keep all of them
  // open until after Finish.
  std::vector<SnapshotServer<CovarFivm>::ReadTxn> txns;
  const size_t step = std::max<size_t>(1, stream.size() / 4);
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i % step == 0) txns.push_back(server.BeginSnapshot());
    scheduler.Push(stream[i]);
  }
  scheduler.Finish();
  txns.push_back(server.BeginSnapshot());  // the final horizon
  // Read and close in an order different from open order (newest first):
  // unpin order independence at the server level.
  for (size_t i = txns.size(); i-- > 0;) {
    const uint64_t h = txns[i].horizon_epochs();
    const Watermark& wm = txns[i].watermark();
    ASSERT_EQ(oracle.covar.count(wm), 1u) << "horizon " << h;
    ExpectPayloadExact(server.Covar(txns[i]).payload(), oracle.covar.at(wm),
                       h);
    EXPECT_EQ(server.GroupBy(txns[i], gb_node), oracle.groups.at(wm));
    server.EndSnapshot(&txns[i]);
  }
  EXPECT_EQ(txns.front().open(), false);
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, ServeSnapshotProperty,
    ::testing::Combine(
        ::testing::ValuesIn(relborg::testing::kPropertySeedsSmall),
        ::testing::Values(Topology::kStar, Topology::kChain,
                          Topology::kBushy)));

// Model serving: the first TrainModel call per response is a cold-start
// train on the snapshot's covariance batch, so it must equal a direct
// TrainRidgeGd on the oracle's payload at the same horizon bit-for-bit.
// The second call warm-starts from the cached weights and must converge at
// least as fast to the same optimum.
TEST(ServeModelTest, ServedModelMatchesDirectTraining) {
  RandomDb db = MakeRandomDb(7, Topology::kBushy, /*fact_rows=*/50);
  // Insert-only: deletes could leave the final join too sparse to train.
  UpdateStreamOptions stream_opts;
  stream_opts.batch_size = 17;
  stream_opts.seed = 24;
  std::vector<UpdateBatch> stream = BuildInsertStream(db.query, stream_opts);
  const StreamOptions options = CoalescingOptions();
  const Oracle oracle = BuildOracle<CovarFivm>(db, stream);
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  CovarFivm strategy(&shadow, &fm, MakePolicy(2));
  StreamScheduler<CovarFivm> scheduler(&shadow, &strategy, options);
  SnapshotServer<CovarFivm> server(&scheduler, &shadow, &strategy);
  for (const UpdateBatch& batch : stream) scheduler.Push(batch);
  scheduler.Finish();
  auto txn = server.BeginSnapshot();
  const Watermark& h = txn.watermark();
  ASSERT_EQ(h, oracle.final_watermark);
  ASSERT_GT(oracle.covar.at(h).count, 0) << "empty join; pick another seed";
  TrainInfo cold_info;
  LinearModel served = server.TrainModel(txn, /*response=*/0, {}, &cold_info);
  CovarMatrix direct_m(fm.num_features(), oracle.covar.at(h));
  LinearModel direct = TrainRidgeGd(direct_m, /*response=*/0);
  ASSERT_EQ(served.weights.size(), direct.weights.size());
  for (size_t i = 0; i < direct.weights.size(); ++i) {
    EXPECT_EQ(served.weights[i], direct.weights[i]) << i;
  }
  EXPECT_EQ(served.bias, direct.bias);
  TrainInfo warm_info;
  LinearModel warm = server.TrainModel(txn, /*response=*/0, {}, &warm_info);
  EXPECT_LE(warm_info.iterations, cold_info.iterations);
  for (size_t i = 0; i < direct.weights.size(); ++i) {
    EXPECT_NEAR(warm.weights[i], direct.weights[i], 1e-6) << i;
  }
  server.EndSnapshot(&txn);
}

// Freshness: one batch far below the epoch bounds becomes readable while
// the pipeline is still open. Nothing queues behind it and the maintainer
// is idle, so its epoch seals at once instead of waiting for more batches
// or for Finish.
TEST(ServeFreshnessTest, LoneBatchBelowTheBoundsIsReadableBeforeFinish) {
  RandomDb db = MakeRandomDb(3, Topology::kStar, /*fact_rows=*/40);
  UpdateStreamOptions stream_opts;
  stream_opts.batch_size = 17;
  stream_opts.seed = 5;
  std::vector<UpdateBatch> stream = BuildInsertStream(db.query, stream_opts);
  ASSERT_FALSE(stream.empty());
  stream.resize(1);
  const StreamOptions options;  // 8192 rows / 64 batches: far above 17 rows
  ASSERT_LT(stream[0].rows.size(), options.epoch_rows);
  const Oracle oracle = BuildOracle<CovarFivm>(db, stream);
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  CovarFivm strategy(&shadow, &fm, MakePolicy(1));
  StreamScheduler<CovarFivm> scheduler(&shadow, &strategy, options);
  SnapshotServer<CovarFivm> server(&scheduler, &shadow, &strategy);
  ASSERT_TRUE(scheduler.Push(stream[0]).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool fresh = false;
  while (!fresh && std::chrono::steady_clock::now() < deadline) {
    auto txn = server.BeginSnapshot();
    if (txn.watermark() == oracle.final_watermark) {
      ExpectPayloadExact(server.Covar(txn).payload(),
                         oracle.covar.at(oracle.final_watermark),
                         txn.horizon_epochs());
      fresh = true;
    }
    server.EndSnapshot(&txn);
    if (!fresh) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_TRUE(fresh) << "the batch was not readable within 10 s";
  StreamStats stats;
  ASSERT_TRUE(scheduler.Finish(&stats).ok());
  EXPECT_EQ(stats.idle_seals, 1u);
}

// A batch that arrives while the maintainer is busy cannot be sealed on
// arrival; the maintainer's catch-up must seal it, with no later Push, bound
// or Finish. The test holds epoch 0's fold with a view read lock, pushes
// batch 1 behind it, releases the lock and then only polls. Epoch 0 is a
// leaf relation's batch: its delta is never empty, so it must fold (an
// empty delta, e.g. fact rows with no dimension rows yet, folds nothing).
TEST(ServeFreshnessTest, BatchQueuedBehindABusyMaintainerIsSealedOnCatchUp) {
  RandomDb db = MakeRandomDb(3, Topology::kStar, /*fact_rows=*/40);
  UpdateStreamOptions stream_opts;
  stream_opts.batch_size = 17;
  stream_opts.seed = 5;
  std::vector<UpdateBatch> stream = BuildInsertStream(db.query, stream_opts);
  ShadowDb shadow(db.query, 0);
  size_t leaf = 0;
  while (leaf < stream.size() &&
         !shadow.tree().node(stream[leaf].node).children.empty()) {
    ++leaf;
  }
  ASSERT_LT(leaf + 1, stream.size());
  stream = {stream[leaf], stream[leaf + 1]};
  const StreamOptions options;
  const Oracle oracle = BuildOracle<CovarFivm>(db, stream);
  FeatureMap fm(shadow.query(), db.features);
  CovarFivm strategy(&shadow, &fm, MakePolicy(1));
  StreamScheduler<CovarFivm> scheduler(&shadow, &strategy, options);
  SnapshotServer<CovarFivm> server(&scheduler, &shadow, &strategy);
  const std::vector<uint8_t> all_views(shadow.tree().num_nodes(), 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  auto wait_for = [&](auto done) {
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return done();
  };

  scheduler.BeginViewRead(all_views);  // epoch 0's fold waits on this
  ASSERT_TRUE(scheduler.Push(stream[0]).ok());
  ASSERT_TRUE(wait_for([&] { return scheduler.DeriveStats().idle_seals == 1; }))
      << "batch 0 was not sealed on arrival";
  ASSERT_TRUE(scheduler.Push(stream[1]).ok());
  const bool assembled =
      wait_for([&] { return scheduler.DeriveStats().batches == 2; });
  // Epoch 0 is still unmaintained, so batch 1 must wait in the open epoch.
  const size_t seals_while_busy = scheduler.DeriveStats().idle_seals;
  scheduler.EndViewRead(all_views);
  ASSERT_TRUE(assembled) << "batch 1 never reached the assembler";
  EXPECT_EQ(seals_while_busy, 1u);

  bool fresh = false;
  ASSERT_TRUE(wait_for([&] {
    auto txn = server.BeginSnapshot();
    if (txn.watermark() == oracle.final_watermark) {
      ExpectPayloadExact(server.Covar(txn).payload(),
                         oracle.covar.at(oracle.final_watermark),
                         txn.horizon_epochs());
      fresh = true;
    }
    server.EndSnapshot(&txn);
    return fresh;
  })) << "batch 1 was not readable within 10 s of the maintainer catching up";
  StreamStats stats;
  ASSERT_TRUE(scheduler.Finish(&stats).ok());
  EXPECT_EQ(stats.epochs, 2u);
  EXPECT_EQ(stats.idle_seals, 2u);
}

}  // namespace
}  // namespace relborg
