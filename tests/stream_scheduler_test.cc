// Tests for the async stream scheduler (src/stream/): the pipelined path
// must be BIT-IDENTICAL to its serial replay AND to the classic
// append-then-ApplyBatch loop for any epoch bounds, any seal timing and
// any ExecPolicy thread count, across all three IVM strategies, for
// insert-only and mixed insert/delete streams. Staged ingestion
// (StageRows/CommitChunk) must reproduce AppendRows state exactly.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "ivm/ivm.h"
#include "ivm/update_stream.h"
#include "stream/stream_scheduler.h"
#include "tests/test_util.h"

namespace relborg {
namespace {

using testing::ExpectSealCountsBounded;
using testing::MakeRandomDb;
using testing::RandomDb;
using testing::Topology;

// Exact (bitwise) agreement: the scheduler's determinism contract.
void ExpectCovarExact(const CovarMatrix& got, const CovarMatrix& want) {
  ASSERT_EQ(got.num_features(), want.num_features());
  const int n = want.num_features();
  for (int i = 0; i <= n; ++i) {
    for (int j = i; j <= n; ++j) {
      EXPECT_EQ(got.Moment(i, j), want.Moment(i, j)) << "(" << i << "," << j
                                                     << ")";
    }
  }
}

void ExpectCovarNear(const CovarMatrix& got, const CovarMatrix& want,
                     double tol = 1e-6) {
  ASSERT_EQ(got.num_features(), want.num_features());
  const int n = want.num_features();
  for (int i = 0; i <= n; ++i) {
    for (int j = i; j <= n; ++j) {
      EXPECT_NEAR(got.Moment(i, j), want.Moment(i, j),
                  tol * (1 + std::abs(want.Moment(i, j))))
          << "(" << i << "," << j << ")";
    }
  }
}

ExecPolicy MakePolicy(int threads) {
  ExecPolicy policy;
  policy.threads = threads;
  // Small grain so the 17-row test batches still split into multiple
  // partitions and the partitioned delta path is actually exercised.
  policy.partition_grain = 16;
  return policy;
}

enum class Mode { kClassic, kReplay, kAsync };

// Runs `stream` through one strategy with the given mode and returns the
// maintained covariance batch.
template <typename Strategy>
CovarMatrix RunStream(const RandomDb& db,
                      const std::vector<UpdateBatch>& stream, Mode mode,
                      int threads, const StreamOptions& options,
                      StreamStats* stats = nullptr) {
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  Strategy strategy(&shadow, &fm, MakePolicy(threads));
  StreamStats local;
  switch (mode) {
    case Mode::kClassic:
      for (const UpdateBatch& batch : stream) {
        size_t first = shadow.AppendRows(batch.node, batch.rows, batch.sign);
        strategy.ApplyBatch(batch.node, first, batch.rows.size());
      }
      break;
    case Mode::kReplay:
      local = ReplayStream(&shadow, &strategy, stream, options);
      break;
    case Mode::kAsync:
      local = ApplyStream(&shadow, &strategy, stream, options);
      break;
  }
  if (stats != nullptr) *stats = local;
  return strategy.Current();
}

StreamOptions CoalescingOptions() {
  StreamOptions options;
  // Several batches per epoch at the tests' 17-row batches, so epochs
  // really hold multiple nodes and runs of same-node batches.
  options.epoch_rows = 96;
  options.epoch_batches = 5;
  return options;
}

class StreamSchedulerProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, Topology>> {
 protected:
  std::vector<UpdateBatch> MakeInsertStream(const RandomDb& db,
                                            uint64_t seed) const {
    UpdateStreamOptions opts;
    opts.batch_size = 17;
    opts.seed = seed;
    return BuildInsertStream(db.query, opts);
  }

  std::vector<UpdateBatch> MakeMixed(const RandomDb& db,
                                     uint64_t seed) const {
    MixedStreamOptions opts;
    opts.insert.batch_size = 17;
    opts.insert.seed = seed;
    opts.delete_probability = 0.35;
    return BuildMixedStream(db.query, opts);
  }

  template <typename Strategy>
  void CheckBitIdentical(const RandomDb& db,
                         const std::vector<UpdateBatch>& stream,
                         const StreamOptions& options = CoalescingOptions()) {
    CovarMatrix reference =
        RunStream<Strategy>(db, stream, Mode::kReplay, /*threads=*/1, options);
    ExpectCovarExact(reference, RunStream<Strategy>(db, stream, Mode::kClassic,
                                                    /*threads=*/1, options));
    for (int threads : {1, 2, 4}) {
      CovarMatrix async = RunStream<Strategy>(db, stream, Mode::kAsync,
                                              threads, options);
      ExpectCovarExact(async, reference);
    }
  }
};

TEST_P(StreamSchedulerProperty, AsyncBitIdenticalToSerialReplay) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/50);
  std::vector<UpdateBatch> stream = MakeInsertStream(db, seed);
  ASSERT_FALSE(stream.empty());
  CheckBitIdentical<CovarFivm>(db, stream);
  CheckBitIdentical<HigherOrderIvm>(db, stream);
  CheckBitIdentical<FirstOrderIvm>(db, stream);
}

TEST_P(StreamSchedulerProperty, AsyncBitIdenticalOnMixedStreams) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/40);
  std::vector<UpdateBatch> stream = MakeMixed(db, seed + 17);
  bool has_delete = false;
  for (const UpdateBatch& b : stream) has_delete |= b.sign < 0;
  ASSERT_TRUE(has_delete) << "mixed stream contains no delete batches";
  CheckBitIdentical<CovarFivm>(db, stream);
  CheckBitIdentical<HigherOrderIvm>(db, stream);
  CheckBitIdentical<FirstOrderIvm>(db, stream);
}

// The library's default bounds: scheduler, replay and per-batch loop agree
// bit for bit for every strategy.
TEST_P(StreamSchedulerProperty, DefaultBoundsMatchClassicLoop) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/40);
  std::vector<UpdateBatch> stream = MakeMixed(db, seed + 23);
  const StreamOptions defaults;
  CheckBitIdentical<CovarFivm>(db, stream, defaults);
  CheckBitIdentical<HigherOrderIvm>(db, stream, defaults);
  CheckBitIdentical<FirstOrderIvm>(db, stream, defaults);
}

// With single-batch epochs the scheduler performs exactly the classic
// append-then-ApplyBatch loop, one epoch per batch.
TEST_P(StreamSchedulerProperty, SingleBatchEpochsMatchClassicReplay) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/40);
  std::vector<UpdateBatch> stream = MakeMixed(db, seed + 5);
  StreamOptions options;
  options.epoch_batches = 1;
  CovarMatrix classic = RunStream<CovarFivm>(db, stream, Mode::kClassic,
                                             /*threads=*/1, options);
  for (int threads : {1, 2, 4}) {
    ExpectCovarExact(
        RunStream<CovarFivm>(db, stream, Mode::kAsync, threads, options),
        classic);
  }
  ExpectCovarExact(RunStream<HigherOrderIvm>(db, stream, Mode::kAsync,
                                             /*threads=*/2, options),
                   RunStream<HigherOrderIvm>(db, stream, Mode::kClassic,
                                             /*threads=*/1, options));
  ExpectCovarExact(RunStream<FirstOrderIvm>(db, stream, Mode::kAsync,
                                            /*threads=*/2, options),
                   RunStream<FirstOrderIvm>(db, stream, Mode::kClassic,
                                            /*threads=*/1, options));
}

// Multi-batch epochs still fold one delta per batch, so against the
// classic per-batch loop the result is exact; the three strategies sum in
// different orders and agree with each other to rounding.
TEST_P(StreamSchedulerProperty, CoalescedAgreesWithClassicToRounding) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/40);
  std::vector<UpdateBatch> stream = MakeMixed(db, seed + 29);
  const StreamOptions options = CoalescingOptions();
  CovarMatrix classic = RunStream<CovarFivm>(db, stream, Mode::kClassic,
                                             /*threads=*/1, options);
  CovarMatrix fivm =
      RunStream<CovarFivm>(db, stream, Mode::kAsync, /*threads=*/2, options);
  ExpectCovarExact(fivm, classic);
  ExpectCovarNear(RunStream<HigherOrderIvm>(db, stream, Mode::kAsync,
                                            /*threads=*/2, options),
                  fivm);
  ExpectCovarNear(RunStream<FirstOrderIvm>(db, stream, Mode::kAsync,
                                           /*threads=*/2, options),
                  fivm);
}

// Tiny queue bounds force the backpressure paths (Push blocking on the
// ingress queue, the assembler blocking on the epoch queue) without
// changing any result.
TEST_P(StreamSchedulerProperty, BackpressureDoesNotChangeResults) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/40);
  std::vector<UpdateBatch> stream = MakeInsertStream(db, seed + 3);
  StreamOptions options = CoalescingOptions();
  CovarMatrix reference =
      RunStream<CovarFivm>(db, stream, Mode::kReplay, /*threads=*/1, options);
  options.max_queued_rows = 1;  // every Push waits for the assembler
  options.max_queued_epochs = 1;
  StreamStats stats;
  CovarMatrix squeezed = RunStream<CovarFivm>(db, stream, Mode::kAsync,
                                              /*threads=*/2, options, &stats);
  ExpectCovarExact(squeezed, reference);
  EXPECT_EQ(stats.rows, StreamRowCount(stream));
}

// Batches and rows are a pure function of the stream; the async
// pipeline's seal points depend on timing but stay between the serial
// replay's bound-only epochs and one epoch per batch.
TEST_P(StreamSchedulerProperty, StructuralStatsAreDeterministic) {
  auto [seed, topology] = GetParam();
  RandomDb db = MakeRandomDb(seed, topology, /*fact_rows=*/40);
  std::vector<UpdateBatch> stream = MakeMixed(db, seed + 11);
  const StreamOptions options = CoalescingOptions();
  StreamStats replay;
  RunStream<CovarFivm>(db, stream, Mode::kReplay, /*threads=*/1, options,
                       &replay);
  for (int run = 0; run < 2; ++run) {
    StreamStats async;
    RunStream<CovarFivm>(db, stream, Mode::kAsync, /*threads=*/2, options,
                         &async);
    ExpectSealCountsBounded(async, replay);
  }
  EXPECT_EQ(replay.rows, StreamRowCount(stream));
  EXPECT_GT(replay.epochs, 1u);
  // A range is a run of one or more batches.
  EXPECT_LE(replay.ranges, replay.batches);
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, StreamSchedulerProperty,
    ::testing::Combine(::testing::ValuesIn(relborg::testing::kPropertySeeds),
                       ::testing::Values(Topology::kStar, Topology::kChain,
                                         Topology::kBushy)));

// Staged two-phase ingestion must reproduce AppendRows state exactly:
// relation contents, per-row signs, and the child-key indexes.
TEST(StagedIngestTest, StageCommitMatchesAppendRows) {
  RandomDb db = MakeRandomDb(7, Topology::kBushy, /*fact_rows=*/60);
  UpdateStreamOptions opts;
  opts.batch_size = 13;
  opts.seed = 7;
  std::vector<UpdateBatch> stream = BuildInsertStream(db.query, opts);

  ShadowDb direct(db.query, 0);
  ShadowDb staged(db.query, 0);
  std::vector<size_t> next_row(db.query.num_relations(), 0);
  double sign = 1.0;
  for (const UpdateBatch& batch : stream) {
    direct.AppendRows(batch.node, batch.rows, sign);
    IngestChunk chunk = staged.StageRows(
        batch.node, batch.rows,
        std::vector<double>(batch.rows.size(), sign), next_row[batch.node]);
    next_row[batch.node] += batch.rows.size();
    staged.CommitChunk(std::move(chunk));
    sign = -sign;  // exercise both multiplicities
  }

  for (int v = 0; v < db.query.num_relations(); ++v) {
    const Relation& a = direct.relation(v);
    const Relation& b = staged.relation(v);
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (size_t row = 0; row < a.num_rows(); ++row) {
      EXPECT_EQ(direct.sign(v, row), staged.sign(v, row));
      for (int attr = 0; attr < a.num_attrs(); ++attr) {
        EXPECT_EQ(a.AsDouble(row, attr), b.AsDouble(row, attr));
      }
    }
    for (int c : direct.tree().node(v).children) {
      for (size_t row = 0; row < a.num_rows(); ++row) {
        uint64_t key = direct.tree().RowKeyToChild(v, c, row);
        const std::vector<uint32_t>* ra = direct.RowsByChildKey(v, c, key);
        const std::vector<uint32_t>* rb = staged.RowsByChildKey(v, c, key);
        ASSERT_NE(ra, nullptr);
        ASSERT_NE(rb, nullptr);
        EXPECT_EQ(*ra, *rb) << "node " << v << " child " << c;
      }
    }
  }
}

// --- Two-phase staging / watermark-flip properties -----------------------

// VisiblePrefix is the reader-side watermark filter: ascending row-id
// vectors expose exactly their prefix below the limit.
TEST(StagedIngestTest, VisiblePrefixBoundaries) {
  const std::vector<uint32_t> empty;
  EXPECT_EQ(VisiblePrefix(empty, 0), 0u);
  EXPECT_EQ(VisiblePrefix(empty, 100), 0u);
  const std::vector<uint32_t> rows = {2, 5, 7, 11};
  EXPECT_EQ(VisiblePrefix(rows, 0), 0u);
  EXPECT_EQ(VisiblePrefix(rows, 2), 0u);   // limit is exclusive
  EXPECT_EQ(VisiblePrefix(rows, 3), 1u);
  EXPECT_EQ(VisiblePrefix(rows, 7), 2u);
  EXPECT_EQ(VisiblePrefix(rows, 8), 3u);
  EXPECT_EQ(VisiblePrefix(rows, 11), 3u);
  EXPECT_EQ(VisiblePrefix(rows, 12), 4u);
  EXPECT_EQ(VisiblePrefix(rows, SIZE_MAX), 4u);
  const std::vector<uint32_t> max_id = {UINT32_MAX};
  EXPECT_EQ(VisiblePrefix(max_id, UINT32_MAX), 0u);
  EXPECT_EQ(VisiblePrefix(max_id, SIZE_MAX), 1u);
}

// Phase 1 (StageRows) must be invisible: no watermark movement, no index
// entries, no relation rows. Phase 2 (CommitChunk) flips the watermark to
// cover exactly the chunk, and every index entry below the pre-commit
// watermark is untouched.
TEST(StagedIngestTest, StagedRowsInvisibleUntilWatermarkFlip) {
  RandomDb db = MakeRandomDb(11, Topology::kStar, /*fact_rows=*/30);
  UpdateStreamOptions opts;
  opts.batch_size = 10;
  opts.seed = 11;
  std::vector<UpdateBatch> stream = BuildInsertStream(db.query, opts);
  ASSERT_GE(stream.size(), 2u);

  ShadowDb shadow(db.query, 0);
  // Seed the db with the first batch through the classic path.
  const UpdateBatch& seeded = stream[0];
  shadow.AppendRows(seeded.node, seeded.rows);
  EXPECT_EQ(shadow.committed_rows(seeded.node), seeded.rows.size());

  // Find a later batch for the same node and stage it.
  const UpdateBatch* next = nullptr;
  for (size_t i = 1; i < stream.size(); ++i) {
    if (stream[i].node == seeded.node) {
      next = &stream[i];
      break;
    }
  }
  ASSERT_NE(next, nullptr);
  const int v = next->node;
  const size_t first = shadow.relation(v).num_rows();
  IngestChunk chunk = shadow.StageRows(
      v, next->rows, std::vector<double>(next->rows.size(), 1.0), first);

  // Staged but not committed: nothing moved.
  EXPECT_EQ(shadow.committed_rows(v), first);
  EXPECT_EQ(shadow.relation(v).num_rows(), first);
  const RootedNode& node = shadow.tree().node(v);
  for (size_t ci = 0; ci < node.children.size(); ++ci) {
    chunk.child_groups[ci].ForEach(
        [&](uint64_t key, const std::vector<uint32_t>& ids) {
          for (uint32_t id : ids) EXPECT_GE(id, first);
          const std::vector<uint32_t>* indexed =
              shadow.RowsByChildKey(v, node.children[ci], key);
          if (indexed != nullptr) {
            // Whatever the index already held for this key is fully below
            // the watermark — the staged ids are not in it yet.
            EXPECT_EQ(VisiblePrefix(*indexed, first), indexed->size());
          }
        });
  }

  // The flip: exactly the chunk becomes visible, in one step.
  IngestChunk committed = std::move(chunk);
  const size_t rows = committed.num_rows();
  shadow.CommitChunk(std::move(committed));
  EXPECT_EQ(shadow.committed_rows(v), first + rows);
  EXPECT_EQ(shadow.relation(v).num_rows(), first + rows);
  // Filtering at the OLD watermark still hides the new rows in every
  // per-key index vector — the invariant overlapped maintenance relies on.
  for (size_t ci = 0; ci < node.children.size(); ++ci) {
    for (size_t row = 0; row < shadow.relation(v).num_rows(); ++row) {
      uint64_t key = shadow.tree().RowKeyToChild(v, node.children[ci], row);
      const std::vector<uint32_t>* indexed =
          shadow.RowsByChildKey(v, node.children[ci], key);
      ASSERT_NE(indexed, nullptr);
      const size_t visible = VisiblePrefix(*indexed, first);
      for (size_t k = 0; k < indexed->size(); ++k) {
        EXPECT_EQ((*indexed)[k] < first, k < visible);
      }
    }
  }
}

// Absolute row ids are assigned at staging time, so ANY interleaving of
// StageRows calls (across nodes, ahead of commits) that commits in stream
// order lands in the exact same state as the serial AppendRows loop, with
// the watermark advancing chunk by chunk.
TEST(StagedIngestTest, RowIdsStableAcrossStagingInterleavings) {
  RandomDb db = MakeRandomDb(21, Topology::kBushy, /*fact_rows=*/40);
  UpdateStreamOptions opts;
  opts.batch_size = 9;
  opts.seed = 21;
  std::vector<UpdateBatch> stream = BuildInsertStream(db.query, opts);

  ShadowDb direct(db.query, 0);
  for (const UpdateBatch& batch : stream) {
    direct.AppendRows(batch.node, batch.rows);
  }

  // Three staging interleavings: stream order, reverse order, and
  // node-major (all of one node's chunks, then the next node's). Each
  // respects per-node offsets; commits always run in stream order.
  for (int variant = 0; variant < 3; ++variant) {
    SCOPED_TRACE(::testing::Message() << "staging interleaving " << variant);
    ShadowDb staged(db.query, 0);
    std::vector<size_t> next_row(db.query.num_relations(), 0);
    std::vector<size_t> stage_order(stream.size());
    for (size_t i = 0; i < stream.size(); ++i) stage_order[i] = i;
    if (variant == 1) {
      std::reverse(stage_order.begin(), stage_order.end());
    } else if (variant == 2) {
      std::stable_sort(stage_order.begin(), stage_order.end(),
                       [&](size_t a, size_t b) {
                         return stream[a].node < stream[b].node;
                       });
    }
    // Per-node offsets follow the STREAM order regardless of when a chunk
    // is staged, exactly like the assembler's next_row_ bookkeeping.
    std::vector<size_t> offset(stream.size());
    for (size_t i = 0; i < stream.size(); ++i) {
      offset[i] = next_row[stream[i].node];
      next_row[stream[i].node] += stream[i].rows.size();
    }
    std::vector<IngestChunk> chunks(stream.size());
    for (size_t pos : stage_order) {
      chunks[pos] = staged.StageRows(
          stream[pos].node, stream[pos].rows,
          std::vector<double>(stream[pos].rows.size(), 1.0), offset[pos]);
    }
    for (size_t i = 0; i < stream.size(); ++i) {
      const int v = chunks[i].node;
      const size_t expect_watermark = chunks[i].first + chunks[i].num_rows();
      staged.CommitChunk(std::move(chunks[i]));
      EXPECT_EQ(staged.committed_rows(v), expect_watermark);
    }
    for (int v = 0; v < db.query.num_relations(); ++v) {
      const Relation& a = direct.relation(v);
      const Relation& b = staged.relation(v);
      ASSERT_EQ(a.num_rows(), b.num_rows());
      EXPECT_EQ(staged.committed_rows(v), b.num_rows());
      for (size_t row = 0; row < a.num_rows(); ++row) {
        for (int attr = 0; attr < a.num_attrs(); ++attr) {
          EXPECT_EQ(a.AsDouble(row, attr), b.AsDouble(row, attr));
        }
      }
      for (int c : direct.tree().node(v).children) {
        for (size_t row = 0; row < a.num_rows(); ++row) {
          uint64_t key = direct.tree().RowKeyToChild(v, c, row);
          const std::vector<uint32_t>* ra = direct.RowsByChildKey(v, c, key);
          const std::vector<uint32_t>* rb = staged.RowsByChildKey(v, c, key);
          ASSERT_NE(ra, nullptr);
          ASSERT_NE(rb, nullptr);
          EXPECT_EQ(*ra, *rb) << "node " << v << " child " << c;
        }
      }
    }
  }
}

// --- Zero-range epochs and full retractions ------------------------------

// Zero-row batches flow through the pipeline: they count toward the batch
// bound (matching ReplayStream), and an epoch sealed from empty batches
// alone carries zero ranges and applies as a structural no-op.
TEST(StreamSchedulerTest, ZeroRangeEpochsSealAndApply) {
  RandomDb db = MakeRandomDb(5, Topology::kStar, /*fact_rows=*/30);
  UpdateStreamOptions opts;
  opts.batch_size = 11;
  opts.seed = 5;
  std::vector<UpdateBatch> inserts = BuildInsertStream(db.query, opts);
  // Interleave runs of empty batches long enough that, at epoch_batches=2,
  // some epochs consist of empty batches only.
  std::vector<UpdateBatch> stream;
  for (size_t i = 0; i < inserts.size(); ++i) {
    stream.push_back(inserts[i]);
    if (i % 3 == 0) {
      stream.push_back(UpdateBatch{});  // node -1, no rows
      stream.push_back(UpdateBatch{});
      stream.push_back(UpdateBatch{});
    }
  }
  StreamOptions options;
  options.epoch_batches = 2;
  options.epoch_rows = SIZE_MAX;  // seal on the batch bound only
  StreamStats replay_stats;
  CovarMatrix reference = RunStream<CovarFivm>(db, stream, Mode::kReplay,
                                               /*threads=*/1, options,
                                               &replay_stats);
  // Every epoch seals on the batch bound, so the epoch count is exact —
  // and the runs of empty batches guarantee all-empty (zero-range) epochs
  // like (empty, empty) right after the first insert. Prove one seals at
  // the assembler level, then that the full pipeline applies the stream.
  {
    ShadowDb probe(db.query, 0);
    EpochAssembler assembler(&probe, options);
    StreamEpoch epoch;
    EXPECT_FALSE(assembler.Add(UpdateBatch{}, &epoch));
    ASSERT_TRUE(assembler.Add(UpdateBatch{}, &epoch));
    EXPECT_TRUE(epoch.ranges.empty());
    EXPECT_EQ(epoch.batches, 2u);
    EXPECT_EQ(epoch.rows, 0u);
    // Nothing pending afterwards: the zero-range epoch reset the window.
    EXPECT_FALSE(assembler.Flush(&epoch));
  }
  EXPECT_EQ(replay_stats.epochs, (stream.size() + 1) / 2);
  EXPECT_EQ(replay_stats.batches, stream.size());
  for (int threads : {1, 2}) {
    StreamStats async_stats;
    CovarMatrix async = RunStream<CovarFivm>(db, stream, Mode::kAsync,
                                             threads, options, &async_stats);
    ExpectCovarExact(async, reference);
    ExpectSealCountsBounded(async_stats, replay_stats);
  }
}

// A delete batch that retracts an entire prior insert batch, in the SAME
// epoch and run: the range carries both signs, the two batches' deltas
// cancel in the ring, and the maintained aggregate returns to empty.
TEST(StreamSchedulerTest, FullBatchRetractionCancelsWithinAnEpoch) {
  RandomDb db = MakeRandomDb(9, Topology::kChain, /*fact_rows=*/24);
  UpdateStreamOptions opts;
  opts.batch_size = 8;
  opts.seed = 9;
  std::vector<UpdateBatch> inserts = BuildInsertStream(db.query, opts);
  // Mirror the whole stream: every insert followed by its exact
  // retraction. In one giant epoch each insert/delete pair (same node,
  // consecutive) lands in one range whose net delta is zero.
  std::vector<UpdateBatch> stream;
  for (const UpdateBatch& batch : inserts) {
    stream.push_back(batch);
    UpdateBatch del = batch;
    del.sign = -1.0;
    stream.push_back(std::move(del));
  }
  StreamOptions options;
  options.epoch_rows = SIZE_MAX;
  options.epoch_batches = SIZE_MAX;
  StreamStats replay_stats;
  CovarMatrix reference = RunStream<CovarFivm>(db, stream, Mode::kReplay,
                                               /*threads=*/1, options,
                                               &replay_stats);
  EXPECT_EQ(reference.count(), 0.0);
  EXPECT_EQ(replay_stats.epochs, 1u);
  // Same-node runs really merge batches into one range.
  EXPECT_LE(2 * replay_stats.ranges, replay_stats.batches);
  ExpectCovarExact(reference, RunStream<CovarFivm>(db, stream, Mode::kClassic,
                                                   /*threads=*/1, options));
  for (int threads : {1, 2, 4}) {
    StreamStats async_stats;
    CovarMatrix async = RunStream<CovarFivm>(db, stream, Mode::kAsync,
                                             threads, options, &async_stats);
    ExpectCovarExact(async, reference);
    ExpectSealCountsBounded(async_stats, replay_stats);
  }
  ExpectCovarExact(RunStream<HigherOrderIvm>(db, stream, Mode::kAsync,
                                             /*threads=*/2, options),
                   reference);
  ExpectCovarExact(RunStream<FirstOrderIvm>(db, stream, Mode::kAsync,
                                            /*threads=*/2, options),
                   reference);
}

// BuildMixedStream's full-retraction knob: some delete batch retracts a
// whole relation (more rows than batch_size in one batch), the stream
// stays replayable with multiplicities in {0, +1}, and the scheduler
// agrees with the serial replay bit for bit.
TEST(StreamSchedulerTest, MixedStreamFullRetractionsMatchReplay) {
  RandomDb db = MakeRandomDb(13, Topology::kStar, /*fact_rows=*/40);
  MixedStreamOptions opts;
  opts.insert.batch_size = 6;
  opts.insert.seed = 13;
  opts.delete_probability = 0.5;
  opts.full_retraction_probability = 0.6;
  std::vector<UpdateBatch> stream = BuildMixedStream(db.query, opts);
  bool oversized_delete = false;
  for (const UpdateBatch& batch : stream) {
    if (batch.sign < 0 && batch.rows.size() > opts.insert.batch_size) {
      oversized_delete = true;
    }
  }
  EXPECT_TRUE(oversized_delete)
      << "no full retraction exceeded the insert batch size";
  const StreamOptions options = CoalescingOptions();
  CovarMatrix reference = RunStream<CovarFivm>(db, stream, Mode::kReplay,
                                               /*threads=*/1, options);
  for (int threads : {1, 2, 4}) {
    ExpectCovarExact(
        RunStream<CovarFivm>(db, stream, Mode::kAsync, threads, options),
        reference);
  }
  ExpectCovarExact(RunStream<HigherOrderIvm>(db, stream, Mode::kAsync,
                                             /*threads=*/2, options),
                   RunStream<HigherOrderIvm>(db, stream, Mode::kReplay,
                                             /*threads=*/1, options));
  ExpectCovarExact(RunStream<FirstOrderIvm>(db, stream, Mode::kAsync,
                                            /*threads=*/2, options),
                   RunStream<FirstOrderIvm>(db, stream, Mode::kReplay,
                                            /*threads=*/1, options));
}

// A scheduler finished without any Push must leave everything untouched.
TEST(StreamSchedulerTest, EmptyStream) {
  RandomDb db = MakeRandomDb(3, Topology::kStar, /*fact_rows=*/20);
  ShadowDb shadow(db.query, 0);
  FeatureMap fm(shadow.query(), db.features);
  CovarFivm fivm(&shadow, &fm, MakePolicy(2));
  StreamStats stats = ApplyStream(&shadow, &fivm, {});
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.epochs, 0u);
  EXPECT_EQ(fivm.Current().count(), 0.0);
}

}  // namespace
}  // namespace relborg
