// Builds insert streams for the IVM experiments: the rows of a source
// dataset are dealt out in per-relation batches, interleaved proportionally
// to relation sizes (so the database grows uniformly from empty, as in the
// Fig. 4 right experiment). Mixed streams additionally re-emit previously
// inserted rows as delete batches (multiplicity -1 — the ring's additive
// inverse), so relations can shrink mid-stream.
#ifndef RELBORG_IVM_UPDATE_STREAM_H_
#define RELBORG_IVM_UPDATE_STREAM_H_

#include <vector>

#include "query/join_tree.h"
#include "util/rng.h"

namespace relborg {

struct UpdateBatch {
  int node = -1;       // join-tree node receiving the rows
  double sign = 1.0;   // +1 insert batch, -1 delete batch
  std::vector<std::vector<double>> rows;
};

enum class StreamOrder {
  // One batch from every non-exhausted relation per round: small dimension
  // tables finish within a few rounds and the fact table dominates the rest
  // of the stream — the F-IVM paper's retailer loading pattern.
  kRoundRobin,
  // Relations drawn with probability proportional to their remaining rows;
  // all relations finish near the end (stresses late high-fan-out inserts).
  kProportional,
};

struct UpdateStreamOptions {
  size_t batch_size = 1000;
  uint64_t seed = 5;
  bool shuffle_rows = true;  // randomize insertion order within relations
  StreamOrder order = StreamOrder::kRoundRobin;
};

// Deals every row of every relation of `query` into batches.
std::vector<UpdateBatch> BuildInsertStream(
    const JoinQuery& query, const UpdateStreamOptions& options = {});

struct MixedStreamOptions {
  UpdateStreamOptions insert;
  // After each insert batch, a delete batch follows with this probability
  // (drawn deterministically from `insert.seed`). Each delete batch
  // re-emits up to `insert.batch_size` of the oldest not-yet-deleted rows
  // of a random relation with sign -1.
  double delete_probability = 0.25;
  // When a delete batch fires, with this (conditional) probability it is a
  // FULL RETRACTION instead: one delete batch re-emitting EVERY live row
  // of the picked relation — entire prior insert batches retracted at
  // once, and the relation's live multiset left momentarily empty. This is
  // the empty-relation / empty-epoch edge case the stream scheduler must
  // stage and apply correctly (the retraction can exceed
  // insert.batch_size rows and can cancel an epoch's net delta to zero).
  double full_retraction_probability = 0.0;
  // After each insert batch (independently of the delete draw), an EMPTY
  // batch — zero rows, insert sign — follows with this probability. Empty
  // batches produce zero-range epochs once the scheduler groups them:
  // the epoch has batches but no rows, so its compute stage has nothing to
  // speculate and its application is a no-op that must still retire in
  // order. Default 0 keeps streams byte-identical to older builds (the
  // draw is skipped entirely, like full_retraction_probability).
  double empty_batch_probability = 0.0;
};

// Insert stream interleaved with delete batches that retract previously
// inserted rows. A pure function of (query, options): the batch sequence,
// row contents and signs never depend on timing or thread count. Every
// delete targets rows some earlier batch of the same stream inserted, so
// replaying the stream in order keeps multiplicities in {0, +1}.
std::vector<UpdateBatch> BuildMixedStream(const JoinQuery& query,
                                          const MixedStreamOptions& options);

// Total rows across a stream (inserts and deletes both count).
size_t StreamRowCount(const std::vector<UpdateBatch>& stream);

}  // namespace relborg

#endif  // RELBORG_IVM_UPDATE_STREAM_H_
