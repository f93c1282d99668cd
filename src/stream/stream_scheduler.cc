#include "stream/stream_scheduler.h"

#include "core/exec_policy.h"

namespace relborg {

EpochAssembler::EpochAssembler(const ShadowDb* db,
                               const StreamOptions& options)
    : db_(db), options_(options) {
  const int num_nodes = db->tree().num_nodes();
  next_row_.resize(num_nodes);
  // Snapshot the current relation sizes once, before any pipeline thread
  // exists; from here on row ids are tracked locally so staging never
  // reads the (concurrently mutated) relations.
  for (int v = 0; v < num_nodes; ++v) {
    next_row_[v] = db->relation(v).num_rows();
  }
}

bool EpochAssembler::Add(UpdateBatch batch, StreamEpoch* out) {
  const size_t batch_rows = batch.rows.size();
  if (batch_rows > 0) {
    RELBORG_CHECK(batch.node >= 0 &&
                  batch.node < static_cast<int>(next_row_.size()));
    // A batch extends the open run when it targets the run's node; any
    // other node starts a new run, so runs follow stream order.
    if (runs_.empty() || runs_.back().node != batch.node) {
      runs_.emplace_back();
      runs_.back().node = batch.node;
    }
    Run& run = runs_.back();
    for (auto& row : batch.rows) run.rows.push_back(std::move(row));
    run.signs.insert(run.signs.end(), batch_rows, batch.sign);
    run.batch_ends.push_back(run.rows.size());
    cur_rows_ += batch_rows;
  }
  // Empty batches contribute no rows but still count toward the batch
  // bound, so a stream tail of retract-everything no-ops can seal (and the
  // scheduler apply) zero-range epochs.
  cur_batches_ += 1;
  // The same bounds, applied to the stream as if every epoch sealed at
  // them: the checkpoint cadence counts these epochs (at their first
  // batch), not the sealed ones.
  if (bound_batches_ == 0) ++bound_epochs_;
  bound_rows_ += batch_rows;
  bound_batches_ += 1;
  if (bound_rows_ >= options_.epoch_rows ||
      bound_batches_ >= options_.epoch_batches) {
    bound_rows_ = 0;
    bound_batches_ = 0;
  }
  if (cur_rows_ >= options_.epoch_rows ||
      cur_batches_ >= options_.epoch_batches) {
    Seal(out);
    return true;
  }
  return false;
}

bool EpochAssembler::Flush(StreamEpoch* out) {
  if (cur_batches_ == 0) return false;
  Seal(out);
  return true;
}

void EpochAssembler::Seal(StreamEpoch* out) {
  *out = StreamEpoch();
  out->id = next_epoch_id_++;
  out->rows = cur_rows_;
  out->batches = cur_batches_;
  out->bound_epochs = bound_epochs_;
  out->reads.assign(next_row_.size(), 0);
  out->ranges.reserve(runs_.size());
  for (Run& run : runs_) {
    StreamRange range;
    range.batch_ends = std::move(run.batch_ends);
    range.chunk = db_->StageRows(run.node, std::move(run.rows),
                                 std::move(run.signs), next_row_[run.node]);
    next_row_[run.node] += range.chunk.num_rows();
    // The range's visibility horizon: per-node staged totals so far —
    // bit-for-bit the committed watermarks of the serial replay right
    // after this range's last batch (epochs stage, commit and maintain
    // strictly in order, and next_row_ never includes later epochs here).
    range.visible.assign(next_row_.begin(), next_row_.end());
    // Maintenance of this range reads its node and (through upward
    // propagation) the node's ancestors.
    MarkAncestorClosure(db_->tree(), run.node, &out->reads);
    out->ranges.push_back(std::move(range));
  }
  runs_.clear();
  cur_rows_ = 0;
  cur_batches_ = 0;
  bound_epochs_ = 0;
  out->sealed_at = std::chrono::steady_clock::now();
}

}  // namespace relborg
