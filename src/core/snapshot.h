#ifndef LCCS_CORE_SNAPSHOT_H_
#define LCCS_CORE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/ann_index.h"
#include "dataset/dataset.h"
#include "storage/quantized_store.h"
#include "util/metric.h"
#include "util/topk.h"

namespace lccs {
namespace core {

/// One generation of a DynamicIndex's append-only delta region. The buffer
/// is the unit of the MVCC version chain: the writer appends new rows in
/// place while capacity lasts (readers only ever touch the prefix they
/// pinned, which the writer never rewrites), and on exhaustion it clones
/// into a larger buffer and publishes the clone — snapshots holding the old
/// shared_ptr keep reading the retired generation untouched. Rows and ids
/// are plain memory (immutable once written, ordered by the index rwlock);
/// tombstones are atomic version stamps because a concurrent Remove must be
/// visible to later snapshots while staying invisible to earlier ones.
struct DeltaBuffer {
  /// `codebook` (optional) enables the quantized scoring tier for delta
  /// rows: the writer encodes each inserted row under the epoch's codebook
  /// (QuantizedStore::EncodeRow) so snapshot delta scans can prune on int8
  /// codes exactly like epoch scans. The shared_ptr pins the epoch's
  /// QuantizedStore (codebook + scoring constants) even if the epoch itself
  /// is retired while this buffer is still pinned by a snapshot.
  DeltaBuffer(size_t capacity, size_t dim,
              std::shared_ptr<const storage::QuantizedStore> codebook =
                  nullptr);

  size_t capacity = 0;
  size_t dim = 0;
  std::unique_ptr<float[]> rows;     ///< capacity x dim, slot-major
  std::unique_ptr<int32_t[]> ids;    ///< slot -> global id, ascending
  /// Slot -> version of the mutation that removed it; 0 = live. A snapshot
  /// at version V treats a slot as deleted iff 0 < stamp <= V.
  std::unique_ptr<std::atomic<uint64_t>[]> deleted_at;
  /// Quantized mirror of `rows` (null when quantization is off): slot-major
  /// codes plus per-slot reconstruction terms, written together with the
  /// float row under the writer lock — a pinned prefix is as immutable as
  /// the floats.
  std::shared_ptr<const storage::QuantizedStore> codebook;
  std::unique_ptr<uint8_t[]> codes;  ///< capacity x dim
  std::unique_ptr<float[]> terms;    ///< capacity
};

/// One consolidation generation of a DynamicIndex: the static snapshot the
/// wrapped AnnIndex was built over, plus two tombstone layers. `deleted` is
/// the *base* bitmap — rows already dead when the epoch was installed —
/// frozen afterwards (it is the bitmap the wrapped index filters through,
/// and snapshot queries read it lock-free). Removes that land after the
/// install stamp `deleted_at` with their mutation version instead, so every
/// snapshot filters exactly the removes at or before its own version.
struct EpochState {
  dataset::Dataset data;           ///< snapshot (queries member unused)
  std::vector<int32_t> ids;        ///< row -> global id, strictly ascending
  std::vector<uint8_t> deleted;    ///< base tombstones, frozen at install
  /// Row -> version of the post-install mutation that removed it; 0 = not
  /// removed since install. Same visibility rule as DeltaBuffer::deleted_at.
  std::unique_ptr<std::atomic<uint64_t>[]> deleted_at;
  std::unique_ptr<baselines::AnnIndex> index;  ///< null when no rows
};

/// An immutable, versioned read view of a DynamicIndex — the MVCC unit the
/// serving engine executes batching windows against. Acquiring one
/// (DynamicIndex::AcquireSnapshot) is O(1): it pins the epoch shared_ptr,
/// the current delta buffer shared_ptr, the delta prefix length and the
/// tombstone version, all captured under one reader-lock hold. Queries then
/// run with **no lock held** and never block writers; concurrent inserts
/// land beyond the pinned prefix (or in a successor buffer), concurrent
/// removes carry stamps above the pinned version, and an epoch rebuild
/// installing a new generation leaves the pinned shared_ptrs alive — so
/// every query over one Snapshot returns bit-identical results for as long
/// as the snapshot is held (the property
/// tests/test_dynamic_concurrency.cc races under TSAN).
///
/// Query semantics match DynamicIndex::Query at the acquisition point
/// exactly: top-k over (epoch ∪ delta prefix) ∖ {tombstones at or before
/// version()}, merged by (distance, global id). Epoch-row removes that
/// happened after the install are filtered *post*-query: the wrapped index
/// answers k + overfetch (overfetch = stamped epoch rows at acquisition, at
/// most the tombstones one consolidation cycle accumulates), the stamped
/// rows are dropped, and the survivors truncated back to k — exact for the
/// exhaustive configurations the oracle tests replay.
class Snapshot {
 public:
  Snapshot() = default;

  /// k nearest surviving neighbors at version(), global ids: QueryBatch
  /// over one query, on the calling thread.
  std::vector<util::Neighbor> Query(const float* query, size_t k) const;

  /// Batched queries; row q's answer does not depend on the other rows.
  std::vector<std::vector<util::Neighbor>> QueryBatch(
      const float* queries, size_t num_queries, size_t k,
      size_t num_threads = 0) const;

  /// Mutations (of the owning DynamicIndex) applied before acquisition.
  uint64_t version() const { return version_; }
  /// Consolidations completed before acquisition (test observability).
  uint64_t epoch_sequence() const { return epoch_sequence_; }
  /// Rows visible to this snapshot's delta scan.
  size_t delta_size() const { return delta_len_; }

 private:
  friend class DynamicIndex;

  /// Epoch results with post-install removes at or before version_ dropped
  /// and row ids remapped to global ids, truncated to k.
  std::vector<util::Neighbor> FilterEpoch(std::vector<util::Neighbor> stat,
                                          size_t k) const;
  /// Brute-force top-k over the live pinned delta prefix, global ids.
  /// `live` lists the slots surviving at version(), ascending — QueryBatch
  /// gathers it once per window (the stamps cannot change retroactively for
  /// a pinned version).
  std::vector<util::Neighbor> QueryDelta(const float* query, size_t k,
                                         const std::vector<int32_t>& live)
      const;

  std::shared_ptr<const EpochState> epoch_;
  std::shared_ptr<const DeltaBuffer> delta_;
  size_t delta_len_ = 0;       ///< pinned delta prefix (slots)
  size_t epoch_overfetch_ = 0; ///< epoch rows stamped at acquisition
  uint64_t version_ = 0;
  uint64_t epoch_sequence_ = 0;
  util::Metric metric_ = util::Metric::kEuclidean;
  size_t dim_ = 0;
};

}  // namespace core
}  // namespace lccs

#endif  // LCCS_CORE_SNAPSHOT_H_
