// The traced run's replays: served query windows re-executed through each
// layer's public calls on per-shard replicas, and acked mutations re-applied
// in version order through apply, WAL and checkpoint calls.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/lccs_adapter.h"
#include "core/dynamic_index.h"
#include "dataset/dataset.h"
#include "driver.h"
#include "serve/sharded_index.h"
#include "serve/wal.h"
#include "storage/quantized_store.h"
#include "trace.h"

namespace perfbench {

/// One LCCS-LSH index per shard, built with the serving factory over the
/// same contiguous row range ShardedIndex::Build gives that shard, as a
/// zero-copy slice of the same base store.
class ShardReplicas {
 public:
  /// `quantize` attaches an int8 sibling to every slice, exactly as a
  /// quantized shard's epoch does.
  ShardReplicas(const lccs::core::DynamicIndex::Factory& factory,
                const lccs::dataset::Dataset& base, size_t num_shards,
                bool quantize);

  struct Shard {
    size_t first_row = 0;
    std::unique_ptr<lccs::baselines::AnnIndex> owner;
    const lccs::core::MpLccsLsh* scheme = nullptr;
    std::shared_ptr<const lccs::storage::VectorStore> store;
    const lccs::storage::QuantizedStore* quantized = nullptr;
    size_t quantized_offset = 0;
  };
  const std::vector<Shard>& shards() const { return shards_; }

 private:
  std::vector<Shard> shards_;
};

/// Per-layer totals over every replayed window.
struct LayerTotals {
  double hash_ns = 0, bounds_ns = 0, drain_ns = 0;
  double score_ns = 0, rerank_ns = 0, l2_ns = 0, merge_ns = 0;
  double candidates = 0, rerank_rows = 0;
  double queries = 0;
  std::vector<double> dedup_ratio;  ///< one per window
};

/// Replays windows one at a time, on one thread, through
/// HashFamily::Hash → CircularShiftArray::SearchBounds → CollectFromHeap →
/// (int8: QuantizedStore::ScoreCandidates + RerankSelector →
/// VectorStore::PrefetchRows) → util::DistanceMany over the store's rows in
/// place → TopK → util::MergeSortedTopK, as LccsLsh::QueryBatch serves it.
class LayerReplayer {
 public:
  LayerReplayer(const ShardReplicas& replicas, size_t k, size_t lambda,
                Tracer* tracer);

  /// Runs one window. `int8` selects the two-phase path (score every
  /// candidate on int8 codes, keep the best k·overfetch, verify those);
  /// otherwise every candidate is verified. Either way the exact distances
  /// are read in place from the store's rows, mapped or heap. Returns the
  /// merged answers with global ids.
  std::vector<std::vector<lccs::util::Neighbor>> Run(
      const std::vector<const float*>& queries, bool int8, uint64_t window,
      int32_t parent, LayerTotals* totals);

  /// The int8 two-phase verify over the candidates of the last Run, for a
  /// window that was served on float rows: what the quantized tier would
  /// cost on this workload's candidates. Results are not compared.
  void RerankInt8(const std::vector<const float*>& queries, uint64_t window,
                  int32_t parent, LayerTotals* totals);

 private:
  /// Scores, selects and verifies one shard's candidates.
  void Int8Verify(const ShardReplicas::Shard& shard, size_t s,
                  const std::vector<const float*>& queries, uint64_t window,
                  int32_t parent, LayerTotals* totals,
                  std::vector<std::vector<lccs::util::Neighbor>>* local);

  const ShardReplicas& replicas_;
  size_t k_;
  size_t count_;  ///< λ + k − 1 candidates per query and shard
  Tracer* tracer_;
  /// candidates_[shard][query] of the last Run
  std::vector<std::vector<std::vector<lccs::core::LccsCandidate>>> candidates_;
};

/// Timings of the mutation replay: one sample per apply, append and sync.
struct WriteReplay {
  std::vector<double> apply_us, append_us, fsync_us;
  double capture_ms = 0, publish_ms = 0;  ///< the one checkpoint
  double consolidate_ms = 0;              ///< ConsolidateAll, per shard
  size_t mismatches = 0;
  std::string first_mismatch;
  uint64_t final_version = 0;
  size_t live_count = 0;
};

/// Builds a fresh ShardedIndex over `base`, adopts a fresh WAL in `wal_dir`,
/// and re-applies `mutations` (dense, ascending state_version) through
/// CaptureCheckpointState + WriteCheckpoint of the base state (as the served
/// log starts), then ApplyInsert/ApplyRemove and WriteAheadLog::Append per
/// mutation with one Sync per `records_per_fsync` records, and ends with one
/// ConsolidateAll (the served tail stays below the rebuild threshold, so
/// this is the only consolidation). Every result is compared with its ack.
WriteReplay ReplayMutations(const lccs::core::DynamicIndex::Factory& factory,
                            const lccs::serve::ShardedIndex::Options& options,
                            const lccs::dataset::Dataset& base,
                            const std::vector<MutationRecord>& mutations,
                            const RequestSource& source,
                            size_t records_per_fsync,
                            const std::string& wal_dir, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
