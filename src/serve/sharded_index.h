#ifndef LCCS_SERVE_SHARDED_INDEX_H_
#define LCCS_SERVE_SHARDED_INDEX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/dynamic_index.h"
#include "core/snapshot.h"

namespace lccs {
namespace serve {

/// An immutable read view of a whole ShardedIndex: one core::Snapshot per
/// shard plus the pinned local→global id maps, all captured under a single
/// reader-lock hold of ShardedIndex::AcquireSnapshot(). Mutations hold the
/// ShardedIndex writer lock, so the S per-shard captures form one *atomic
/// cut* of the mutation log — the state after exactly state_version()
/// mutations, which is what makes serve::Server's responses black-box
/// checkable against an oracle replay. Queries run with no lock held and
/// stay bit-identical for as long as the view is alive, across concurrent
/// inserts, removes and shard consolidations (a shard rebuild installing
/// mid-capture is harmless: an install changes no logical content, the
/// invariance property the concurrency tests pin down).
class ShardedSnapshot {
 public:
  ShardedSnapshot() = default;

  /// k nearest surviving neighbors at state_version(), global ids: each
  /// shard view answers for k, results are remapped and S-way merged —
  /// identical to ShardedIndex::Query at the acquisition point. QueryBatch
  /// over one query, on the calling thread.
  std::vector<util::Neighbor> Query(const float* query, size_t k) const;

  /// Batched queries over the same cut; row q's answer does not depend on
  /// the other rows. The shards answer concurrently as one fork-join tree on
  /// the shared pool: a ParallelFor over shards whose per-shard phases nest
  /// into the same team, so at most `num_threads` threads (0 = workers +
  /// caller) run the window, and they balance across shards. The remap and
  /// S-way merge per query follow as a second ParallelFor.
  std::vector<std::vector<util::Neighbor>> QueryBatch(
      const float* queries, size_t num_queries, size_t k,
      size_t num_threads = 0) const;

  /// Mutations admitted before this snapshot's cut.
  uint64_t state_version() const { return state_version_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  friend class ShardedIndex;

  struct ShardView {
    core::Snapshot snapshot;
    /// Pinned id map generation. Every local id the pinned snapshot can
    /// return was assigned — and its entry written — before the cut; the
    /// live index only ever appends to (a successor of) this generation,
    /// so reading those entries lock-free is race-free.
    std::shared_ptr<const std::vector<int32_t>> local_to_global;
  };

  std::vector<ShardView> shards_;
  uint64_t state_version_ = 0;
};

/// Partitions points across S per-shard core::DynamicIndex instances —
/// the data-plane half of the serving engine (serve::Server is the control
/// plane). Sharding bounds per-shard epoch size, so consolidations rebuild
/// 1/S of the data at a time, and lets a batch of queries fan out across
/// shards on the shared thread pool.
///
/// Id spaces: the ShardedIndex assigns **global** ids in insert order
/// (0, 1, 2, ... — exactly like a single DynamicIndex, so the two are
/// drop-in interchangeable). Bulk load (Build) places rows by contiguous
/// range: shard s owns rows [s*n/S, (s+1)*n/S) as a zero-copy
/// storage::SliceStore view, so all S shards share the dataset's one
/// (possibly memory-mapped) store instead of holding private copies.
/// Inserted points are placed by a splitmix64 hash of the global id (range
/// placement would pile a live insert stream onto the last shard). Either
/// way a point lives under its shard's own **local** id, and placement is
/// invisible in results: the merge is over global ids.
/// The global → (shard, local) map answers Remove; the per-shard
/// local → global arrays remap query results. Both remaps are monotone
/// (later local id ⇒ later global id within a shard), so per-shard result
/// lists stay sorted by (distance, global id) after remapping and the S-way
/// util::MergeSortedTopK produces exactly the ranking a single index over
/// all survivors would — with exhaustive-verification shard configurations
/// this is bit-identical, the property tests/test_serve.cc's black-box
/// checker relies on.
///
/// Versioning: every mutation — ApplyInsert, or ApplyRemove even when it
/// refuses an unknown/dead id — advances a dense `state_version` counter
/// under the writer lock. AcquireSnapshot() captures all S shard views
/// under one reader-lock hold and stamps them with that counter, giving
/// serve::Server an MVCC read view it can execute a whole batching window
/// against while the writer keeps applying mutations.
///
/// Consolidation is *scheduled externally* by default: shards are built
/// with background_rebuild = false and MaintainShards() — called by
/// serve::Server between batching windows — triggers per-shard background
/// rebuilds off the DynamicIndex::stats() snapshots, at most
/// Options::max_concurrent_rebuilds shards at a time (rebuilds are
/// memory- and CPU-hungry; S of them at once would starve the query path).
/// A shard is due when either its delta or its tombstones outgrow the
/// threshold — accumulated tombstones widen every snapshot's epoch
/// over-fetch margin, so they are consolidation pressure too.
///
/// Thread safety: mirrors DynamicIndex. Query/QueryBatch/AcquireSnapshot
/// take a reader lock on the id maps (shard captures run under it — they
/// are const and internally locked); ApplyInsert/ApplyRemove take the
/// writer lock. Lock order is always ShardedIndex → shard, and shard
/// rebuild threads never touch the ShardedIndex, so the hierarchy is
/// acyclic.
class ShardedIndex : public baselines::AnnIndex {
 public:
  struct Options {
    size_t num_shards = 4;
    util::Metric metric = util::Metric::kEuclidean;
    /// Dimensionality; required when inserting before any Build (Build
    /// overrides it from the dataset).
    size_t dim = 0;
    /// Per-shard delta size (or tombstone count) at which MaintainShards
    /// triggers consolidation.
    size_t rebuild_threshold = 1024;
    /// At most this many shards consolidating concurrently (MaintainShards
    /// policy knob).
    size_t max_concurrent_rebuilds = 1;
    /// Let every shard self-schedule rebuilds (DynamicIndex's own
    /// background path) instead of waiting for MaintainShards. Off by
    /// default: the serving loop calls MaintainShards between windows,
    /// which bounds concurrent rebuilds globally — a per-shard trigger
    /// cannot.
    bool shard_background_rebuild = false;
    /// Forwarded to every shard's DynamicIndex::Options::quantize: each
    /// shard epoch gets an int8 storage::QuantizedStore sibling and serves
    /// candidate scoring through the two-phase quantized pipeline.
    bool quantize = false;
    /// Forwarded to every shard's DynamicIndex::Options::spill_dir: when
    /// non-empty, shard consolidations stream survivors to flat files there
    /// and serve them memory-mapped instead of materializing per-shard
    /// heap snapshots.
    std::string spill_dir;
  };

  /// Outcome of a versioned mutation: whether it took effect, the global id
  /// it concerned, and the dense mutation-log position it consumed (refused
  /// removes consume one too — the log stays dense, which the black-box
  /// checker's replay depends on).
  struct MutationResult {
    bool applied = false;
    int32_t id = -1;
    uint64_t state_version = 0;
  };

  /// `factory` creates the epoch index of every shard (same contract as
  /// DynamicIndex::Factory — called once per shard consolidation).
  ShardedIndex(core::DynamicIndex::Factory factory, Options options);

  // --- AnnIndex interface -------------------------------------------------

  /// Bulk load: rows get global ids 0..n-1, are range-partitioned across
  /// the shards, and each non-empty shard is built over a zero-copy slice
  /// of the dataset's shared store. Previous contents are discarded
  /// (in-flight shard rebuilds are drained first) and the state version
  /// resets to 0.
  void Build(const dataset::Dataset& data) override;

  /// k nearest surviving neighbors by true distance, global ids.
  /// Equivalent to AcquireSnapshot().Query(query, k).
  std::vector<util::Neighbor> Query(const float* query,
                                    size_t k) const override;

  /// Batched queries over one snapshot; identical to per-row Query by
  /// construction (see ShardedSnapshot::QueryBatch).
  std::vector<std::vector<util::Neighbor>> QueryBatch(
      const float* queries, size_t num_queries, size_t k,
      size_t num_threads = 0) const override;

  /// Appends a dim()-dimensional vector; returns its global id (insert
  /// order, monotone across the whole sharded index). ApplyInsert with the
  /// version dropped.
  int32_t Insert(const float* vec) override;

  /// Tombstones the point with global id `id`; returns false when the id
  /// was never assigned or is already deleted. ApplyRemove with the version
  /// dropped (the log position is consumed either way).
  bool Remove(int32_t id) override;

  // --- Versioned mutations ------------------------------------------------

  /// Insert stamped with the mutation-log position it consumed.
  MutationResult ApplyInsert(const float* vec);

  /// Remove stamped with the mutation-log position it consumed. Refused
  /// removes (unknown or already-dead id) still consume a position, with
  /// applied == false.
  MutationResult ApplyRemove(int32_t id);

  /// O(1)-per-shard immutable read view: all S shard snapshots and id-map
  /// generations captured under one reader-lock hold — an atomic cut at
  /// state_version(). Queries on the view run lock-free and never block
  /// the writer.
  ShardedSnapshot AcquireSnapshot() const;

  /// Mutations applied so far (the version a snapshot acquired now would
  /// carry). Build resets it to 0.
  uint64_t state_version() const;

  /// Refused for non-null bitmaps, same contract as DynamicIndex: the
  /// shards manage their own tombstones via Remove.
  void set_deleted_filter(const std::vector<uint8_t>* deleted) override;

  size_t dim() const override;
  size_t IndexSizeBytes() const override;
  std::string name() const override;

  // --- Sharding introspection ---------------------------------------------

  size_t num_shards() const;
  size_t live_count() const;       ///< surviving points across all shards
  bool Contains(int32_t id) const; ///< id assigned and not deleted

  /// Per-shard DynamicIndex::stats() snapshots (index = shard number).
  std::vector<core::DynamicIndex::Stats> ShardStats() const;

  /// Copies the surviving vectors in ascending global-id order across all
  /// shards; `ids` (optional) receives the matching global ids. The oracle
  /// input, exactly like DynamicIndex::LiveVectors.
  util::Matrix LiveVectors(std::vector<int32_t>* ids = nullptr) const;

  // --- Checkpointing --------------------------------------------------------

  /// A consistent cut of the logical contents — everything crash recovery
  /// needs to reconstruct an equivalent index: the dense mutation-log
  /// position, the id counter, and the surviving (global id, vector) pairs
  /// in ascending id order. Deliberately *logical*: it records what
  /// survives, not which shard held it or what the epoch/delta split was,
  /// because query results are provably placement-independent (the
  /// bit-identical-across-shard-configs property tests/test_serve.cc pins
  /// down).
  struct CheckpointState {
    uint64_t state_version = 0;  ///< mutations applied at the cut
    int32_t next_id = 0;         ///< next global id to assign
    util::Metric metric = util::Metric::kEuclidean;
    size_t dim = 0;
    std::vector<int32_t> ids;  ///< surviving global ids, ascending
    util::Matrix vectors;      ///< ids.size() x dim; row i = vector of ids[i]
  };

  /// Captures a CheckpointState under one reader-lock hold — an atomic cut
  /// at state_version(), concurrent with queries and snapshots.
  CheckpointState CaptureCheckpointState() const;

  /// Replaces the whole contents with `state`: every surviving row is
  /// hash-placed (the insert rule — legal even for rows the pre-crash index
  /// had range-placed via Build, since placement is invisible in results),
  /// dead ids resolve to a sentinel location every shard reports as
  /// unknown, and the id/version counters resume exactly where the cut was
  /// taken. Fresh shards are built outside the lock, then installed under
  /// one writer-lock hold. Throws std::runtime_error on an inconsistent
  /// state (shape mismatch, ids out of range or not ascending).
  void RestoreCheckpointState(const CheckpointState& state);

  // --- Consolidation scheduling -------------------------------------------

  /// The per-shard consolidation scheduler: triggers a background rebuild
  /// on the shards whose delta *or tombstone count* has outgrown
  /// Options::rebuild_threshold — largest backlog first — until
  /// Options::max_concurrent_rebuilds are in flight. Returns the number of
  /// rebuilds triggered by this call. Cheap when nothing is due (S stats
  /// snapshots); serve::Server calls it after every batching window and
  /// from its writer thread.
  size_t MaintainShards();

  /// Synchronously consolidates every shard (tests / shutdown barrier).
  void ConsolidateAll();

  /// Blocks until no shard rebuild is in flight; rethrows the first error a
  /// background rebuild died with.
  void WaitForRebuilds() const;

  /// The shard a global id hashes to, given S shards (splitmix64 finalizer;
  /// exposed for tests).
  static size_t ShardOf(int32_t id, size_t num_shards);

 private:
  /// Where a global id lives. Never erased — ids are not reused, and
  /// Remove answers "already deleted" through the shard itself.
  struct Location {
    uint32_t shard = 0;
    int32_t local = 0;
  };

  std::shared_lock<std::shared_mutex> ReadLock() const;
  std::unique_lock<std::shared_mutex> WriteLock() const;

  /// LiveVectors body; caller holds (at least) the reader lock.
  util::Matrix LiveVectorsLocked(std::vector<int32_t>* ids) const;

  core::DynamicIndex::Factory factory_;
  Options options_;

  /// Guards the id maps, next_id_ and state_version_ (the shards guard
  /// themselves). Same writer-starvation gate as DynamicIndex: readers tap
  /// gate_ first, so a steady query stream cannot park a writer forever.
  mutable std::shared_mutex mutex_;
  mutable std::mutex gate_;
  std::vector<std::unique_ptr<core::DynamicIndex>> shards_;
  std::vector<Location> locations_;             ///< global id -> residence
  /// Per shard, local id -> global id, ascending. Shared generations:
  /// snapshots pin the current one, the writer appends in place while
  /// capacity lasts (appended entries are beyond every pinned snapshot's
  /// reach) and clones into a doubled successor when full — the same
  /// version-chain trick core::DeltaBuffer plays.
  std::vector<std::shared_ptr<std::vector<int32_t>>> local_to_global_;
  int32_t next_id_ = 0;
  uint64_t state_version_ = 0;  ///< dense mutation-log length
};

}  // namespace serve
}  // namespace lccs

#endif  // LCCS_SERVE_SHARDED_INDEX_H_
