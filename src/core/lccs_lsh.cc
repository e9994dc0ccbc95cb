#include "core/lccs_lsh.h"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <utility>

#include "storage/quantized_store.h"
#include "util/simd_distance.h"
#include "util/thread_pool.h"

namespace lccs {
namespace core {

namespace {

/// First pass of two-phase verification: scores every live candidate on the
/// store's quantized sibling (heap-resident int8 codes — no disk faults) and
/// keeps the best k' = RerankKeep(k) ids, returned ascending so the exact
/// rerank scores them in a deterministic order. Returns false — caller runs
/// the classic exact-only path — when the store carries no codes for
/// `metric` or the live candidate list is not larger than k' (then pruning
/// could only drop candidates the exact pass would have scored anyway, so
/// the quantized and exact paths degenerate to the same verification).
/// `pruned`, `live` and `scores` are the caller's reusable buffers; their
/// contents are overwritten.
bool QuantizedPrune(const storage::VectorStore& store, util::Metric metric,
                    const float* query,
                    const std::vector<LccsCandidate>& cands,
                    const uint8_t* deleted, size_t k,
                    std::vector<int32_t>* pruned, std::vector<int32_t>* live,
                    std::vector<float>* scores) {
  size_t row_offset = 0;
  const storage::QuantizedStore* qs =
      storage::ActiveQuantized(&store, metric, &row_offset);
  if (qs == nullptr || k == 0) return false;
  const size_t keep = storage::RerankKeep(k);
  live->clear();
  for (const LccsCandidate& c : cands) {
    if (deleted != nullptr && deleted[c.id] != 0) continue;
    live->push_back(c.id);
  }
  if (live->size() <= keep) return false;
  const storage::QuantizedStore::PreparedQuery pq = qs->Prepare(query);
  scores->resize(live->size());
  qs->ScoreCandidates(pq, live->data(), live->size(), row_offset,
                      scores->data());
  storage::RerankSelector selector(keep);
  for (size_t i = 0; i < live->size(); ++i) {
    selector.Offer((*scores)[i], (*live)[i]);
  }
  *pruned = selector.TakeAscendingIds();
  return true;
}

/// Byte budget of one window's buffer set. QueryBatch runs a larger batch
/// as consecutive windows that fit it (a serving window — 64 queries at
/// λ = 2000 — needs about 3 MB), so a one-off bulk batch cannot grow the
/// retained sets to tens of MB each; a set that still outgrows it (one
/// query's candidates alone, or the union bitmap of a huge index) is freed
/// on return instead of kept.
constexpr size_t kMaxRetainedScratchBytes = size_t{4} << 20;

/// Window-buffer bytes per candidate: the candidate, its blocked id and
/// slot, and its distance.
constexpr size_t kScratchBytesPerCandidate =
    sizeof(LccsCandidate) + 2 * sizeof(int32_t) + sizeof(double);

/// Lends the calling thread a T from a process-wide free list and takes it
/// back on destruction, so QueryBatch's window transients are reused across
/// windows instead of allocated per call. With shards answered concurrently
/// every fan-out thread runs whole shard windows; fresh buffers would come
/// from each thread's own malloc arena, and each arena keeps its high-water
/// mark resident. The list holds as many buffer sets as ever ran at once,
/// however many threads took turns with them. Re-entrant: a thread that
/// steals another shard's window while waiting inside its own borrows a
/// second set.
template <typename T>
class ScratchLease {
 public:
  ScratchLease() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        item_ = std::move(free_.back());
        free_.pop_back();
      }
    }
    if (item_ == nullptr) item_ = std::make_unique<T>();
  }
  ~ScratchLease() {
    if (item_->Bytes() > kMaxRetainedScratchBytes) return;
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(item_));
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  T* operator->() const { return item_.get(); }

 private:
  static inline std::mutex mu_;
  static inline std::vector<std::unique_ptr<T>> free_;
  std::unique_ptr<T> item_;
};

template <typename V>
size_t CapacityBytes(const V& v) {
  return v.capacity() * sizeof(typename V::value_type);
}

/// QueryBatch's whole-window buffers (see the phase comments there). Sizes
/// are set per call; capacity carries over.
struct WindowBuffers {
  std::vector<HashValue> hashes;
  std::vector<std::vector<LccsCandidate>> cands;
  std::vector<size_t> offsets;
  std::vector<uint8_t> in_union;
  std::vector<int32_t> union_ids;
  std::vector<int32_t> blocked_ids;
  std::vector<int32_t> blocked_slots;
  std::vector<double> dists;
  std::vector<int32_t> block_off;
  std::vector<uint8_t> gather;

  size_t Bytes() const {
    size_t bytes = CapacityBytes(hashes) + CapacityBytes(cands) +
                   CapacityBytes(gather) +
                   CapacityBytes(offsets) + CapacityBytes(in_union) +
                   CapacityBytes(union_ids) + CapacityBytes(blocked_ids) +
                   CapacityBytes(blocked_slots) + CapacityBytes(dists) +
                   CapacityBytes(block_off);
    for (const auto& list : cands) bytes += CapacityBytes(list);
    return bytes;
  }
};

/// One exact-stage chunk's buffers (QuantizedPrune's survivors, live list
/// and scores; the live list doubles as the in-place verify's id list).
struct PruneBuffers {
  std::vector<int32_t> pruned;
  std::vector<int32_t> live;
  std::vector<float> scores;

  size_t Bytes() const {
    return CapacityBytes(pruned) + CapacityBytes(live) +
           CapacityBytes(scores);
  }
};

}  // namespace

LccsLsh::LccsLsh(std::unique_ptr<lsh::HashFamily> family, util::Metric metric)
    : family_(std::move(family)), metric_(metric) {
  assert(family_ != nullptr);
}

void LccsLsh::Build(std::shared_ptr<const storage::VectorStore> store) {
  assert(store != nullptr && store->rows() >= 1);
  assert(store->cols() == family_->dim());
  store_ = std::move(store);
  n_ = store_->rows();
  d_ = store_->cols();
  const size_t m = family_->num_functions();
  // Hashing is embarrassingly parallel; the CSA build itself is sequential,
  // mirroring the paper's single-thread indexing cost model. Each chunk
  // advises the store first so a memory-mapped base set streams in with
  // read-ahead and stays inside its residency budget.
  std::vector<HashValue> strings(n_ * m);
  const storage::VectorStore& rows = *store_;
  util::ParallelFor(n_, [&](size_t begin, size_t end) {
    storage::ScanRows(rows, begin, end, [&](size_t i) {
      family_->Hash(rows.Row(i), strings.data() + i * m);
    });
  });
  csa_.Build(strings.data(), n_, m);
}

void LccsLsh::Build(const float* data, size_t n, size_t d) {
  assert(data != nullptr);
  Build(storage::WrapBorrowed(data, n, d));
}

void LccsLsh::AttachPrebuilt(std::shared_ptr<const storage::VectorStore> store,
                             CircularShiftArray csa) {
  assert(store != nullptr);
  assert(store->cols() == family_->dim());
  assert(csa.n() == store->rows() && csa.m() == family_->num_functions());
  store_ = std::move(store);
  n_ = store_->rows();
  d_ = store_->cols();
  csa_ = std::move(csa);
}

void LccsLsh::AttachPrebuilt(const float* data, size_t n, size_t d,
                             CircularShiftArray csa) {
  assert(data != nullptr);
  AttachPrebuilt(storage::WrapBorrowed(data, n, d), std::move(csa));
}

void LccsLsh::set_deleted_filter(const std::vector<uint8_t>* deleted) {
  deleted_ = deleted;
  deleted_count_ = 0;
  if (deleted != nullptr) {
    for (const uint8_t bit : *deleted) deleted_count_ += (bit != 0) ? 1 : 0;
  }
}

std::unique_ptr<LccsLsh::QueryScratch> LccsLsh::MakeScratch() const {
  return std::make_unique<QueryScratch>();
}

void LccsLsh::PrepareSearch(const float* query, const HashValue* hash,
                            QueryScratch* scratch) const {
  (void)query;  // the base scheme probes only the unperturbed hash string
  scratch->csa.Begin(n_, csa_.m(), 0);
  csa_.SearchBounds(hash, &scratch->csa);
  scratch->probe_ptrs.assign(1, hash);
}

void LccsLsh::AppendCandidates(const float* query, const HashValue* hash,
                               size_t count, QueryScratch* scratch,
                               std::vector<LccsCandidate>* out) const {
  PrepareSearch(query, hash, scratch);
  csa_.CollectFromHeap(scratch->probe_ptrs.data(), scratch->probe_ptrs.size(),
                       count, &scratch->csa, out);
}

std::vector<LccsCandidate> LccsLsh::Candidates(const float* query,
                                               size_t count) const {
  assert(store_ != nullptr);
  const size_t m = family_->num_functions();
  std::vector<HashValue> hq(m);
  family_->Hash(query, hq.data());
  return csa_.Search(hq.data(), count);
}

std::vector<util::Neighbor> LccsLsh::Query(const float* query, size_t k,
                                           size_t lambda) const {
  assert(store_ != nullptr);
  std::vector<util::Neighbor> result;
  QueryWindow(query, 1, k, lambda, /*num_threads=*/1, &result);
  return result;
}

std::vector<std::vector<util::Neighbor>> LccsLsh::QueryBatch(
    const float* queries, size_t num_queries, size_t k, size_t lambda,
    size_t num_threads) const {
  std::vector<std::vector<util::Neighbor>> results(num_queries);
  if (num_queries == 0) return results;
  assert(store_ != nullptr);
  // Every query's answer is independent of the window it runs in, so
  // splitting only bounds the window buffers (see kMaxRetainedScratchBytes).
  const size_t per_query =
      std::min(CandidateBudget(k, lambda), n_) * kScratchBytesPerCandidate;
  const size_t window =
      std::max<size_t>(1, kMaxRetainedScratchBytes / std::max<size_t>(
                                                          1, per_query));
  for (size_t begin = 0; begin < num_queries; begin += window) {
    QueryWindow(queries + begin * d_, std::min(window, num_queries - begin),
                k, lambda, num_threads, results.data() + begin);
  }
  return results;
}

void LccsLsh::QueryWindow(const float* queries, size_t num_queries, size_t k,
                          size_t lambda, size_t num_threads,
                          std::vector<util::Neighbor>* results) const {
  const size_t m = family_->num_functions();
  const size_t count = CandidateBudget(k, lambda);
  const uint8_t* deleted = deleted_rows();
  const ScratchLease<WindowBuffers> window;

  // Phase 1: hash the whole window in one ParallelFor pass.
  std::vector<HashValue>& hashes = window->hashes;
  hashes.resize(num_queries * m);
  util::ParallelFor(
      num_queries,
      [&](size_t begin, size_t end) {
        for (size_t q = begin; q < end; ++q) {
          family_->Hash(queries + q * d_, hashes.data() + q * m);
        }
      },
      num_threads);

  // Phase 2: candidate generation, one scratch per chunk. Each query's list
  // keeps its search's surfacing order — the order phases 3 and 6 offer
  // candidates to TopK in, so tie-breaking never depends on the window.
  std::vector<std::vector<LccsCandidate>>& cands = window->cands;
  if (cands.size() < num_queries) cands.resize(num_queries);
  util::ParallelFor(
      num_queries,
      [&](size_t begin, size_t end) {
        const std::unique_ptr<QueryScratch> scratch = MakeScratch();
        for (size_t q = begin; q < end; ++q) {
          cands[q].clear();
          cands[q].reserve(std::min<size_t>(count, n_));
          AppendCandidates(queries + q * d_, hashes.data() + q * m, count,
                           scratch.get(), &cands[q]);
        }
      },
      num_threads);

  // Phase 3: the exact stage every query can run alone. A query whose
  // candidates the int8 pass pruned reranks its k' survivors through
  // storage::ExactRerank: a copy gather on stores that prefer one (a
  // budgeted mmap store, whose mapping and residency clock it leaves
  // untouched), in place elsewhere. A window of one query verifies its
  // candidates in place, tombstones filtered. Only the unpruned queries of
  // a larger window are left for the shared gather of phases 4-6, which
  // pays off only when the window has rows to share.
  std::vector<uint8_t>& gather = window->gather;
  gather.assign(num_queries, 0);
  util::ParallelFor(
      num_queries,
      [&](size_t begin, size_t end) {
        const ScratchLease<PruneBuffers> prune;
        for (size_t q = begin; q < end; ++q) {
          const float* query = queries + q * d_;
          const bool pruned =
              QuantizedPrune(*store_, metric_, query, cands[q], deleted, k,
                             &prune->pruned, &prune->live, &prune->scores);
          if (!pruned && num_queries > 1) {
            gather[q] = 1;
            continue;
          }
          util::TopK topk(k);
          if (pruned) {
            storage::ExactRerank(*store_, metric_, query,
                                 prune->pruned.data(), prune->pruned.size(),
                                 topk);
          } else {
            std::vector<int32_t>& ids = prune->live;
            ids.clear();
            for (const LccsCandidate& c : cands[q]) ids.push_back(c.id);
            store_->PrefetchRows(ids.data(), ids.size());
            util::VerifyCandidates(metric_, store_->data(), d_, query,
                                   ids.data(), ids.size(), topk,
                                   /*first_id=*/0, deleted);
          }
          results[q] = topk.Sorted();
          cands[q].clear();  // answered: adds nothing to the shared gather
        }
      },
      num_threads);
  if (std::find(gather.begin(), gather.end(), 1) == gather.end()) return;

  // Phase 4: dedup the union of live candidate ids across the window and
  // advise the store once — an mmap-resident base set faults each candidate
  // page once per window instead of once per query. Each query's live
  // candidates are then counting-sorted into cache-block-major order
  // (block = id / rows_per_block over the id space): O(candidates) per
  // query, and phase 5 reads each (query, block) run straight from the
  // precomputed offsets instead of binary-searching a sorted id list.
  const size_t row_bytes = d_ * sizeof(float) > 0 ? d_ * sizeof(float) : 1;
  const size_t rows_per_block =
      std::max<size_t>(size_t{1}, (size_t{256} << 10) / row_bytes);
  const size_t num_blocks = (n_ + rows_per_block - 1) / rows_per_block;
  std::vector<size_t>& offsets = window->offsets;
  offsets.assign(num_queries + 1, 0);
  for (size_t q = 0; q < num_queries; ++q) {
    offsets[q + 1] = offsets[q] + cands[q].size();
  }
  const size_t total = offsets[num_queries];
  // in_union is all zeros between windows: only the union's entries are
  // set below, and they are reset once the union is taken.
  std::vector<uint8_t>& in_union = window->in_union;
  if (in_union.size() < n_) in_union.resize(n_, 0);
  std::vector<int32_t>& union_ids = window->union_ids;
  union_ids.clear();
  // Per query, block-major ids, and the original slot of each.
  std::vector<int32_t>& blocked_ids = window->blocked_ids;
  std::vector<int32_t>& blocked_slots = window->blocked_slots;
  std::vector<double>& dists = window->dists;
  blocked_ids.resize(total);
  blocked_slots.resize(total);
  dists.resize(total);
  // block_off row q: after the place pass, query q's block b run sits at
  // [b == 0 ? 0 : row[b-1], row[b]) within the query's region; row
  // [num_blocks] stays the query's live-candidate count.
  std::vector<int32_t>& block_off = window->block_off;
  block_off.assign((num_blocks + 1) * num_queries, 0);
  for (size_t q = 0; q < num_queries; ++q) {
    const std::vector<LccsCandidate>& list = cands[q];
    int32_t* boff = block_off.data() + q * (num_blocks + 1);
    for (size_t s = 0; s < list.size(); ++s) {
      const int32_t id = list[s].id;
      if (deleted != nullptr && deleted[id] != 0) continue;
      ++boff[static_cast<size_t>(id) / rows_per_block + 1];
      if (!in_union[static_cast<size_t>(id)]) {
        in_union[static_cast<size_t>(id)] = 1;
        union_ids.push_back(id);
      }
    }
    for (size_t b = 1; b <= num_blocks; ++b) boff[b] += boff[b - 1];
    for (size_t s = 0; s < list.size(); ++s) {
      const int32_t id = list[s].id;
      if (deleted != nullptr && deleted[id] != 0) continue;
      const size_t b = static_cast<size_t>(id) / rows_per_block;
      const size_t pos = static_cast<size_t>(boff[b]++);
      blocked_ids[offsets[q] + pos] = id;
      blocked_slots[offsets[q] + pos] = static_cast<int32_t>(s);
    }
  }
  for (const int32_t id : union_ids) in_union[static_cast<size_t>(id)] = 0;
  std::sort(union_ids.begin(), union_ids.end());
  store_->PrefetchRows(union_ids.data(), union_ids.size());

  // Phase 5: blocked verification gather. Rows are scored block-by-block so
  // a row shared by several queries in the window is pulled into cache once
  // and reused; distances land at the candidate's original slot. The SIMD
  // kernels are bit-identical regardless of row grouping, so this changes
  // evaluation order only, never values.
  util::ParallelFor(
      num_blocks,
      [&](size_t begin, size_t end) {
        for (size_t b = begin; b < end; ++b) {
          for (size_t q = 0; q < num_queries; ++q) {
            const int32_t* boff = block_off.data() + q * (num_blocks + 1);
            const size_t s = b == 0 ? 0 : static_cast<size_t>(boff[b - 1]);
            const size_t e = static_cast<size_t>(boff[b]);
            if (s == e) continue;
            util::DistanceScatter(metric_, store_->data(), d_,
                                  queries + q * d_,
                                  blocked_ids.data() + offsets[q] + s,
                                  blocked_slots.data() + offsets[q] + s,
                                  e - s, dists.data() + offsets[q]);
          }
        }
      },
      num_threads);

  // Phase 6: replay each gathered query's TopK pushes in the original
  // candidate order, skipping tombstoned rows — exactly the push sequence
  // VerifyCandidates produces for the same query in a window of one.
  util::ParallelFor(
      num_queries,
      [&](size_t begin, size_t end) {
        for (size_t q = begin; q < end; ++q) {
          if (!gather[q]) continue;
          util::TopK topk(k);
          const std::vector<LccsCandidate>& list = cands[q];
          for (size_t s = 0; s < list.size(); ++s) {
            const int32_t id = list[s].id;
            if (deleted != nullptr && deleted[id] != 0) continue;
            topk.Push(id, dists[offsets[q] + s]);
          }
          results[q] = topk.Sorted();
        }
      },
      num_threads);
}

}  // namespace core
}  // namespace lccs
