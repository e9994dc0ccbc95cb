#ifndef LCCS_CORE_LCCS_LSH_H_
#define LCCS_CORE_LCCS_LSH_H_

#include <memory>
#include <vector>

#include "core/csa.h"
#include "lsh/hash_family.h"
#include "storage/vector_store.h"
#include "util/metric.h"
#include "util/topk.h"

namespace lccs {
namespace core {

/// Single-probe LCCS-LSH (Section 4.1).
///
/// Indexing phase: draw m i.i.d. LSH functions from the injected family,
/// convert every data object o into the hash string
/// H(o) = [h_1(o), ..., h_m(o)], and build a Circular Shift Array over the n
/// hash strings.
///
/// Query phase: compute H(q), run a (λ + k - 1)-LCCS search on the CSA, and
/// verify the returned candidates with the true distance metric, keeping the
/// best k.
///
/// The scheme is LSH-family-independent: any HashFamily works, which is how
/// the same class serves Euclidean (random projection), Angular
/// (cross-polytope / hyperplane) and Hamming (bit sampling) queries.
class LccsLsh {
 public:
  /// Takes ownership of the hash family (which fixes m = family->
  /// num_functions()); `metric` is used only for candidate verification.
  LccsLsh(std::unique_ptr<lsh::HashFamily> family, util::Metric metric);

  /// Builds the index over a shared vector store (heap, borrowed, or
  /// memory-mapped — see storage/vector_store.h). The store is retained,
  /// never copied: hashing reads rows through it and verification runs off
  /// its contiguous base pointer. store->cols() must equal family->dim().
  void Build(std::shared_ptr<const storage::VectorStore> store);

  /// Raw-pointer convenience over `n` row-major `d`-dimensional vectors.
  /// The data is *referenced* (a non-owning BorrowedStore), not copied — it
  /// must outlive the index. `d` must equal family->dim().
  void Build(const float* data, size_t n, size_t d);

  /// c-k-ANNS query: verifies (λ + k - 1) candidates from the k-LCCS search
  /// of H(q) — plus one extra per tombstoned row when a deleted filter is
  /// installed, so heavy deletion can never starve the answer below k while
  /// live rows exist — and returns the k nearest by true distance
  /// (ascending). A query is a QueryBatch window of one, run on the calling
  /// thread; MpLccsLsh inherits it with its multi-probe PrepareSearch.
  std::vector<util::Neighbor> Query(const float* query, size_t k,
                                    size_t lambda) const;

  /// Answers `num_queries` queries stored row-major and contiguously
  /// (dim() floats each); row q's answer does not depend on the other rows.
  /// The window is processed in shared passes — one ParallelFor hashing
  /// sweep, per-thread reusable search scratch for the CSA walks — and then
  /// one exact-stage rule decides how candidates meet the exact rows:
  ///   - a query whose candidates the store's int8 codes pruned reranks its
  ///     k' = storage::RerankKeep(k) survivors alone through
  ///     storage::ExactRerank (a copy gather on PrefersCopyGather stores);
  ///   - a window of one query verifies its candidates alone, in place;
  ///   - the unpruned queries of a larger window share one deduplicated
  ///     PrefetchRows + cache-blocked verification gather over the union of
  ///     their candidate rows, scattering distances back into each query's
  ///     TopK in its original candidate order (so tie-breaking, and
  ///     therefore results, match the window of one).
  /// The window buffers are reused across calls; a batch too large for
  /// their fixed byte budget runs as consecutive windows that fit it.
  std::vector<std::vector<util::Neighbor>> QueryBatch(const float* queries,
                                                      size_t num_queries,
                                                      size_t k, size_t lambda,
                                                      size_t num_threads = 0)
      const;

  /// Raw LCCS candidates of H(q) without distance verification (exposes the
  /// k-LCCS search itself; used by tests and diagnostics). Deliberately
  /// non-virtual: `mp.LccsLsh::Candidates(...)` must keep meaning the
  /// single-probe Algorithm 2 search even on a multi-probe object.
  std::vector<LccsCandidate> Candidates(const float* query,
                                        size_t count) const;

  size_t n() const { return n_; }
  size_t dim() const { return d_; }
  size_t m() const { return family_->num_functions(); }
  util::Metric metric() const { return metric_; }
  const lsh::HashFamily& family() const { return *family_; }
  const CircularShiftArray& csa() const { return csa_; }

  /// Index memory: CSA arrays plus the family's parameters.
  size_t SizeBytes() const { return csa_.SizeBytes() + family_->SizeBytes(); }

  /// Ablation switch forwarded to the CSA (see
  /// CircularShiftArray::set_use_narrowing).
  void set_use_narrowing(bool enabled) { csa_.set_use_narrowing(enabled); }

  /// Frees the CSA's next-link arrays (one third of the index) at the cost
  /// of full-range binary searches per shift; results are unchanged. See
  /// CircularShiftArray::ReleaseNextLinks for the serialization caveat.
  void ReleaseNextLinks() { csa_.ReleaseNextLinks(); }

  /// Binds a previously serialized CSA instead of hashing + rebuilding
  /// (see core/serialize.h). The CSA must have been built over exactly this
  /// data with this index's family; n/m consistency is checked.
  void AttachPrebuilt(std::shared_ptr<const storage::VectorStore> store,
                      CircularShiftArray csa);
  void AttachPrebuilt(const float* data, size_t n, size_t d,
                      CircularShiftArray csa);

  /// Tombstone bitmap over the n() rows (borrowed; nullptr clears). Rows
  /// marked deleted still live in the CSA — rebuilding it per deletion would
  /// defeat the point — but are dropped during candidate verification, so
  /// they can never appear in a Query result. core::DynamicIndex flips bits
  /// here instead of rebuilding until the next consolidation epoch.
  ///
  /// The set bits are counted here, once, and every query over-fetches that
  /// many extra candidates (the k + removed rule of the snapshot layer):
  /// a caller that flips bits after installation must re-install the filter
  /// to refresh the count, or risk verified sets thinning below k again.
  void set_deleted_filter(const std::vector<uint8_t>* deleted);

  // The user-declared (virtual) destructor would otherwise suppress moves,
  // and tests build indexes in by-value helper functions.
  LccsLsh(LccsLsh&&) = default;
  LccsLsh& operator=(LccsLsh&&) = default;
  virtual ~LccsLsh() = default;

 protected:
  /// Reusable per-thread candidate-generation workspace. MakeScratch is
  /// virtual so MpLccsLsh can extend it with probe buffers; one scratch
  /// serves consecutive queries without reallocating, and must never be
  /// shared across threads.
  struct QueryScratch {
    CircularShiftArray::SearchScratch csa;
    /// Probe strings feeding the heap, set by PrepareSearch (one entry —
    /// the unperturbed hash — for the base scheme). Must stay valid until
    /// the collect phase finishes.
    std::vector<const HashValue*> probe_ptrs;
    virtual ~QueryScratch() = default;
  };
  virtual std::unique_ptr<QueryScratch> MakeScratch() const;

  /// Everything of the candidate search up to (not including) the heap pop
  /// loop: begins the scratch, runs the bound cascade (plus, in MpLccsLsh,
  /// the perturbed probes of Section 4.2), and records the probe string
  /// pointers in scratch->probe_ptrs. Splitting here lets QueryBatch prepare
  /// several queries and drain their heaps interleaved
  /// (CollectFromHeapInterleaved) while AppendCandidates drains one solo —
  /// both run the identical per-query pop iteration.
  virtual void PrepareSearch(const float* query, const HashValue* hash,
                             QueryScratch* scratch) const;

  /// Appends up to `count` LCCS candidates of the query (whose hash string
  /// `hash` is already computed) to `out`, in the order the query's search
  /// surfaces them: PrepareSearch followed by a solo CollectFromHeap
  /// (MpLccsLsh::Candidates' path; QueryBatch drains the same iteration
  /// interleaved).
  void AppendCandidates(const float* query, const HashValue* hash,
                        size_t count, QueryScratch* scratch,
                        std::vector<LccsCandidate>* out) const;

  /// Candidates fetched per query: λ + k - 1 of the paper plus the count of
  /// tombstoned rows, so post-filtering can drop every deleted candidate and
  /// still leave λ + k - 1 live ones.
  size_t CandidateBudget(size_t k, size_t lambda) const {
    return lambda + (k > 0 ? k - 1 : 0) + deleted_count_;
  }

  /// QueryBatch's body for one window of queries (Query's, with one query):
  /// answers rows [0, num_queries) of `queries` into
  /// results[0, num_queries).
  void QueryWindow(const float* queries, size_t num_queries, size_t k,
                   size_t lambda, size_t num_threads,
                   std::vector<util::Neighbor>* results) const;
  /// Raw tombstone bitmap for verification call sites (nullptr = no filter).
  const uint8_t* deleted_rows() const {
    return deleted_ != nullptr ? deleted_->data() : nullptr;
  }

  std::unique_ptr<lsh::HashFamily> family_;
  util::Metric metric_;
  std::shared_ptr<const storage::VectorStore> store_;  ///< base vectors
  size_t n_ = 0;
  size_t d_ = 0;
  CircularShiftArray csa_;
  const std::vector<uint8_t>* deleted_ = nullptr;  // not owned
  size_t deleted_count_ = 0;  ///< set bits in *deleted_ at install time
};

}  // namespace core
}  // namespace lccs

#endif  // LCCS_CORE_LCCS_LSH_H_
