#ifndef LCCS_STORAGE_QUANTIZED_STORE_H_
#define LCCS_STORAGE_QUANTIZED_STORE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "storage/vector_store.h"
#include "util/metric.h"
#include "util/topk.h"

namespace lccs {
namespace storage {

/// Per-dimension scalar-quantized (int8) sibling of a VectorStore — the
/// in-RAM candidate-scoring tier of the two-phase verification pipeline.
///
/// Each float row x is stored as uint8 codes c_j = round((x_j - min_j) /
/// scale_j) with a per-dimension codebook {min_j, scale_j} trained over the
/// whole store, plus one float per row carrying the metric-specific
/// reconstruction term. A query is prepared once into int16 weights
/// (|w| <= 4095), after which scoring a candidate is a single integer dot
/// product (util::simd::DotCodesI8 — AVX2 madd_epi16 with a scalar
/// bit-identical fallback) folded into a float with per-query constants:
///
///   Euclidean: ||q - x̂||² = Σ(q_j - min_j)²            (per query)
///                          - 2 Σ (q_j - min_j) s_j c_j  (the dot product)
///                          + Σ (s_j c_j)²               (per row term)
///   Angular:   q · x̂      = Σ q_j min_j + s_w Σ ŵ_j c_j (dot), combined
///              with the per-row ||x̂||² term into arccos form.
///
/// Codes live on the heap (1 byte/dim + 4 bytes/row) regardless of where
/// the float rows live, so an mmap-backed index can score its whole
/// candidate list without touching disk and fault in only the top
/// k' = RerankKeep(k) exact rows for the final rerank
/// (bench/disk_store's `quantized` mode). Scores are approximate; the tier
/// never decides final ranks, only which candidates reach the exact pass.
///
/// Immutable after construction and safe for concurrent readers.
class QuantizedStore {
 public:
  /// Per-dimension affine codebook. scale is (max - min) / 255 per
  /// dimension, clamped away from zero for degenerate (constant) dims.
  struct Codebook {
    std::vector<float> mins;
    std::vector<float> scales;
  };

  /// Hard dimension cap: the AVX2 kernel accumulates madd_epi16 pairs in
  /// int32 lanes, exact up to 2 * 255 * 4095 * (8192 / 16) < 2^31.
  static constexpr size_t kMaxDim = 8192;

  /// Quantized scoring approximates magnitudes, which only the dense
  /// metrics tolerate; Hamming/Jaccard read exact bits and gain nothing.
  static bool SupportsMetric(util::Metric metric) {
    return metric == util::Metric::kEuclidean ||
           metric == util::Metric::kAngular;
  }

  /// Scans the store once for per-dimension min/max. Throws on d > kMaxDim.
  static Codebook TrainCodebook(const VectorStore& store);

  /// Encodes every row of `store` under `codebook` (parallel sweep). The
  /// store is only read during construction; the QuantizedStore owns all
  /// its bytes afterwards.
  QuantizedStore(const VectorStore& store, util::Metric metric,
                 Codebook codebook);

  /// TrainCodebook + construct. Returns nullptr for empty stores,
  /// unsupported metrics, or d > kMaxDim — callers treat "no quantized
  /// tier" and "tier not applicable" identically.
  static std::shared_ptr<const QuantizedStore> Build(const VectorStore& store,
                                                     util::Metric metric);

  /// Query-side constants computed once per query, shared across every
  /// candidate scored against it.
  struct PreparedQuery {
    std::vector<int16_t> weights;  ///< quantized per-dim weights, |w|<=4095
    float wscale = 0.0f;           ///< multiplier applied to the int sum
    float bias = 0.0f;             ///< per-query additive term
    float qnorm2 = 0.0f;           ///< ||q||² (Angular only)
    util::Metric metric = util::Metric::kEuclidean;
  };

  PreparedQuery Prepare(const float* query) const;

  /// Encodes one float row into `codes` (cols() bytes) and its per-row
  /// reconstruction term — the primitive DynamicIndex's delta buffer uses
  /// to keep freshly inserted rows scorable under the epoch codebook.
  /// Deterministic (double arithmetic + lround), so re-encoding a row after
  /// deserialization reproduces the bytes exactly.
  void EncodeRow(const float* row, uint8_t* codes, float* term) const;

  /// Scores `n` candidates against a prepared query into out[i] —
  /// approximate distances, ordered like the exact metric. `ids` are
  /// caller-local row numbers; `row_offset` translates them into this
  /// store's rows (the value VectorStore::Quantized reported). ids ==
  /// nullptr means the contiguous rows row_offset .. row_offset + n - 1.
  void ScoreCandidates(const PreparedQuery& q, const int32_t* ids, size_t n,
                       size_t row_offset, float* out) const;

  /// Scores one external code row (e.g. a delta-buffer row encoded with
  /// EncodeRow) that does not live in this store.
  float ScoreCodes(const PreparedQuery& q, const uint8_t* codes,
                   float term) const;

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  util::Metric metric() const { return metric_; }
  const Codebook& codebook() const { return codebook_; }
  const uint8_t* Codes(size_t row) const { return codes_.data() + row * cols_; }
  float term(size_t row) const { return terms_[row]; }

  /// Heap bytes owned: codes + per-row terms + codebook.
  size_t SizeBytes() const {
    return codes_.size() + terms_.size() * sizeof(float) +
           2 * codebook_.mins.size() * sizeof(float);
  }

  /// Dequantized coordinate x̂_ij, for the reconstruction-error tests.
  float ReconstructAt(size_t i, size_t j) const {
    return codebook_.mins[j] + codebook_.scales[j] * Codes(i)[j];
  }

  /// Persists the codebook (not the codes: they are re-encoded from the
  /// float store at load time, deterministically). Format: magic
  /// "LCCSQNT1", metric u32, cols u64, mins, scales, FNV-1a checksum.
  void SerializeCodebook(std::ostream& out) const;

  /// Validates magic, metric, cols (against `expected_cols`), value
  /// finiteness, and the checksum — all bounds checked before any
  /// allocation, so corrupt input raises std::runtime_error, never
  /// std::bad_alloc.
  static Codebook DeserializeCodebook(std::istream& in, size_t expected_cols);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  util::Metric metric_;
  Codebook codebook_;
  std::vector<uint8_t> codes_;  ///< rows x cols, row-major
  std::vector<float> terms_;    ///< per-row metric term (see class comment)
};

/// --- Serving policy --------------------------------------------------------
///
/// Int8 scoring is on exactly when a store carries codes for the query's
/// metric (EnsureQuantized, or DynamicIndex::Options::quantize); there is no
/// process-wide switch.

/// Candidates the quantized pass keeps for the exact pass: k' = 2k.
size_t RerankKeep(size_t k);

/// Builds and attaches a quantized sibling to `store` if none is attached
/// yet (first-wins under the store's lock). Returns the attached sibling,
/// or nullptr when the store/metric cannot be quantized. This is the opt-in
/// point: stores never quantize themselves.
const QuantizedStore* EnsureQuantized(
    const std::shared_ptr<const VectorStore>& store, util::Metric metric);

/// The exact second pass of two-phase verification: true distances for the
/// pruned (ascending-id) candidate list, pushed into `topk` with their
/// store-local ids. Heap stores verify in place (one PrefetchRows +
/// VerifyCandidates over the base pointer); stores that prefer copy gathers
/// (a budget-governed MmapStore) have the rows copied into a per-thread
/// scratch first, so the rerank neither faults mapped pages nor advances
/// the residency drop clock. Results are bit-identical between the two
/// paths: same kernels, same candidate order, same tie-breaking.
void ExactRerank(const VectorStore& store, util::Metric metric,
                 const float* query, const int32_t* ids, size_t n,
                 util::TopK& topk);

/// The quantized sibling a query path should score against: `store`'s
/// attached sibling, provided it was built for `metric`. Sets `*row_offset`
/// as VectorStore::Quantized does.
const QuantizedStore* ActiveQuantized(const VectorStore* store,
                                      util::Metric metric,
                                      size_t* row_offset);

/// Bounded selector for the quantized pass: keeps the `keep` smallest
/// (score, id) pairs seen and hands them back ordered by ascending id —
/// the deterministic order the exact rerank then scores them in, so the
/// final TopK tie-breaking matches a hypothetical exact-only pass over the
/// same surviving set regardless of quantized score ties.
class RerankSelector {
 public:
  explicit RerankSelector(size_t keep) : keep_(keep) {}

  void Offer(float score, int32_t id) {
    if (heap_.size() < keep_) {
      heap_.emplace(score, id);
    } else if (score < heap_.top().first ||
               (score == heap_.top().first && id < heap_.top().second)) {
      heap_.pop();
      heap_.emplace(score, id);
    }
  }

  /// Drains the selector. The (score, id) max-heap comparison makes the
  /// surviving set deterministic under score ties (larger ids evicted
  /// first), independent of offer order for distinct ids.
  std::vector<int32_t> TakeAscendingIds();

 private:
  size_t keep_;
  std::priority_queue<std::pair<float, int32_t>> heap_;
};

}  // namespace storage
}  // namespace lccs

#endif  // LCCS_STORAGE_QUANTIZED_STORE_H_
