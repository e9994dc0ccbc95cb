#include "storage/quantized_store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "storage/flat_file.h"
#include "util/simd_distance.h"
#include "util/thread_pool.h"

namespace lccs {
namespace storage {

namespace {

constexpr char kCodebookMagic[8] = {'L', 'C', 'C', 'S', 'Q', 'N', 'T', '1'};

/// Largest quantized query weight magnitude — together with kMaxDim and the
/// uint8 codes this bounds the AVX2 int32 lane accumulation (see
/// util::simd::DotCodesI8).
constexpr double kMaxWeight = 4095.0;

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void ReadPod(std::istream& in, T* value, const char* what) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  if (!in) throw std::runtime_error(std::string("truncated ") + what);
}

/// Same combine as the exact angular kernels (simd_distance.cc): the
/// quantized score only ranks candidates, but using the identical form
/// keeps the approximation error purely the quantization error.
inline float CombineAngularF(double dot, double norm2_a, double norm2_b) {
  if (norm2_a <= 0.0 || norm2_b <= 0.0) return 0.0f;
  double cosine = dot / (std::sqrt(norm2_a) * std::sqrt(norm2_b));
  cosine = std::clamp(cosine, -1.0, 1.0);
  return static_cast<float>(std::acos(cosine));
}

inline float Combine(const QuantizedStore::PreparedQuery& q, int64_t isum,
                     float term) {
  if (q.metric == util::Metric::kAngular) {
    const double dot =
        static_cast<double>(q.bias) +
        static_cast<double>(q.wscale) * static_cast<double>(isum);
    return CombineAngularF(dot, term, q.qnorm2);
  }
  return q.bias + q.wscale * static_cast<float>(isum) + term;
}

}  // namespace

QuantizedStore::Codebook QuantizedStore::TrainCodebook(
    const VectorStore& store) {
  const size_t d = store.cols();
  if (d > kMaxDim) {
    throw std::runtime_error("QuantizedStore: dimension " + std::to_string(d) +
                             " exceeds kMaxDim " + std::to_string(kMaxDim));
  }
  Codebook cb;
  cb.mins.assign(d, 0.0f);
  cb.scales.assign(d, 1.0f);
  if (store.empty()) return cb;
  std::vector<float> maxs(d, 0.0f);
  const float* row0 = store.Row(0);
  for (size_t j = 0; j < d; ++j) {
    cb.mins[j] = row0[j];
    maxs[j] = row0[j];
  }
  ScanRows(store, 1, store.rows(), [&](size_t i) {
    const float* row = store.Row(i);
    for (size_t j = 0; j < d; ++j) {
      cb.mins[j] = std::min(cb.mins[j], row[j]);
      maxs[j] = std::max(maxs[j], row[j]);
    }
  });
  for (size_t j = 0; j < d; ++j) {
    const float scale = (maxs[j] - cb.mins[j]) / 255.0f;
    // Constant dimensions quantize to code 0 under any positive scale; 1.0
    // keeps every downstream division well-defined.
    cb.scales[j] = (std::isfinite(scale) && scale > 0.0f) ? scale : 1.0f;
  }
  return cb;
}

QuantizedStore::QuantizedStore(const VectorStore& store, util::Metric metric,
                               Codebook codebook)
    : rows_(store.rows()),
      cols_(store.cols()),
      metric_(metric),
      codebook_(std::move(codebook)) {
  if (!SupportsMetric(metric)) {
    throw std::runtime_error("QuantizedStore: unsupported metric " +
                             util::MetricName(metric));
  }
  if (cols_ > kMaxDim) {
    throw std::runtime_error("QuantizedStore: dimension exceeds kMaxDim");
  }
  if (codebook_.mins.size() != cols_ || codebook_.scales.size() != cols_) {
    throw std::runtime_error("QuantizedStore: codebook dimension mismatch");
  }
  codes_.resize(rows_ * cols_);
  terms_.resize(rows_);
  util::ParallelFor(rows_, [&](size_t begin, size_t end) {
    ScanRows(store, begin, end, [&](size_t i) {
      EncodeRow(store.Row(i), codes_.data() + i * cols_, &terms_[i]);
    });
  });
}

std::shared_ptr<const QuantizedStore> QuantizedStore::Build(
    const VectorStore& store, util::Metric metric) {
  if (store.empty() || !SupportsMetric(metric) || store.cols() > kMaxDim) {
    return nullptr;
  }
  return std::make_shared<const QuantizedStore>(store, metric,
                                                TrainCodebook(store));
}

void QuantizedStore::EncodeRow(const float* row, uint8_t* codes,
                               float* term) const {
  // Double arithmetic + lround keeps encoding deterministic across call
  // sites (bulk build, delta inserts, post-deserialization re-encode).
  double acc = 0.0;
  for (size_t j = 0; j < cols_; ++j) {
    const double s = static_cast<double>(codebook_.scales[j]);
    const double v =
        (static_cast<double>(row[j]) - static_cast<double>(codebook_.mins[j])) /
        s;
    const long code = std::lround(std::clamp(v, 0.0, 255.0));
    codes[j] = static_cast<uint8_t>(code);
    if (metric_ == util::Metric::kAngular) {
      // ||x̂||² for the angular combine.
      const double xj =
          static_cast<double>(codebook_.mins[j]) + s * static_cast<double>(code);
      acc += xj * xj;
    } else {
      // Σ (s_j c_j)² — the row-dependent term of the expanded ||q - x̂||².
      const double sc = s * static_cast<double>(code);
      acc += sc * sc;
    }
  }
  *term = static_cast<float>(acc);
}

QuantizedStore::PreparedQuery QuantizedStore::Prepare(
    const float* query) const {
  PreparedQuery q;
  q.metric = metric_;
  q.weights.resize(cols_);
  std::vector<double> w(cols_);
  double bias = 0.0;
  double qnorm2 = 0.0;
  double maxw = 0.0;
  for (size_t j = 0; j < cols_; ++j) {
    const double qj = static_cast<double>(query[j]);
    const double s = static_cast<double>(codebook_.scales[j]);
    const double m = static_cast<double>(codebook_.mins[j]);
    if (metric_ == util::Metric::kAngular) {
      // q · x̂ = Σ q_j min_j + Σ (q_j s_j) c_j
      w[j] = qj * s;
      bias += qj * m;
      qnorm2 += qj * qj;
    } else {
      // ||q - x̂||² = Σ(q_j - min_j)² - 2 Σ(q_j - min_j) s_j c_j + Σ(s_j c_j)²
      const double qm = qj - m;
      w[j] = qm * s;
      bias += qm * qm;
    }
    maxw = std::max(maxw, std::abs(w[j]));
  }
  const double sw = maxw > 0.0 ? maxw / kMaxWeight : 1.0;
  for (size_t j = 0; j < cols_; ++j) {
    const long ww = std::lround(w[j] / sw);
    q.weights[j] = static_cast<int16_t>(
        std::clamp(ww, -static_cast<long>(kMaxWeight),
                   static_cast<long>(kMaxWeight)));
  }
  if (metric_ == util::Metric::kAngular) {
    q.wscale = static_cast<float>(sw);
    q.bias = static_cast<float>(bias);
    q.qnorm2 = static_cast<float>(qnorm2);
  } else {
    q.wscale = static_cast<float>(-2.0 * sw);
    q.bias = static_cast<float>(bias);
  }
  return q;
}

void QuantizedStore::ScoreCandidates(const PreparedQuery& q,
                                     const int32_t* ids, size_t n,
                                     size_t row_offset, float* out) const {
  const int16_t* weights = q.weights.data();
  if (ids != nullptr) {
    // Gathered candidates land all over the code block (1 byte/dim keeps a
    // row to 1-2 cache lines, but a paper-scale block far exceeds LLC), and
    // each row costs another miss in terms_. The dot product is ~30ns — far
    // cheaper than a serialized DRAM miss — so the loop is software-
    // pipelined one block at a time: while block i is scored, block i+1's
    // code rows and terms are prefetched. Scoring a block takes long enough
    // to cover a full DRAM round-trip, and a block's worth of lines never
    // overruns the core's miss-handling queues the way prefetching the
    // whole candidate list up front would.
    constexpr size_t kBlock = 16;
    const auto prefetch_block = [&](size_t begin) {
      const size_t end = std::min(begin + kBlock, n);
      for (size_t i = begin; i < end; ++i) {
        const size_t row = row_offset + static_cast<size_t>(ids[i]);
        const uint8_t* codes = Codes(row);
        for (size_t off = 0; off < cols_; off += 64) {
          __builtin_prefetch(codes + off, 0, 1);
        }
        __builtin_prefetch(terms_.data() + row, 0, 1);
      }
    };
    prefetch_block(0);
    for (size_t base = 0; base < n; base += kBlock) {
      prefetch_block(base + kBlock);
      const size_t end = std::min(base + kBlock, n);
      for (size_t i = base; i < end; ++i) {
        const size_t row = row_offset + static_cast<size_t>(ids[i]);
        const int64_t isum =
            util::simd::DotCodesI8(Codes(row), weights, cols_);
        out[i] = Combine(q, isum, terms_[row]);
      }
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t row = row_offset + i;
    const int64_t isum =
        util::simd::DotCodesI8(Codes(row), weights, cols_);
    out[i] = Combine(q, isum, terms_[row]);
  }
}

float QuantizedStore::ScoreCodes(const PreparedQuery& q, const uint8_t* codes,
                                 float term) const {
  const int64_t isum = util::simd::DotCodesI8(codes, q.weights.data(), cols_);
  return Combine(q, isum, term);
}

void QuantizedStore::SerializeCodebook(std::ostream& out) const {
  out.write(kCodebookMagic, sizeof(kCodebookMagic));
  const uint32_t metric = static_cast<uint32_t>(metric_);
  const uint64_t cols = cols_;
  WritePod(out, metric);
  WritePod(out, cols);
  out.write(reinterpret_cast<const char*>(codebook_.mins.data()),
            cols_ * sizeof(float));
  out.write(reinterpret_cast<const char*>(codebook_.scales.data()),
            cols_ * sizeof(float));
  FnvChecksum checksum;
  checksum.Update(&metric, sizeof(metric));
  checksum.Update(&cols, sizeof(cols));
  checksum.Update(codebook_.mins.data(), cols_ * sizeof(float));
  checksum.Update(codebook_.scales.data(), cols_ * sizeof(float));
  const uint64_t digest = checksum.Digest();
  WritePod(out, digest);
}

QuantizedStore::Codebook QuantizedStore::DeserializeCodebook(
    std::istream& in, size_t expected_cols) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kCodebookMagic, sizeof(magic)) != 0) {
    throw std::runtime_error("quantized codebook: bad magic");
  }
  uint32_t metric = 0;
  uint64_t cols = 0;
  ReadPod(in, &metric, "quantized codebook metric");
  ReadPod(in, &cols, "quantized codebook cols");
  if (metric != static_cast<uint32_t>(util::Metric::kEuclidean) &&
      metric != static_cast<uint32_t>(util::Metric::kAngular)) {
    throw std::runtime_error("quantized codebook: unsupported metric tag " +
                             std::to_string(metric));
  }
  // cols is validated against the caller's store *before* the allocation,
  // so a corrupt header can never drive the resize (no bad_alloc path).
  if (cols != expected_cols || cols > kMaxDim) {
    throw std::runtime_error("quantized codebook: dimension " +
                             std::to_string(cols) + " does not match store (" +
                             std::to_string(expected_cols) + ")");
  }
  Codebook cb;
  cb.mins.resize(cols);
  cb.scales.resize(cols);
  in.read(reinterpret_cast<char*>(cb.mins.data()), cols * sizeof(float));
  in.read(reinterpret_cast<char*>(cb.scales.data()), cols * sizeof(float));
  if (!in) throw std::runtime_error("truncated quantized codebook");
  uint64_t stored_digest = 0;
  ReadPod(in, &stored_digest, "quantized codebook checksum");
  FnvChecksum checksum;
  checksum.Update(&metric, sizeof(metric));
  checksum.Update(&cols, sizeof(cols));
  checksum.Update(cb.mins.data(), cols * sizeof(float));
  checksum.Update(cb.scales.data(), cols * sizeof(float));
  if (checksum.Digest() != stored_digest) {
    throw std::runtime_error("quantized codebook: checksum mismatch");
  }
  for (size_t j = 0; j < cols; ++j) {
    if (!std::isfinite(cb.mins[j]) || !std::isfinite(cb.scales[j]) ||
        cb.scales[j] <= 0.0f) {
      throw std::runtime_error(
          "quantized codebook: non-finite or non-positive entry at dim " +
          std::to_string(j));
    }
  }
  return cb;
}

// --- Serving policy ----------------------------------------------------------

// Keep factor k' = 2k. At paper scale (1e6 Gaussian rows, d=128, λ=128) the
// int8 prune's top-2k contains the exact top-k every time even at 1.5k; 2k
// buys slack for harder data while keeping the rerank's exact-row reads
// (the dominant serve-time overhead of the quantized tier) at 2k per query.
size_t RerankKeep(size_t k) { return 2 * k; }

const QuantizedStore* EnsureQuantized(
    const std::shared_ptr<const VectorStore>& store, util::Metric metric) {
  if (store == nullptr || store->empty() ||
      !QuantizedStore::SupportsMetric(metric) ||
      store->cols() > QuantizedStore::kMaxDim) {
    return nullptr;
  }
  size_t offset = 0;
  if (const QuantizedStore* existing = store->Quantized(&offset)) {
    return existing;
  }
  std::shared_ptr<const QuantizedStore> built =
      QuantizedStore::Build(*store, metric);
  if (built == nullptr) return nullptr;
  // First-wins: a racing EnsureQuantized may have attached in the meantime;
  // AttachQuantized returns whichever sibling actually stuck.
  return store->AttachQuantized(std::move(built));
}

const QuantizedStore* ActiveQuantized(const VectorStore* store,
                                      util::Metric metric,
                                      size_t* row_offset) {
  if (store == nullptr) return nullptr;
  const QuantizedStore* q = store->Quantized(row_offset);
  if (q == nullptr || q->metric() != metric || q->cols() != store->cols()) {
    return nullptr;
  }
  return q;
}

void ExactRerank(const VectorStore& store, util::Metric metric,
                 const float* query, const int32_t* ids, size_t n,
                 util::TopK& topk) {
  if (n == 0) return;
  if (!store.PrefersCopyGather()) {
    store.PrefetchRows(ids, n);
    util::VerifyCandidates(metric, store.data(), store.cols(), query, ids, n,
                           topk);
    return;
  }
  // Copy path: gather the pruned rows into a reusable scratch block, verify
  // them there under scratch-local ids, and remap the survivors. Pruned ids
  // arrive ascending, so scratch order equals id order and tie-breaking is
  // unchanged.
  const size_t d = store.cols();
  thread_local std::vector<float> scratch;
  scratch.resize(n * d);
  store.ReadRowsInto(ids, n, scratch.data());
  util::TopK local(topk.k());
  util::VerifyCandidates(metric, scratch.data(), d, query, nullptr, n, local,
                         /*first_id=*/0);
  for (const util::Neighbor& nb : local.Sorted()) {
    topk.Push(ids[nb.id], nb.dist);
  }
}

std::vector<int32_t> RerankSelector::TakeAscendingIds() {
  std::vector<int32_t> ids;
  ids.reserve(heap_.size());
  while (!heap_.empty()) {
    ids.push_back(heap_.top().second);
    heap_.pop();
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace storage
}  // namespace lccs
