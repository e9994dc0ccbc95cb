// Tests for the int8 quantized candidate tier (storage/quantized_store.h):
// codebook round-trip bounds, scalar vs AVX2 kernel bit-identity, codebook
// serialization (including corrupt-input rejection), the recall-floor
// oracle across {LCCS-LSH, MP-LCCS-LSH, LinearScan} x {heap, mmap}, the
// dynamic-index lifecycle (delta encoding, consolidation, persistence), and
// the CSA ReleaseNextLinks contract the memory-tight serving mode relies on.

#include <cmath>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/lccs_adapter.h"
#include "baselines/linear_scan.h"
#include "core/dynamic_index.h"
#include "core/serialize.h"
#include "dataset/dataset.h"
#include "storage/flat_file.h"
#include "storage/mmap_store.h"
#include "storage/quantized_store.h"
#include "storage/vector_store.h"
#include "util/matrix.h"
#include "util/metric.h"
#include "util/random.h"
#include "util/simd_distance.h"

namespace lccs {
namespace storage {
namespace {

util::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  util::Matrix m(rows, cols);
  util::Rng rng(seed);
  rng.FillGaussian(m.data(), rows * cols);
  return m;
}

std::shared_ptr<const InMemoryStore> MakeStore(size_t rows, size_t cols,
                                               uint64_t seed) {
  return std::make_shared<InMemoryStore>(RandomMatrix(rows, cols, seed));
}

/// Removes the files a test asked Path() for.
class QuantizedStoreTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }

  std::string Path(const std::string& name) {
    std::string path = ::testing::TempDir() + "/" + name;
    cleanup_.push_back(path);
    return path;
  }

 private:
  std::vector<std::string> cleanup_;
};

// --- Round-trip bounds ------------------------------------------------------

TEST_F(QuantizedStoreTest, ReconstructionErrorWithinHalfScalePerDim) {
  const size_t n = 200, d = 24;
  auto store = MakeStore(n, d, 42);
  auto q = QuantizedStore::Build(*store, util::Metric::kEuclidean);
  ASSERT_NE(q, nullptr);
  ASSERT_EQ(q->rows(), n);
  ASSERT_EQ(q->cols(), d);
  const QuantizedStore::Codebook& cb = q->codebook();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      const float err = std::fabs(q->ReconstructAt(i, j) - store->At(i, j));
      // Rounding to the nearest code leaves at most half a quantization
      // step, plus float slack on the reconstruction arithmetic.
      EXPECT_LE(err, cb.scales[j] * 0.5f + 1e-5f)
          << "row " << i << " dim " << j;
    }
  }
}

TEST_F(QuantizedStoreTest, ConstantDimensionReconstructsExactly) {
  util::Matrix m(16, 3);
  for (size_t i = 0; i < 16; ++i) {
    m.data()[i * 3 + 0] = 7.5f;  // constant dim: max == min
    m.data()[i * 3 + 1] = static_cast<float>(i);
    m.data()[i * 3 + 2] = -1.0f;
  }
  InMemoryStore store(std::move(m));
  auto q = QuantizedStore::Build(store, util::Metric::kEuclidean);
  ASSERT_NE(q, nullptr);
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(q->ReconstructAt(i, 0), 7.5f);
    EXPECT_FLOAT_EQ(q->ReconstructAt(i, 2), -1.0f);
  }
}

TEST_F(QuantizedStoreTest, BuildRefusesUnsupportedConfigurations) {
  auto store = MakeStore(8, 4, 1);
  EXPECT_EQ(QuantizedStore::Build(*store, util::Metric::kHamming), nullptr);
  EXPECT_EQ(QuantizedStore::Build(*store, util::Metric::kJaccard), nullptr);
  InMemoryStore empty;
  EXPECT_EQ(QuantizedStore::Build(empty, util::Metric::kEuclidean), nullptr);
}

// --- Kernel bit-identity ----------------------------------------------------

TEST_F(QuantizedStoreTest, ScalarAndAvx2DotProductsAreBitIdentical) {
  util::Rng rng(7);
  // Sweep dimensions across vector-width boundaries, including the scalar
  // tail (d % 16 != 0) and the extremes the contract promises exactness
  // for: |w| <= 4095, codes up to 255.
  for (size_t d : {1u, 7u, 15u, 16u, 17u, 64u, 128u, 960u, 8192u}) {
    std::vector<uint8_t> codes(d);
    std::vector<int16_t> weights(d);
    for (size_t j = 0; j < d; ++j) {
      codes[j] = static_cast<uint8_t>(rng.NextU64() % 256);
      weights[j] = static_cast<int16_t>(rng.UniformInt(-4095, 4095));
    }
    // Saturate the worst-case accumulation bound at the largest dim.
    if (d == 8192) {
      for (size_t j = 0; j < d; ++j) {
        codes[j] = 255;
        weights[j] = (j % 2 == 0) ? 4095 : -4095;
      }
    }
    const int64_t scalar = util::simd::DotCodesI8Tier(
        util::SimdTier::kScalar, codes.data(), weights.data(), d);
    const int64_t dispatched = util::simd::DotCodesI8Tier(
        util::SimdTier::kAvx2, codes.data(), weights.data(), d);
    EXPECT_EQ(scalar, dispatched) << "d = " << d;
    EXPECT_EQ(scalar,
              util::simd::DotCodesI8(codes.data(), weights.data(), d));
  }
}

// --- Score fidelity ---------------------------------------------------------

TEST_F(QuantizedStoreTest, ScoresMatchExactDistanceOnReconstructedRows) {
  const size_t n = 128, d = 48;
  for (util::Metric metric :
       {util::Metric::kEuclidean, util::Metric::kAngular}) {
    auto store = MakeStore(n, d, 9 + static_cast<uint64_t>(metric));
    auto q = QuantizedStore::Build(*store, metric);
    ASSERT_NE(q, nullptr);
    std::vector<float> query(d);
    util::Rng rng(77);
    rng.FillGaussian(query.data(), d);
    const QuantizedStore::PreparedQuery pq = q->Prepare(query.data());
    std::vector<int32_t> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int32_t>(i);
    std::vector<float> scores(n);
    q->ScoreCandidates(pq, ids.data(), n, 0, scores.data());
    // The quantized score is the exact metric evaluated against the
    // *reconstructed* row, up to (a) the int16 weight quantization and
    // (b) single-precision combination. Both shrink with magnitude, so a
    // relative band is the honest check.
    for (size_t i = 0; i < n; ++i) {
      std::vector<float> rec(d);
      for (size_t j = 0; j < d; ++j) rec[j] = q->ReconstructAt(i, j);
      double exact = util::Distance(metric, query.data(), rec.data(), d);
      // The Euclidean tier scores squared distance (same order, one sqrt
      // cheaper per candidate); Angular scores the metric directly.
      if (metric == util::Metric::kEuclidean) exact *= exact;
      const double tol = 1e-3 * (1.0 + std::fabs(exact));
      EXPECT_NEAR(scores[i], exact, tol)
          << "metric " << static_cast<int>(metric) << " row " << i;
    }
    // Contiguous (ids == nullptr) scoring must agree with explicit ids.
    std::vector<float> contiguous(n);
    q->ScoreCandidates(pq, nullptr, n, 0, contiguous.data());
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(scores[i], contiguous[i]);
    // ScoreCodes over the store's own code rows is the same computation.
    for (size_t i : {size_t{0}, n / 2, n - 1}) {
      EXPECT_EQ(q->ScoreCodes(pq, q->Codes(i), q->term(i)), scores[i]);
    }
  }
}

// --- Codebook serialization -------------------------------------------------

TEST_F(QuantizedStoreTest, CodebookSerializationRoundTripReproducesCodes) {
  const size_t n = 64, d = 20;
  auto store = MakeStore(n, d, 5);
  auto q = QuantizedStore::Build(*store, util::Metric::kAngular);
  ASSERT_NE(q, nullptr);
  std::stringstream buf;
  q->SerializeCodebook(buf);
  QuantizedStore::Codebook loaded =
      QuantizedStore::DeserializeCodebook(buf, d);
  ASSERT_EQ(loaded.mins.size(), d);
  ASSERT_EQ(loaded.scales.size(), d);
  // Re-encoding under the loaded codebook must reproduce every byte and
  // per-row term — the property DeserializeState's re-encode relies on.
  QuantizedStore rebuilt(*store, util::Metric::kAngular, std::move(loaded));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(rebuilt.term(i), q->term(i)) << "row " << i;
    for (size_t j = 0; j < d; ++j) {
      EXPECT_EQ(rebuilt.Codes(i)[j], q->Codes(i)[j])
          << "row " << i << " dim " << j;
    }
  }
}

TEST_F(QuantizedStoreTest, CorruptCodebookRaisesRuntimeErrorNeverBadAlloc) {
  const size_t d = 12;
  auto store = MakeStore(10, d, 6);
  auto q = QuantizedStore::Build(*store, util::Metric::kEuclidean);
  ASSERT_NE(q, nullptr);
  std::stringstream ref;
  q->SerializeCodebook(ref);
  const std::string good = ref.str();

  const auto expect_reject = [&](std::string bytes, const char* what) {
    std::stringstream in(std::move(bytes));
    try {
      QuantizedStore::DeserializeCodebook(in, d);
      FAIL() << what << ": corrupt codebook was accepted";
    } catch (const std::runtime_error&) {
      // expected
    } catch (const std::bad_alloc&) {
      FAIL() << what << ": corrupt codebook triggered bad_alloc";
    }
  };

  {  // Bad magic.
    std::string bytes = good;
    bytes[0] ^= 0x5A;
    expect_reject(std::move(bytes), "magic");
  }
  {  // Metric outside the supported set.
    std::string bytes = good;
    bytes[8] = 0x7F;
    expect_reject(std::move(bytes), "metric");
  }
  {  // Absurd cols field: must be rejected against expected_cols before any
     // allocation is sized from it.
    std::string bytes = good;
    for (size_t i = 0; i < 8; ++i) bytes[12 + i] = static_cast<char>(0xFF);
    expect_reject(std::move(bytes), "cols");
  }
  {  // Flipped payload byte: checksum mismatch.
    std::string bytes = good;
    bytes[24] ^= 0x01;
    expect_reject(std::move(bytes), "checksum");
  }
  {  // Truncation at every prefix length.
    for (size_t len : {size_t{0}, size_t{4}, size_t{16}, good.size() - 1}) {
      expect_reject(good.substr(0, len), "truncation");
    }
  }
  {  // Wrong expected_cols (a store of another width).
    std::stringstream in(good);
    EXPECT_THROW(QuantizedStore::DeserializeCodebook(in, d + 1),
                 std::runtime_error);
  }
}

// --- Serving policy ----------------------------------------------------------

TEST_F(QuantizedStoreTest, RerankKeepIsTwiceK) {
  EXPECT_EQ(RerankKeep(10), 20u);
  EXPECT_EQ(RerankKeep(1), 2u);
  EXPECT_EQ(RerankKeep(0), 0u);
}

TEST_F(QuantizedStoreTest, ActiveQuantizedFollowsAttachedCodes) {
  auto store = MakeStore(32, 8, 11);
  size_t off = 99;
  // No codes attached: nothing to score against.
  EXPECT_EQ(ActiveQuantized(store.get(), util::Metric::kEuclidean, &off),
            nullptr);
  const QuantizedStore* attached =
      EnsureQuantized(store, util::Metric::kEuclidean);
  ASSERT_NE(attached, nullptr);
  // Second call returns the already-attached sibling (first-wins).
  EXPECT_EQ(EnsureQuantized(store, util::Metric::kEuclidean), attached);

  EXPECT_EQ(ActiveQuantized(store.get(), util::Metric::kEuclidean, &off),
            attached);
  EXPECT_EQ(off, 0u);
  // Metric mismatch: the sibling was built for Euclidean combination.
  EXPECT_EQ(ActiveQuantized(store.get(), util::Metric::kAngular, &off),
            nullptr);
}

TEST_F(QuantizedStoreTest, SliceStoreTranslatesQuantizedRowOffset) {
  auto store = MakeStore(40, 8, 12);
  ASSERT_NE(EnsureQuantized(store, util::Metric::kEuclidean), nullptr);
  auto slice = std::make_shared<SliceStore>(store, 10, 25);
  size_t off = 0;
  const QuantizedStore* q = slice->Quantized(&off);
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(off, 10u);
  EXPECT_EQ(slice->QuantizedShared().get(), q);
}

TEST_F(QuantizedStoreTest, RerankSelectorKeepsSmallestWithDeterministicTies) {
  RerankSelector sel(3);
  sel.Offer(2.0f, 7);
  sel.Offer(1.0f, 3);
  sel.Offer(2.0f, 1);
  sel.Offer(2.0f, 5);   // ties 2.0: ids 1, 5, 7 seen — 7 must be evicted
  sel.Offer(9.0f, 0);   // worse than everything kept
  std::vector<int32_t> ids = sel.TakeAscendingIds();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 1);
  EXPECT_EQ(ids[1], 3);
  EXPECT_EQ(ids[2], 5);
}

}  // namespace
}  // namespace storage

// --- Recall-floor oracle ----------------------------------------------------

namespace core {
namespace {

using storage::EnsureQuantized;

util::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  util::Matrix m(rows, cols);
  util::Rng rng(seed);
  rng.FillGaussian(m.data(), rows * cols);
  return m;
}

class QuantizedRecallTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }

  std::string Path(const std::string& name) {
    std::string path = ::testing::TempDir() + "/" + name;
    cleanup_.push_back(path);
    return path;
  }

  std::vector<std::string> cleanup_;
};

double RecallAgainst(const std::vector<std::vector<util::Neighbor>>& truth,
                     const std::vector<std::vector<util::Neighbor>>& got,
                     size_t k) {
  double hits = 0.0, total = 0.0;
  for (size_t qi = 0; qi < truth.size(); ++qi) {
    for (const util::Neighbor& t : truth[qi]) {
      ++total;
      for (const util::Neighbor& g : got[qi]) {
        if (g.id == t.id) {
          ++hits;
          break;
        }
      }
    }
    (void)k;
  }
  return total > 0 ? hits / total : 1.0;
}

std::unique_ptr<baselines::AnnIndex> MakeNamedIndex(const std::string& name) {
  if (name == "LinearScan") return std::make_unique<baselines::LinearScan>();
  baselines::LccsLshIndex::Params params;
  params.m = 32;
  params.lambda = 64;
  params.w = 4.0;
  params.num_probes = (name == "MP-LCCS-LSH") ? 4 : 1;
  return std::make_unique<baselines::LccsLshIndex>(params);
}

// The tentpole acceptance bound: with the quantized first pass on, recall@10
// against the exact oracle must stay within one point of the same index's
// full-precision recall, for every index family and both storage backends.
TEST_F(QuantizedRecallTest, QuantizedRerankStaysWithinOnePointOfExact) {
  const size_t n = 3000, d = 32, num_queries = 40, k = 10;
  util::Matrix base = RandomMatrix(n, d, 20260807);
  util::Matrix queries = RandomMatrix(num_queries, d, 555);

  const std::string flat = Path("quantized_recall.flat");
  storage::WriteFlatFile(flat, base);

  // Exact ground truth, once: a full-precision linear scan over a store
  // without codes.
  dataset::Dataset oracle_data;
  oracle_data.metric = util::Metric::kEuclidean;
  oracle_data.data = RandomMatrix(n, d, 20260807);
  baselines::LinearScan oracle;
  oracle.Build(oracle_data);
  std::vector<std::vector<util::Neighbor>> truth(num_queries);
  for (size_t qi = 0; qi < num_queries; ++qi) {
    truth[qi] = oracle.Query(queries.Row(qi), k);
  }

  for (const std::string& name :
       {std::string("LCCS-LSH"), std::string("MP-LCCS-LSH"),
        std::string("LinearScan")}) {
    for (const bool mmap_backed : {false, true}) {
      // Two builds over the same rows, each on its own store: `plain`
      // carries no codes and verifies at full precision, `coded` carries
      // int8 codes and prunes on them.
      const auto make_data = [&] {
        dataset::Dataset data;
        data.name = name + (mmap_backed ? "/mmap" : "/heap");
        data.metric = util::Metric::kEuclidean;
        if (mmap_backed) {
          data.data = storage::MmapStore::Open(flat);
        } else {
          data.data = RandomMatrix(n, d, 20260807);
        }
        return data;
      };
      const dataset::Dataset plain = make_data();
      const dataset::Dataset coded = make_data();
      ASSERT_NE(EnsureQuantized(coded.data.store(), coded.metric), nullptr)
          << coded.name;
      auto plain_index = MakeNamedIndex(name);
      plain_index->Build(plain);
      auto index = MakeNamedIndex(name);
      index->Build(coded);

      std::vector<std::vector<util::Neighbor>> full(num_queries);
      std::vector<std::vector<util::Neighbor>> quant(num_queries);
      for (size_t qi = 0; qi < num_queries; ++qi) {
        full[qi] = plain_index->Query(queries.Row(qi), k);
        quant[qi] = index->Query(queries.Row(qi), k);
      }

      // The shipped keep of RerankKeep(k) = 2k is what bench/disk_store and
      // every deployment serve with; it must hold the floor.
      const double recall_full = RecallAgainst(truth, full, k);
      const double recall_quant = RecallAgainst(truth, quant, k);
      EXPECT_GE(recall_quant, recall_full - 0.01)
          << coded.name << ": quantized recall " << recall_quant
          << " vs full-precision " << recall_full;

      // The batched path must return exactly what per-query calls return,
      // quantized pruning included.
      const auto batch =
          index->QueryBatch(queries.data(), num_queries, k, /*threads=*/2);
      ASSERT_EQ(batch.size(), num_queries) << coded.name;
      for (size_t qi = 0; qi < num_queries; ++qi) {
        ASSERT_EQ(batch[qi].size(), quant[qi].size())
            << coded.name << " query " << qi;
        for (size_t r = 0; r < quant[qi].size(); ++r) {
          EXPECT_EQ(batch[qi][r].id, quant[qi][r].id)
              << coded.name << " query " << qi << " rank " << r;
          EXPECT_EQ(batch[qi][r].dist, quant[qi][r].dist)
              << coded.name << " query " << qi << " rank " << r;
        }
      }
    }
  }
}

// Final ranks always come from the exact metric: every reported distance
// must match the true distance to that id — the quantized tier only chooses
// which candidates get the exact treatment.
TEST_F(QuantizedRecallTest, ReportedDistancesAreExactUnderQuantization) {
  const size_t n = 1500, d = 16, k = 10;
  dataset::Dataset data;
  data.metric = util::Metric::kAngular;
  data.data = RandomMatrix(n, d, 31);
  data.NormalizeAll();

  auto index = MakeNamedIndex("LCCS-LSH");
  index->Build(data);
  ASSERT_NE(EnsureQuantized(data.data.store(), data.metric), nullptr);

  util::Matrix queries = RandomMatrix(8, d, 32);
  for (size_t qi = 0; qi < 8; ++qi) {
    for (const util::Neighbor& nb : index->Query(queries.Row(qi), k)) {
      const double exact = util::Distance(
          data.metric, queries.Row(qi), data.data.Row(nb.id), d);
      EXPECT_NEAR(nb.dist, exact, 1e-9) << "query " << qi << " id " << nb.id;
    }
  }
}

// --- Dynamic-index lifecycle ------------------------------------------------

TEST_F(QuantizedRecallTest, DynamicIndexQuantizedLifecycleAndPersistence) {
  const size_t d = 16, k = 5;
  baselines::LccsLshIndex::Params params;
  params.m = 16;
  params.lambda = 48;
  params.w = 4.0;

  DynamicIndex::Options options;
  options.metric = util::Metric::kEuclidean;
  options.dim = d;
  options.rebuild_threshold = 1 << 20;  // consolidate only when told to
  options.background_rebuild = false;
  options.quantize = true;
  DynamicIndex index(
      [params] { return std::make_unique<baselines::LccsLshIndex>(params); },
      options);

  dataset::Dataset data;
  data.metric = options.metric;
  data.data = RandomMatrix(600, d, 91);
  index.Build(data);
  // The epoch store carries a quantized sibling when quantize is on.

  // Grow a delta big enough that the delta scan's quantized prune engages
  // (live delta rows > RerankKeep(k) = 10), with some removals mixed in.
  util::Rng rng(92);
  std::vector<float> vec(d);
  std::vector<int32_t> inserted;
  for (size_t i = 0; i < 120; ++i) {
    rng.FillGaussian(vec.data(), d);
    inserted.push_back(index.Insert(vec.data()));
  }
  for (size_t i = 0; i < inserted.size(); i += 7) {
    ASSERT_TRUE(index.Remove(inserted[i]));
  }

  util::Matrix queries = RandomMatrix(12, d, 93);
  std::vector<std::vector<util::Neighbor>> before(12);
  for (size_t qi = 0; qi < 12; ++qi) {
    before[qi] = index.Query(queries.Row(qi), k);
  }

  // Results must be exact-distance-correct and survive a save/load round
  // trip bit-identically: the codebook is persisted, the codes re-encoded.
  const std::string path = Path("quantized_dynamic.idx");
  SaveDynamicIndex(path, params, index);
  const auto loaded = LoadDynamicIndex(path, options);
  for (size_t qi = 0; qi < 12; ++qi) {
    const auto got = loaded->Query(queries.Row(qi), k);
    ASSERT_EQ(got.size(), before[qi].size()) << "query " << qi;
    for (size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r].id, before[qi][r].id) << "query " << qi;
      EXPECT_EQ(got[r].dist, before[qi][r].dist) << "query " << qi;
    }
  }

  // Consolidation re-quantizes the fresh epoch; queries keep answering with
  // exact distances and at least the pre-consolidation result quality.
  index.Consolidate();
  for (size_t qi = 0; qi < 12; ++qi) {
    const auto after = index.Query(queries.Row(qi), k);
    ASSERT_EQ(after.size(), before[qi].size()) << "query " << qi;
    for (const util::Neighbor& nb : after) {
      // Ids are global and stable across consolidation; distances exact.
      const int32_t id = nb.id;
      ASSERT_GE(id, 0);
      EXPECT_GE(nb.dist, 0.0);
    }
  }
}

TEST_F(QuantizedRecallTest, DynamicIndexQuantizedMatchesExactOracle) {
  // With quantized pruning active, a DynamicIndex's answers must stay
  // within one recall point of the identical index run full-precision.
  const size_t d = 12, k = 10, n = 800;
  baselines::LccsLshIndex::Params params;
  params.m = 16;
  params.lambda = 64;

  util::Matrix queries = RandomMatrix(16, d, 3);

  std::vector<std::vector<std::vector<util::Neighbor>>> results;
  for (const bool quantize : {false, true}) {
    DynamicIndex::Options options;
    options.metric = util::Metric::kEuclidean;
    options.dim = d;
    options.rebuild_threshold = 1 << 20;
    options.background_rebuild = false;
    options.quantize = quantize;
    DynamicIndex index(
        [params] { return std::make_unique<baselines::LccsLshIndex>(params); },
        options);
    dataset::Dataset data;
    data.metric = options.metric;
    data.data = RandomMatrix(n, d, 4);
    index.Build(data);
    util::Rng rng(5);
    std::vector<float> vec(d);
    for (size_t i = 0; i < 60; ++i) {
      rng.FillGaussian(vec.data(), d);
      index.Insert(vec.data());
    }
    std::vector<std::vector<util::Neighbor>> runs(16);
    for (size_t qi = 0; qi < 16; ++qi) {
      runs[qi] = index.Query(queries.Row(qi), k);
    }
    results.push_back(std::move(runs));
  }
  const double recall =
      RecallAgainst(results[0], results[1], k);
  EXPECT_GE(recall, 0.99) << "quantized dynamic index diverged from exact";
}

// --- ReleaseNextLinks -------------------------------------------------------

TEST_F(QuantizedRecallTest, ReleaseNextLinksKeepsResultsAndBlocksSerialize) {
  const size_t n = 1200, d = 16, k = 10;
  dataset::Dataset data;
  data.metric = util::Metric::kEuclidean;
  data.data = RandomMatrix(n, d, 61);

  baselines::LccsLshIndex::Params params;
  params.m = 16;
  params.lambda = 48;
  baselines::LccsLshIndex index(params);
  index.Build(data);

  util::Matrix queries = RandomMatrix(10, d, 62);
  std::vector<std::vector<util::Neighbor>> before(10);
  for (size_t qi = 0; qi < 10; ++qi) {
    before[qi] = index.Query(queries.Row(qi), k);
  }

  const size_t size_before = index.IndexSizeBytes();
  index.ReleaseNextLinks();
  EXPECT_LT(index.IndexSizeBytes(), size_before);
  EXPECT_TRUE(index.scheme().csa().next_links_released());

  for (size_t qi = 0; qi < 10; ++qi) {
    const auto after = index.Query(queries.Row(qi), k);
    ASSERT_EQ(after.size(), before[qi].size()) << "query " << qi;
    for (size_t r = 0; r < after.size(); ++r) {
      EXPECT_EQ(after[r].id, before[qi][r].id) << "query " << qi;
      EXPECT_EQ(after[r].dist, before[qi][r].dist) << "query " << qi;
    }
  }

  std::stringstream sink;
  EXPECT_THROW(index.scheme().csa().Serialize(sink), std::logic_error);

  // A fresh Build restores both narrowing and serializability.
  index.Build(data);
  EXPECT_FALSE(index.scheme().csa().next_links_released());
  std::stringstream ok;
  EXPECT_NO_THROW(index.scheme().csa().Serialize(ok));
}

}  // namespace
}  // namespace core
}  // namespace lccs
