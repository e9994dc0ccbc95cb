// QueryBatch must be a pure throughput optimization: for every AnnIndex
// implementation and every thread count, the batched answers are required to
// be bit-identical (ids and distances) to calling Query per row.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/c2lsh.h"
#include "baselines/lccs_adapter.h"
#include "baselines/linear_scan.h"
#include "baselines/lsh_forest.h"
#include "baselines/qalsh.h"
#include "baselines/srs.h"
#include "baselines/static_lsh.h"
#include "core/dynamic_index.h"
#include "dataset/synthetic.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "storage/flat_file.h"
#include "storage/mmap_store.h"
#include "storage/quantized_store.h"
#include "util/random.h"

namespace lccs {
namespace baselines {
namespace {

dataset::Dataset SmallClusters(util::Metric metric, uint64_t seed = 121) {
  dataset::SyntheticConfig config;
  config.n = 800;
  config.num_queries = 23;  // deliberately not a multiple of any batch size
  config.dim = 16;
  config.num_clusters = 6;
  config.center_scale = 20.0;
  config.cluster_stddev = 0.6;
  config.noise_fraction = 0.0;
  config.metric = metric;
  config.normalize = metric == util::Metric::kAngular;
  config.seed = seed;
  return dataset::GenerateClustered(config);
}

/// Builds every AnnIndex implementation in the repository on `data`.
std::vector<std::unique_ptr<AnnIndex>> AllIndexes(
    const dataset::Dataset& data) {
  std::vector<std::unique_ptr<AnnIndex>> indexes;

  indexes.push_back(std::make_unique<LinearScan>());

  {
    StaticLsh::Params params;
    params.k_funcs = 4;
    params.num_tables = 8;
    params.w = 8.0;
    indexes.push_back(std::make_unique<StaticLsh>(
        "E2LSH", lsh::FamilyKind::kRandomProjection, params));
  }
  {
    StaticLsh::Params params;
    params.k_funcs = 6;
    params.num_tables = 4;
    params.num_probes = 8;
    params.w = 4.0;
    indexes.push_back(std::make_unique<StaticLsh>(
        "Multi-Probe LSH", lsh::FamilyKind::kRandomProjection, params));
  }
  {
    C2Lsh::Params params;
    params.num_functions = 32;
    params.w = 2.0;
    params.extra_candidates = 50;
    indexes.push_back(std::make_unique<C2Lsh>(params));
  }
  {
    QaLsh::Params params;
    params.num_functions = 32;
    params.w = 1.0;
    indexes.push_back(std::make_unique<QaLsh>(params));
  }
  {
    Srs::Params params;
    params.projected_dim = 6;
    params.candidate_fraction = 0.2;
    indexes.push_back(std::make_unique<Srs>(params));
  }
  {
    LshForest::Params params;
    params.num_trees = 4;
    params.depth = 12;
    params.candidates = 60;
    indexes.push_back(
        std::make_unique<LshForest>(lsh::FamilyKind::kRandomProjection,
                                    params));
  }
  {
    LccsLshIndex::Params params;
    params.m = 32;
    params.lambda = 80;
    params.w = 8.0;
    indexes.push_back(std::make_unique<LccsLshIndex>(params));  // LCCS-LSH
  }
  {
    LccsLshIndex::Params params;
    params.m = 32;
    params.lambda = 80;
    params.w = 8.0;
    params.num_probes = 8;
    indexes.push_back(
        std::make_unique<LccsLshIndex>(params));  // MP-LCCS-LSH
  }
  {
    // Dynamic wrapper mid-epoch (delta + tombstones populated below): its
    // QueryBatch merges a static batch with per-query delta scans and must
    // obey the same identity contract as everything else.
    core::DynamicIndex::Options options;
    options.rebuild_threshold = size_t{1} << 30;
    options.background_rebuild = false;
    LccsLshIndex::Params params;
    params.m = 32;
    params.lambda = 80;
    params.w = 8.0;
    indexes.push_back(std::make_unique<core::DynamicIndex>(
        [params] { return std::make_unique<LccsLshIndex>(params); },
        options));
  }

  for (auto& index : indexes) index->Build(data);

  {
    auto& dynamic = *indexes.back();
    util::Rng rng(5150);
    std::vector<float> vec(data.dim());
    for (int i = 0; i < 50; ++i) {
      rng.FillGaussian(vec.data(), vec.size());
      dynamic.Insert(vec.data());
    }
    for (int32_t id = 0; id < 40; id += 2) dynamic.Remove(id);
  }
  return indexes;
}

TEST(QueryBatchTest, IdenticalToSequentialAtEveryThreadCount) {
  const auto data = SmallClusters(util::Metric::kEuclidean);
  const auto indexes = AllIndexes(data);
  const size_t k = 10;
  for (const auto& index : indexes) {
    std::vector<std::vector<util::Neighbor>> expected;
    for (size_t q = 0; q < data.num_queries(); ++q) {
      expected.push_back(index->Query(data.queries.Row(q), k));
    }
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{5}}) {
      const auto batched =
          index->QueryBatch(data.queries.Row(0), data.num_queries(), k,
                            threads);
      ASSERT_EQ(batched.size(), expected.size()) << index->name();
      for (size_t q = 0; q < expected.size(); ++q) {
        EXPECT_EQ(batched[q], expected[q])
            << index->name() << " query " << q << " threads " << threads;
      }
    }
  }
}

TEST(QueryBatchTest, DefaultThreadCountMatchesToo) {
  const auto data = SmallClusters(util::Metric::kEuclidean, 122);
  const auto indexes = AllIndexes(data);
  for (const auto& index : indexes) {
    const auto batched =
        index->QueryBatch(data.queries.Row(0), data.num_queries(), 5);
    for (size_t q = 0; q < data.num_queries(); ++q) {
      EXPECT_EQ(batched[q], index->Query(data.queries.Row(q), 5))
          << index->name() << " query " << q;
    }
  }
}

TEST(QueryBatchTest, DimMatchesDataset) {
  const auto data = SmallClusters(util::Metric::kEuclidean, 123);
  const auto indexes = AllIndexes(data);
  for (const auto& index : indexes) {
    EXPECT_EQ(index->dim(), data.dim()) << index->name();
  }
}

TEST(QueryBatchTest, EmptyAndSingletonBatches) {
  const auto data = SmallClusters(util::Metric::kEuclidean, 124);
  LinearScan scan;
  scan.Build(data);
  EXPECT_TRUE(scan.QueryBatch(data.queries.Row(0), 0, 5).empty());
  const auto one = scan.QueryBatch(data.queries.Row(3), 1, 5, 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], scan.Query(data.queries.Row(3), 5));
}

// The storage refactor's contract: which store backs the base vectors is
// invisible in results. The same dataset served from a memory-mapped flat
// file must produce bit-identical answers (ids and distances) to the heap
// run, for every index config in the matrix, sequential and batched — the
// mmap-backed leg of the identity matrix.
TEST(QueryBatchTest, MmapBackedStoreIsBitIdentical) {
  const auto data = SmallClusters(util::Metric::kEuclidean, 126);
  const std::string flat_path =
      ::testing::TempDir() + "/batch_query_base.flat";
  storage::WriteFlatFile(flat_path, *data.data.store());

  dataset::Dataset mapped;
  mapped.name = data.name + "-mmap";
  mapped.metric = data.metric;
  storage::MmapStore::Options open_options;
  open_options.residency_budget_bytes = 1 << 16;  // exercise the clock too
  mapped.data = storage::MmapStore::Open(flat_path, open_options);
  mapped.queries = data.queries;  // shared, read-only

  const auto heap_indexes = AllIndexes(data);
  const auto mmap_indexes = AllIndexes(mapped);
  ASSERT_EQ(heap_indexes.size(), mmap_indexes.size());
  const size_t k = 10;
  for (size_t i = 0; i < heap_indexes.size(); ++i) {
    for (size_t q = 0; q < data.num_queries(); ++q) {
      EXPECT_EQ(heap_indexes[i]->Query(data.queries.Row(q), k),
                mmap_indexes[i]->Query(data.queries.Row(q), k))
          << heap_indexes[i]->name() << " query " << q;
    }
    const auto heap_batch = heap_indexes[i]->QueryBatch(
        data.queries.Row(0), data.num_queries(), k, 3);
    const auto mmap_batch = mmap_indexes[i]->QueryBatch(
        data.queries.Row(0), data.num_queries(), k, 3);
    EXPECT_EQ(heap_batch, mmap_batch) << heap_indexes[i]->name();
  }
  std::remove(flat_path.c_str());
}

TEST(QueryBatchTest, AngularMetricSupported) {
  const auto data = SmallClusters(util::Metric::kAngular, 125);
  LccsLshIndex::Params params;
  params.m = 32;
  params.lambda = 80;
  LccsLshIndex index(params);
  index.Build(data);
  const auto batched =
      index.QueryBatch(data.queries.Row(0), data.num_queries(), 10, 3);
  for (size_t q = 0; q < data.num_queries(); ++q) {
    EXPECT_EQ(batched[q], index.Query(data.queries.Row(q), 10))
        << "query " << q;
  }
}

// ---------------------------------------------------------------------------
// Core-level identity matrix for the cross-query batch engine:
// {LCCS-LSH, MP-LCCS-LSH} × {probes 1, 8} × {heap, mmap store} ×
// {with, without deleted filter}. The adapter tests above exercise the
// default parameters; this drives core::LccsLsh::QueryBatch directly so a
// regression in any leg (scratch reuse, union dedup, scatter verification,
// tombstone handling) is pinned to its exact configuration.
TEST(QueryBatchTest, CoreSchemesBitIdenticalAcrossMatrix) {
  const auto data = SmallClusters(util::Metric::kEuclidean, 127);
  const std::string flat_path =
      ::testing::TempDir() + "/batch_query_core_matrix.flat";
  storage::WriteFlatFile(flat_path, *data.data.store());
  storage::MmapStore::Options open_options;
  open_options.residency_budget_bytes = 1 << 16;
  const std::shared_ptr<const storage::VectorStore> mmap_store =
      storage::MmapStore::Open(flat_path, open_options);

  std::vector<uint8_t> deleted(data.n(), 0);
  for (size_t i = 0; i < deleted.size(); i += 3) deleted[i] = 1;

  const size_t k = 10;
  const size_t lambda = 80;
  for (const size_t probes : {size_t{1}, size_t{8}}) {
    for (const bool use_mmap : {false, true}) {
      for (const bool use_filter : {false, true}) {
        const std::shared_ptr<const storage::VectorStore> store =
            use_mmap ? mmap_store : data.data.store();
        auto make_family = [&] {
          return lsh::MakeFamily(lsh::FamilyKind::kRandomProjection,
                                 data.dim(), 32, 8.0, 2024);
        };
        std::vector<std::unique_ptr<core::LccsLsh>> schemes;
        if (probes == 1) {
          // The single-probe class itself is only meaningful at 1 probe.
          schemes.push_back(std::make_unique<core::LccsLsh>(
              make_family(), data.metric));
        }
        core::ProbeParams pp;
        pp.num_probes = probes;
        schemes.push_back(std::make_unique<core::MpLccsLsh>(
            make_family(), data.metric, pp));

        for (const auto& scheme : schemes) {
          scheme->Build(store);
          if (use_filter) scheme->set_deleted_filter(&deleted);
          const std::string leg =
              std::string("probes=") + std::to_string(probes) +
              (use_mmap ? " mmap" : " heap") +
              (use_filter ? " filtered" : " unfiltered");
          std::vector<std::vector<util::Neighbor>> expected;
          for (size_t q = 0; q < data.num_queries(); ++q) {
            expected.push_back(
                scheme->Query(data.queries.Row(q), k, lambda));
            if (use_filter) {
              for (const util::Neighbor& nb : expected.back()) {
                ASSERT_EQ(deleted[nb.id], 0)
                    << leg << ": tombstoned id in sequential result";
              }
            }
          }
          for (const size_t threads : {size_t{1}, size_t{3}}) {
            const auto batched = scheme->QueryBatch(
                data.queries.Row(0), data.num_queries(), k, lambda, threads);
            ASSERT_EQ(batched.size(), expected.size()) << leg;
            for (size_t q = 0; q < expected.size(); ++q) {
              EXPECT_EQ(batched[q], expected[q])
                  << leg << " query " << q << " threads " << threads;
            }
          }
        }
      }
    }
  }
  std::remove(flat_path.c_str());
}

// A batch whose window buffers would outgrow LccsLsh's scratch budget runs
// as several consecutive windows (600 queries × 800 candidates here is
// about 11 MB against a 4 MB budget); every row must still match its solo
// Query.
TEST(QueryBatchTest, BulkBatchRunAsSeveralWindowsIsBitIdentical) {
  const auto data = SmallClusters(util::Metric::kEuclidean, 131);
  core::LccsLsh scheme(lsh::MakeFamily(lsh::FamilyKind::kRandomProjection,
                                       data.dim(), 32, 8.0, 2024),
                       data.metric);
  scheme.Build(data.data.store());
  std::vector<uint8_t> deleted(data.n(), 0);
  for (size_t i = 0; i < deleted.size(); i += 7) deleted[i] = 1;
  scheme.set_deleted_filter(&deleted);

  constexpr size_t kBulk = 600;
  util::Rng rng(7);
  std::vector<float> queries(kBulk * data.dim());
  rng.FillGaussian(queries.data(), queries.size());
  for (size_t q = 0; q < kBulk; ++q) {
    const float* row = data.data.Row((q * 37) % data.n());
    for (size_t j = 0; j < data.dim(); ++j) {
      queries[q * data.dim() + j] += row[j];
    }
  }
  const size_t k = 10;
  const size_t lambda = 800;
  for (const size_t threads : {size_t{1}, size_t{3}}) {
    const auto batched =
        scheme.QueryBatch(queries.data(), kBulk, k, lambda, threads);
    ASSERT_EQ(batched.size(), kBulk);
    for (size_t q = 0; q < kBulk; ++q) {
      EXPECT_EQ(batched[q],
                scheme.Query(queries.data() + q * data.dim(), k, lambda))
          << "query " << q << " threads " << threads;
    }
  }
}

// Seeded shrinking property: the union-dedup gather must never drop a
// candidate any member query would have verified alone. A dropped candidate
// that belonged in a query's top k would make that query's batched answer
// diverge from its solo answer, so the property reduces to per-member
// identity over random batches — and on failure the harness shrinks to a
// minimal set of queries that still reproduces, naming them.
TEST(QueryBatchTest, SeededShrinkingDedupNeverDropsCandidates) {
  const size_t k = 8;
  const size_t lambda = 40;
  for (const uint64_t seed : {uint64_t{501}, uint64_t{502}, uint64_t{503}}) {
    dataset::SyntheticConfig config;
    config.n = 200;
    config.num_queries = 16;
    config.dim = 8;
    config.num_clusters = 4;
    config.center_scale = 10.0;
    config.cluster_stddev = 1.5;  // loose clusters: many distance ties less
    config.metric = util::Metric::kEuclidean;
    config.seed = seed;
    const auto data = dataset::GenerateClustered(config);

    core::ProbeParams pp;
    pp.num_probes = 4;
    core::MpLccsLsh scheme(
        lsh::MakeFamily(lsh::FamilyKind::kRandomProjection, data.dim(), 16,
                        4.0, seed),
        data.metric, pp);
    scheme.Build(data.data.store());
    std::vector<uint8_t> deleted(data.n(), 0);
    for (size_t i = 0; i < deleted.size(); i += 5) deleted[i] = 1;
    scheme.set_deleted_filter(&deleted);

    // Mismatch predicate over a subset of query indices.
    const auto mismatches = [&](const std::vector<size_t>& subset) {
      std::vector<float> packed(subset.size() * data.dim());
      for (size_t i = 0; i < subset.size(); ++i) {
        const float* row = data.queries.Row(subset[i]);
        std::copy(row, row + data.dim(), packed.data() + i * data.dim());
      }
      const auto batched =
          scheme.QueryBatch(packed.data(), subset.size(), k, lambda, 2);
      for (size_t i = 0; i < subset.size(); ++i) {
        if (batched[i] !=
            scheme.Query(data.queries.Row(subset[i]), k, lambda)) {
          return true;
        }
      }
      return false;
    };

    std::vector<size_t> subset(data.num_queries());
    for (size_t i = 0; i < subset.size(); ++i) subset[i] = i;
    if (!mismatches(subset)) continue;  // property holds for this seed

    // Greedy shrink: drop queries while the mismatch still reproduces.
    bool shrunk = true;
    while (shrunk && subset.size() > 1) {
      shrunk = false;
      for (size_t i = 0; i < subset.size(); ++i) {
        std::vector<size_t> candidate = subset;
        candidate.erase(candidate.begin() + i);
        if (mismatches(candidate)) {
          subset = std::move(candidate);
          shrunk = true;
          break;
        }
      }
    }
    std::ostringstream msg;
    for (const size_t q : subset) msg << q << " ";
    FAIL() << "seed " << seed
           << ": batch diverges from solo queries; minimal query set: "
           << msg.str();
  }
}

// ---------------------------------------------------------------------------
// The exact stage on a store that prefers copy gathers (a budgeted mmap store
// in production): heap rows behind a store that counts how the exact stage
// reads them, and that can fail its reads on demand.

/// Heap copy of `rows` that reports PrefersCopyGather() and counts the rows
/// copied through ReadRowsInto and the in-place row advisories
/// (PrefetchRows, NoteGather). While `fail_reads` is set, ReadRowsInto
/// throws std::runtime_error, as a failed pread would.
class CopyGatherStore : public storage::VectorStore {
 public:
  explicit CopyGatherStore(const storage::VectorStore& rows)
      : rows_(rows.data(), rows.data() + rows.rows() * rows.cols()) {
    SetView(rows_.data(), rows.rows(), rows.cols());
  }

  void PrefetchRows(const int32_t* ids, size_t n) const override {
    ++prefetch_calls;
    VectorStore::PrefetchRows(ids, n);
  }
  void NoteGather(size_t n) const override {
    (void)n;
    ++gather_notes;
  }
  bool PrefersCopyGather() const override { return true; }
  void ReadRowsInto(const int32_t* ids, size_t n, float* out) const override {
    if (fail_reads) {
      throw std::runtime_error("CopyGatherStore: rerank read failed");
    }
    rows_read += n;
    VectorStore::ReadRowsInto(ids, n, out);
  }
  std::string DebugName() const override { return "CopyGatherStore"; }

  void ResetCounters() const {
    rows_read = 0;
    prefetch_calls = 0;
    gather_notes = 0;
  }

  mutable std::atomic<size_t> rows_read{0};
  mutable std::atomic<size_t> prefetch_calls{0};
  mutable std::atomic<size_t> gather_notes{0};
  std::atomic<bool> fail_reads{false};

 private:
  std::vector<float> rows_;
};

util::Matrix CopyOf(const storage::VectorStore& rows) {
  util::Matrix copy(rows.rows(), rows.cols());
  std::copy(rows.data(), rows.data() + rows.rows() * rows.cols(),
            copy.data());
  return copy;
}

/// A quantized single-probe scheme over `store` (codes attached first).
std::unique_ptr<core::LccsLsh> QuantizedScheme(
    const std::shared_ptr<const storage::VectorStore>& store,
    const dataset::Dataset& data) {
  EXPECT_NE(storage::EnsureQuantized(store, data.metric), nullptr);
  auto scheme = std::make_unique<core::LccsLsh>(
      lsh::MakeFamily(lsh::FamilyKind::kRandomProjection, data.dim(), 32, 8.0,
                      2024),
      data.metric);
  scheme->Build(store);
  return scheme;
}

// A pruned query's k' survivors are copied out through ReadRowsInto, one
// read of exactly RerankKeep(k) rows per query, and never advised or read
// in place — in a window of one and in a window of 16 alike. Answers equal
// the same quantized index over plain heap rows, which reranks in place.
TEST(QueryBatchTest, PrunedRerankCopyGathersOnCopyGatherStores) {
  const auto data = SmallClusters(util::Metric::kEuclidean, 132);
  const auto copy_store = std::make_shared<CopyGatherStore>(*data.data.store());
  const auto heap_store =
      std::make_shared<storage::InMemoryStore>(CopyOf(*data.data.store()));
  const auto copy_scheme = QuantizedScheme(copy_store, data);
  const auto heap_scheme = QuantizedScheme(heap_store, data);

  const size_t k = 10;
  const size_t lambda = 64;  // 73 candidates per query > RerankKeep(10)
  for (const size_t window : {size_t{1}, size_t{16}}) {
    copy_store->ResetCounters();
    const auto got = copy_scheme->QueryBatch(data.queries.Row(0), window, k,
                                             lambda, /*num_threads=*/3);
    EXPECT_EQ(copy_store->rows_read, window * storage::RerankKeep(k))
        << "window " << window;
    EXPECT_EQ(copy_store->prefetch_calls, 0u) << "window " << window;
    EXPECT_EQ(copy_store->gather_notes, 0u) << "window " << window;
    const auto want = heap_scheme->QueryBatch(data.queries.Row(0), window, k,
                                              lambda, /*num_threads=*/3);
    EXPECT_EQ(got, want) << "window " << window;
  }
}

// A rerank read that fails surfaces as an exception, never as an answer
// missing the rows it could not read — from the scheme itself, and from a
// serving window, whose futures all carry the error; the next window serves
// normally.
TEST(QueryBatchTest, FailedRerankReadIsAnErrorNotAWrongAnswer) {
  const auto data = SmallClusters(util::Metric::kEuclidean, 133);
  const auto copy_store = std::make_shared<CopyGatherStore>(*data.data.store());
  const auto scheme = QuantizedScheme(copy_store, data);
  const size_t k = 10;
  const size_t lambda = 64;
  copy_store->fail_reads = true;
  EXPECT_THROW(scheme->QueryBatch(data.queries.Row(0), 1, k, lambda),
               std::runtime_error);
  EXPECT_THROW(scheme->QueryBatch(data.queries.Row(0), 8, k, lambda, 2),
               std::runtime_error);
  copy_store->fail_reads = false;

  // The same rows served through a sharded index with codes, once over the
  // failing store and once over plain heap rows as the reference.
  const core::DynamicIndex::Factory factory = [] {
    LccsLshIndex::Params params;
    params.m = 32;
    params.lambda = 64;
    params.w = 8.0;
    return std::make_unique<LccsLshIndex>(params);
  };
  serve::ShardedIndex::Options index_options;
  index_options.num_shards = 2;
  index_options.quantize = true;
  index_options.shard_background_rebuild = false;
  dataset::Dataset served = data;
  served.data = copy_store;
  serve::ShardedIndex index(factory, index_options);
  index.Build(served);
  dataset::Dataset plain = data;
  plain.data = CopyOf(*data.data.store());
  serve::ShardedIndex reference(factory, index_options);
  reference.Build(plain);

  serve::Server::Options server_options;
  server_options.max_batch = 4;
  server_options.max_delay_us = 2000;
  server_options.num_threads = 2;
  serve::Server server(&index, server_options);
  const auto submit_window = [&] {
    std::vector<std::future<serve::QueryResponse>> futures;
    for (size_t q = 0; q < 4; ++q) {
      futures.push_back(server.SubmitQuery(data.queries.Row(q), k));
    }
    return futures;
  };

  copy_store->fail_reads = true;
  for (auto& future : submit_window()) {
    EXPECT_THROW(future.get(), std::runtime_error);
  }
  copy_store->fail_reads = false;
  auto futures = submit_window();
  for (size_t q = 0; q < futures.size(); ++q) {
    EXPECT_EQ(futures[q].get().neighbors,
              reference.Query(data.queries.Row(q), k))
        << "query " << q;
  }
  server.Stop();
}

}  // namespace
}  // namespace baselines
}  // namespace lccs
