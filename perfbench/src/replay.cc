#include "replay.h"

#include <algorithm>
#include <stdexcept>

#include "bench_util.h"
#include "util/simd_distance.h"

namespace perfbench {

using lccs::core::CircularShiftArray;
using lccs::core::LccsCandidate;
using lccs::util::Neighbor;

ShardReplicas::ShardReplicas(const lccs::core::DynamicIndex::Factory& factory,
                             const lccs::dataset::Dataset& base,
                             size_t num_shards, bool quantize) {
  const std::shared_ptr<const lccs::storage::VectorStore> store =
      base.data.store();
  const size_t n = base.n();
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t begin = s * n / num_shards;
    const size_t end = (s + 1) * n / num_shards;
    Shard shard;
    shard.first_row = begin;
    lccs::dataset::Dataset slice;
    slice.name = base.name + "/replica" + std::to_string(s);
    slice.metric = base.metric;
    slice.data = lccs::storage::VectorStoreRef(
        std::make_shared<lccs::storage::SliceStore>(store, begin,
                                                    end - begin));
    shard.owner = factory();
    shard.owner->Build(slice);
    const auto* index =
        dynamic_cast<const lccs::baselines::LccsLshIndex*>(shard.owner.get());
    if (index == nullptr) {
      throw std::runtime_error("replay needs LCCS-LSH shards");
    }
    shard.scheme = &index->scheme();
    shard.store = slice.data.store();
    if (quantize) {
      lccs::storage::EnsureQuantized(shard.store, base.metric);
      shard.quantized = lccs::storage::ActiveQuantized(
          shard.store.get(), base.metric, &shard.quantized_offset);
    }
    shards_.push_back(std::move(shard));
  }
}

LayerReplayer::LayerReplayer(const ShardReplicas& replicas, size_t k,
                             size_t lambda, Tracer* tracer)
    : replicas_(replicas),
      k_(k),
      count_(lambda + (k > 0 ? k - 1 : 0)),
      tracer_(tracer) {}

std::vector<std::vector<Neighbor>> LayerReplayer::Run(
    const std::vector<const float*>& queries, bool int8, uint64_t window,
    int32_t parent, LayerTotals* totals) {
  const size_t nq = queries.size();
  const size_t num_shards = replicas_.shards().size();
  candidates_.assign(num_shards, {});
  std::vector<std::vector<std::vector<Neighbor>>> local(
      num_shards, std::vector<std::vector<Neighbor>>(nq));
  double total = 0.0, distinct = 0.0;
  for (size_t s = 0; s < num_shards; ++s) {
    const ShardReplicas::Shard& shard = replicas_.shards()[s];
    const ScopedSpan shard_span(tracer_, "shard", parent, window);
    const int32_t sp = shard_span.index();
    const lccs::core::MpLccsLsh& scheme = *shard.scheme;
    const CircularShiftArray& csa = scheme.csa();
    const size_t m = scheme.m();
    const size_t n = scheme.n();
    const size_t d = scheme.dim();

    std::vector<lccs::core::HashValue> hashes(nq * m);
    {
      const ScopedSpan span(tracer_, "lsh.hash", sp, window, &totals->hash_ns);
      for (size_t q = 0; q < nq; ++q) {
        scheme.family().Hash(queries[q], hashes.data() + q * m);
      }
    }
    std::vector<CircularShiftArray::SearchScratch> scratch(nq);
    {
      const ScopedSpan span(tracer_, "core.csa_bounds", sp, window,
                            &totals->bounds_ns);
      for (size_t q = 0; q < nq; ++q) {
        scratch[q].Begin(n, m, 0);
        csa.SearchBounds(hashes.data() + q * m, &scratch[q]);
      }
    }
    std::vector<std::vector<LccsCandidate>>& cands = candidates_[s];
    cands.assign(nq, {});
    {
      const ScopedSpan span(tracer_, "core.csa_drain", sp, window,
                            &totals->drain_ns);
      for (size_t q = 0; q < nq; ++q) {
        const lccs::core::HashValue* probe = hashes.data() + q * m;
        cands[q].reserve(std::min(count_, n));
        csa.CollectFromHeap(&probe, 1, count_, &scratch[q], &cands[q]);
      }
    }
    std::vector<uint8_t> seen(n, 0);
    for (const auto& list : cands) {
      totals->candidates += static_cast<double>(list.size());
      for (const LccsCandidate& c : list) {
        total += 1.0;
        if (seen[static_cast<size_t>(c.id)] == 0) {
          seen[static_cast<size_t>(c.id)] = 1;
          distinct += 1.0;
        }
      }
    }

    if (int8) {
      Int8Verify(shard, s, queries, window, sp, totals, &local[s]);
    } else {
      std::vector<std::vector<int32_t>> ids(nq);
      std::vector<std::vector<double>> dists(nq);
      for (size_t q = 0; q < nq; ++q) {
        for (const LccsCandidate& c : cands[q]) ids[q].push_back(c.id);
        dists[q].resize(ids[q].size());
      }
      {
        const ScopedSpan span(tracer_, "util.l2", sp, window, &totals->l2_ns);
        for (size_t q = 0; q < nq; ++q) {
          lccs::util::DistanceMany(scheme.metric(), shard.store->data(), d,
                                   queries[q], ids[q].data(), ids[q].size(),
                                   dists[q].data());
        }
      }
      for (size_t q = 0; q < nq; ++q) {
        lccs::util::TopK topk(k_);
        for (size_t i = 0; i < ids[q].size(); ++i) {
          topk.Push(ids[q][i], dists[q][i]);
        }
        local[s][q] = topk.Sorted();
      }
    }
    for (auto& list : local[s]) {
      for (Neighbor& nb : list) {
        nb.id += static_cast<int32_t>(shard.first_row);
      }
    }
  }
  totals->queries += static_cast<double>(nq);
  totals->dedup_ratio.push_back(total > 0.0 ? distinct / total : 0.0);
  tracer_->Count("replay.windows", 1);
  tracer_->Count("replay.queries", static_cast<double>(nq));
  tracer_->Count("replay.candidates", total);
  tracer_->Count("replay.distinct_rows", distinct);

  std::vector<std::vector<Neighbor>> merged(nq);
  const ScopedSpan span(tracer_, "util.merge", parent, window,
                        &totals->merge_ns);
  std::vector<std::vector<Neighbor>> lists(num_shards);
  for (size_t q = 0; q < nq; ++q) {
    for (size_t s = 0; s < num_shards; ++s) lists[s] = std::move(local[s][q]);
    merged[q] = lccs::util::MergeSortedTopK(lists, k_);
  }
  return merged;
}

void LayerReplayer::RerankInt8(const std::vector<const float*>& queries,
                               uint64_t window, int32_t parent,
                               LayerTotals* totals) {
  for (size_t s = 0; s < replicas_.shards().size(); ++s) {
    const ScopedSpan shard_span(tracer_, "shard", parent, window);
    Int8Verify(replicas_.shards()[s], s, queries, window, shard_span.index(),
               totals, nullptr);
  }
  totals->queries += static_cast<double>(queries.size());
}

void LayerReplayer::Int8Verify(const ShardReplicas::Shard& shard, size_t s,
                               const std::vector<const float*>& queries,
                               uint64_t window, int32_t parent,
                               LayerTotals* totals,
                               std::vector<std::vector<Neighbor>>* local) {
  const lccs::storage::QuantizedStore* codes = shard.quantized;
  if (codes == nullptr) throw std::runtime_error("replica has no int8 tier");
  const size_t nq = queries.size();
  const size_t d = shard.store->cols();
  const size_t keep = lccs::storage::RerankKeep(k_);
  const std::vector<std::vector<LccsCandidate>>& cands = candidates_[s];

  // Phase one keeps the best k' candidates by int8 score (ascending ids);
  // a list no longer than k' is verified whole, in candidate order, as the
  // serving path does when pruning could not drop anything.
  std::vector<std::vector<int32_t>> pruned(nq);
  {
    const ScopedSpan span(tracer_, "storage.i8_score", parent, window,
                          &totals->score_ns);
    std::vector<int32_t> ids;
    std::vector<float> scores;
    for (size_t q = 0; q < nq; ++q) {
      ids.clear();
      for (const LccsCandidate& c : cands[q]) ids.push_back(c.id);
      if (ids.size() <= keep) {
        pruned[q] = ids;
        continue;
      }
      const lccs::storage::QuantizedStore::PreparedQuery prepared =
          codes->Prepare(queries[q]);
      scores.resize(ids.size());
      codes->ScoreCandidates(prepared, ids.data(), ids.size(),
                             shard.quantized_offset, scores.data());
      lccs::storage::RerankSelector selector(keep);
      for (size_t i = 0; i < ids.size(); ++i) selector.Offer(scores[i], ids[i]);
      pruned[q] = selector.TakeAscendingIds();
    }
  }
  // Phase two, as LccsLsh::QueryBatch serves it: one PrefetchRows over the
  // window's distinct survivors, then exact distances read in place from
  // the store's rows (the mapping itself on an mmap store).
  std::vector<std::vector<double>> dists(nq);
  {
    const ScopedSpan rerank(tracer_, "storage.rerank", parent, window,
                            &totals->rerank_ns);
    std::vector<int32_t> survivors;
    for (const std::vector<int32_t>& list : pruned) {
      survivors.insert(survivors.end(), list.begin(), list.end());
    }
    std::sort(survivors.begin(), survivors.end());
    survivors.erase(std::unique(survivors.begin(), survivors.end()),
                    survivors.end());
    shard.store->PrefetchRows(survivors.data(), survivors.size());
    const ScopedSpan span(tracer_, "util.l2", rerank.index(), window,
                          &totals->l2_ns);
    for (size_t q = 0; q < nq; ++q) {
      dists[q].resize(pruned[q].size());
      lccs::util::DistanceMany(shard.scheme->metric(), shard.store->data(), d,
                               queries[q], pruned[q].data(), pruned[q].size(),
                               dists[q].data());
    }
  }
  for (size_t q = 0; q < nq; ++q) {
    const auto rows_q = static_cast<double>(pruned[q].size());
    totals->rerank_rows += rows_q;
    tracer_->Count("replay.rerank_rows", rows_q);
  }
  if (local == nullptr) return;
  for (size_t q = 0; q < nq; ++q) {
    lccs::util::TopK topk(k_);
    for (size_t i = 0; i < pruned[q].size(); ++i) {
      topk.Push(pruned[q][i], dists[q][i]);
    }
    (*local)[q] = topk.Sorted();
  }
}

WriteReplay ReplayMutations(const lccs::core::DynamicIndex::Factory& factory,
                            const lccs::serve::ShardedIndex::Options& options,
                            const lccs::dataset::Dataset& base,
                            const std::vector<MutationRecord>& mutations,
                            const RequestSource& source,
                            size_t records_per_fsync,
                            const std::string& wal_dir, Tracer* tracer) {
  WriteReplay out;
  lccs::serve::ShardedIndex index(factory, options);
  index.Build(base);
  lccs::serve::WriteAheadLog wal(wal_dir);
  wal.Recover(&index);
  const size_t dim = base.dim();
  const int32_t root = tracer->Begin("write_replay", -1, 0);
  auto mismatch = [&](const std::string& what) {
    if (out.mismatches++ == 0) out.first_mismatch = what;
  };

  {
    const int64_t t0 = NowNs();
    const lccs::serve::ShardedIndex::CheckpointState state =
        index.CaptureCheckpointState();
    const int64_t t1 = NowNs();
    wal.WriteCheckpoint(state);
    const int64_t t2 = NowNs();
    tracer->Add("wal.ckpt_capture", t0, t1, root, 0);
    tracer->Add("wal.ckpt_publish", t1, t2, root, 0);
    out.capture_ms = static_cast<double>(t1 - t0) * 1e-6;
    out.publish_ms = static_cast<double>(t2 - t1) * 1e-6;
  }

  size_t pending = 0;
  for (const MutationRecord& rec : mutations) {
    lccs::serve::ShardedIndex::MutationResult result;
    int64_t t0 = NowNs();
    if (rec.insert) {
      result = index.ApplyInsert(source.Insert(rec.vec));
    } else {
      result = index.ApplyRemove(rec.id);
    }
    int64_t t1 = NowNs();
    tracer->Add("serve.apply", t0, t1, root, rec.state_version);
    tracer->Count("replay.mutations", 1);
    out.apply_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (result.state_version != rec.state_version || result.id != rec.id ||
        result.applied != rec.applied) {
      mismatch("mutation " + std::to_string(rec.state_version) +
               " replayed differently");
    }

    lccs::serve::WriteAheadLog::Record record;
    record.version = result.state_version;
    record.is_insert = rec.insert;
    record.id = result.id;
    if (rec.insert) {
      record.vec.assign(source.Insert(rec.vec), source.Insert(rec.vec) + dim);
    }
    t0 = NowNs();
    wal.Append(record);
    t1 = NowNs();
    tracer->Add("wal.append", t0, t1, root, rec.state_version);
    out.append_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (++pending >= records_per_fsync) {
      pending = 0;
      t0 = NowNs();
      wal.Sync();
      t1 = NowNs();
      tracer->Count("replay.fsyncs", 1);
      tracer->Add("wal.fsync", t0, t1, root, rec.state_version);
      out.fsync_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    }

  }
  wal.Sync();
  {
    const int64_t t0 = NowNs();
    index.ConsolidateAll();
    const int64_t t1 = NowNs();
    tracer->Add("core.consolidate", t0, t1, root, index.state_version());
    out.consolidate_ms = static_cast<double>(t1 - t0) * 1e-6 /
                         static_cast<double>(options.num_shards);
  }
  tracer->End(root);
  out.final_version = index.state_version();
  out.live_count = index.live_count();
  return out;
}

}  // namespace perfbench
