// perfbench: sets up, drives and checks one serving workload against
// serve::Server over a serve::ShardedIndex of LCCS-LSH, then prints its
// metrics. perfbench/run.py builds this binary and passes every workload
// parameter from perfbench/workloads.json as a flag; see perfbench/README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--key value]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the run also replays served work through
// each layer's public calls and reports the per-layer metrics instead.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/lccs_adapter.h"
#include "bench_util.h"
#include "driver.h"
#include "eval/workloads.h"
#include "replay.h"
#include "serve/server.h"
#include "serve/sharded_index.h"
#include "serve/wal.h"
#include "storage/flat_file.h"
#include "storage/mmap_store.h"
#include "storage/uring_reader.h"
#include "trace.h"
#include "util/simd_distance.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using lccs::util::Neighbor;
using Answers = std::vector<std::vector<Neighbor>>;

/// Command-line flags; every one is required (run.py passes them all).
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; i += 2) {
      const std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("expected --key value pairs, got " + key);
      }
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string Str(const std::string& key) {
    const auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::invalid_argument("missing flag --" + key);
    }
    used_.insert(key);
    return it->second;
  }
  double Num(const std::string& key) {
    const std::string v = Str(key);
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0') {
      throw std::invalid_argument("--" + key + " is not a number: " + v);
    }
    return x;
  }
  size_t Size(const std::string& key) {
    const double x = Num(key);
    if (x < 0) throw std::invalid_argument("--" + key + " must be >= 0");
    return static_cast<size_t>(x);
  }
  /// Rejects flags nobody read, so a misspelt parameter cannot go unnoticed.
  void CheckAllUsed() const {
    for (const auto& [key, value] : values_) {
      if (used_.count(key) == 0) {
        throw std::invalid_argument("unknown flag --" + key);
      }
    }
  }
  std::string Json() const {
    JsonObject obj;
    for (const auto& [key, value] : values_) obj.Str(key, value);
    return obj.str();
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> used_;
};

struct Config {
  std::string workload, work_dir, commit, source_digest, dataset;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  size_t n = 0, shards = 0, m = 0, lambda = 0, k = 0, threads = 0;
  size_t deployments = 0, held_out = 0, query_pool = 0, insert_pool = 0;
  std::string store;  ///< "heap" or "mmap"
  size_t residency_mb = 0;
  bool quantize = false;
  std::string loop;   ///< "closed" or "open"
  size_t in_flight = 0;
  double rate_qps = 0;
  size_t max_batch = 0, max_delay_us = 0, max_queue = 0;
  size_t tail_requests = 0;  ///< logged write tail after the read phase
  size_t tail_in_flight = 0;
  Mix tail_mix;
  size_t rebuild_threshold = 0;
  size_t replay_windows = 0;
};

Config ParseConfig(Flags& f) {
  Config c;
  c.workload = f.Str("workload");
  c.seed = static_cast<uint64_t>(f.Num("seed"));
  c.seconds = f.Num("seconds");
  c.trace = f.Size("trace") != 0;
  c.work_dir = f.Str("work-dir");
  c.commit = f.Str("commit");
  c.source_digest = f.Str("source-digest");
  c.dataset = f.Str("dataset");
  c.n = f.Size("n");
  c.shards = f.Size("shards");
  c.m = f.Size("m");
  c.lambda = f.Size("lambda");
  c.k = f.Size("k");
  c.threads = f.Size("threads");
  if (c.threads == 0) c.threads = NumCpus();
  c.deployments = std::max<size_t>(1, f.Size("deployments"));
  c.held_out = f.Size("held-out");
  c.query_pool = f.Size("query-pool");
  c.insert_pool = f.Size("insert-pool");
  c.store = f.Str("store");
  c.residency_mb = f.Size("residency-mb");
  c.quantize = f.Size("quantize") != 0;
  c.loop = f.Str("loop");
  c.in_flight = f.Size("in-flight");
  c.rate_qps = f.Num("rate-qps");
  c.max_batch = f.Size("max-batch");
  c.max_delay_us = f.Size("max-delay-us");
  c.max_queue = f.Size("max-queue");
  c.tail_requests = f.Size("tail-requests");
  c.tail_in_flight = f.Size("tail-in-flight");
  c.tail_mix.insert_fraction = f.Num("tail-insert-frac");
  c.tail_mix.remove_fraction = f.Num("tail-remove-frac");
  c.rebuild_threshold = f.Size("rebuild-threshold");
  c.replay_windows = f.Size("replay-windows");
  f.CheckAllUsed();
  if (c.store != "heap" && c.store != "mmap") {
    throw std::invalid_argument("--store must be heap or mmap");
  }
  if (c.loop != "closed" && c.loop != "open") {
    throw std::invalid_argument("--loop must be closed or open");
  }
  if (c.seconds <= 0 || c.query_pool == 0 || c.insert_pool == 0 ||
      c.query_pool + c.insert_pool > c.held_out) {
    throw std::invalid_argument(
        "need --seconds > 0 and 0 < query-pool + insert-pool <= held-out");
  }
  return c;
}

/// Everything one set-up produces; the destructor releases it in dependency
/// order and deletes its files.
struct Deployment {
  lccs::dataset::Dataset data;  ///< base rows (held-out rows released)
  /// query-pool rows, then insert-pool rows: the analogue's first held-out
  /// rows
  lccs::util::Matrix pools;
  std::string flat_path;
  lccs::core::DynamicIndex::Factory factory;
  lccs::serve::ShardedIndex::Options index_options;
  std::unique_ptr<lccs::serve::ShardedIndex> index;
  std::string wal_dir;
  std::unique_ptr<lccs::serve::WriteAheadLog> wal;
  std::unique_ptr<lccs::serve::Server> server;

  void StopServing() {
    if (server != nullptr) server->Stop();
    server.reset();
    wal.reset();
  }
  ~Deployment() {
    StopServing();
    index.reset();
    data = lccs::dataset::Dataset();
    RemoveTree(wal_dir);
    if (!flat_path.empty()) std::remove(flat_path.c_str());
  }
};

std::string MakeTempDir(const std::string& work_dir, const std::string& tag) {
  std::string tmpl = work_dir + "/" + tag + "-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + work_dir);
  }
  return buf.data();
}

/// Data generation (+ flat-file write and map) + Build + WAL Recover +
/// server start. The base rows and the query and insert pools (the first
/// held-out rows) are the fixed dataset analogue of eval::LoadAnalogue; the
/// seed drives only the requests drawn from them. `exact` (optional)
/// receives the exact k-NN of the query pool, computed on the in-memory
/// rows with the clock paused. The log is written without fsync: every
/// mutation is logged before its ack and durability is left to the page
/// cache, so the write tail measures the write path's CPU cost and not the
/// latency of the machine's disk (the traced run prices a sync apart).
std::unique_ptr<Deployment> SetUp(const Config& c, double* seconds,
                                  Answers* exact) {
  const int64_t t0 = NowNs();
  auto dep = std::make_unique<Deployment>();
  lccs::eval::BenchScale scale;
  scale.n = c.n;
  scale.num_queries = c.held_out;
  dep->data = lccs::eval::LoadAnalogue(c.dataset,
                                       lccs::util::Metric::kEuclidean, scale);
  const size_t d = dep->data.dim();
  dep->pools = lccs::util::Matrix(c.query_pool + c.insert_pool, d);
  std::memcpy(dep->pools.data(), dep->data.queries.data(),
              dep->pools.rows() * d * sizeof(float));
  dep->data.queries = lccs::util::Matrix();

  int64_t paused = 0;
  if (exact != nullptr) {
    const int64_t p0 = NowNs();
    *exact = ExactKnn(dep->data.metric, dep->data.data.data(), dep->data.n(),
                      d, dep->pools.data(), c.query_pool, c.k);
    paused = NowNs() - p0;
  }

  lccs::baselines::LccsLshIndex::Params params;
  params.m = c.m;
  params.lambda = c.lambda;
  params.w = 4.0 * lccs::eval::EstimateDistanceScale(dep->data);
  dep->factory = [params] {
    return std::make_unique<lccs::baselines::LccsLshIndex>(params);
  };

  if (c.store == "mmap") {
    dep->flat_path = c.work_dir + "/base-" + std::to_string(::getpid()) +
                     "-" + std::to_string(t0) + ".lccsf";
    lccs::storage::WriteFlatFile(dep->flat_path, *dep->data.data.store());
    lccs::storage::MmapStore::Options mapped;
    mapped.residency_budget_bytes = c.residency_mb << 20;
    dep->data.data = lccs::storage::VectorStoreRef(
        lccs::storage::MmapStore::Open(dep->flat_path, mapped));
  }

  dep->index_options.num_shards = c.shards;
  dep->index_options.dim = d;
  dep->index_options.rebuild_threshold = c.rebuild_threshold;
  dep->index_options.quantize = c.quantize;
  dep->index = std::make_unique<lccs::serve::ShardedIndex>(dep->factory,
                                                          dep->index_options);
  dep->index->Build(dep->data);

  dep->wal_dir = MakeTempDir(c.work_dir, "wal");
  lccs::serve::WriteAheadLog::Options wal_options;
  wal_options.fsync_policy = lccs::serve::WriteAheadLog::FsyncPolicy::kNever;
  dep->wal = std::make_unique<lccs::serve::WriteAheadLog>(dep->wal_dir,
                                                           wal_options);
  dep->wal->Recover(dep->index.get());

  lccs::serve::Server::Options server_options;
  server_options.max_batch = c.max_batch;
  server_options.max_delay_us = c.max_delay_us;
  server_options.num_threads = c.threads;
  server_options.max_queue = c.max_queue;
  server_options.wal = dep->wal.get();
  dep->server = std::make_unique<lccs::serve::Server>(dep->index.get(),
                                                      server_options);
  *seconds = static_cast<double>(NowNs() - t0 - paused) * 1e-9;
  return dep;
}

/// Latencies (µs) of a phase's queries or mutations.
std::vector<double> QueryLatencies(const PhaseResult& p) {
  std::vector<double> out;
  out.reserve(p.queries.size());
  for (const QueryRecord& r : p.queries) {
    out.push_back(static_cast<double>(r.done_ns - r.start_ns) * 1e-3);
  }
  return out;
}

std::vector<double> MutationLatencies(const PhaseResult& p) {
  std::vector<double> out;
  out.reserve(p.mutations.size());
  for (const MutationRecord& r : p.mutations) {
    out.push_back(static_cast<double>(r.done_ns - r.start_ns) * 1e-3);
  }
  return out;
}

double Rate(size_t count, double seconds) {
  return seconds > 0 ? static_cast<double>(count) / seconds : 0.0;
}

/// Accumulates the run's operation counts and correctness failures.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Add(const PhaseResult& p) {
    attempted += p.attempted;
    failed += p.failed;
    if (!p.first_error.empty()) errors.push_back(p.first_error);
  }
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    errors.push_back(what);
  }
};

/// Every mutation ack must carry a distinct version, together exactly
/// base+1 .. base+count, and the index must sit at the last one.
void CheckAckVersions(std::vector<MutationRecord>* mutations,
                      uint64_t index_version, Ledger* ledger) {
  std::sort(mutations->begin(), mutations->end(),
            [](const MutationRecord& a, const MutationRecord& b) {
              return a.state_version < b.state_version;
            });
  bool dense = true;
  for (size_t i = 0; i < mutations->size(); ++i) {
    dense = dense && (*mutations)[i].state_version == i + 1;
  }
  ledger->Check(dense, "mutation ack versions are not dense and unique");
  ledger->Check(index_version == mutations->size(),
                "index state_version " + std::to_string(index_version) +
                    " != acked mutations " +
                    std::to_string(mutations->size()));
}

/// Recovers the deployment's log into `fresh`. Returns the Recover wall
/// time in seconds.
double RecoverInto(const Deployment& dep, lccs::serve::ShardedIndex* fresh) {
  if (lccs::serve::WriteAheadLog::ListCheckpoints(dep.wal_dir).empty()) {
    fresh->Build(dep.data);  // no checkpoint: the log starts at the base
  }
  const int64_t t0 = NowNs();
  {
    lccs::serve::WriteAheadLog wal(dep.wal_dir);
    wal.Recover(fresh);
  }
  const double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
  fresh->WaitForRebuilds();
  return seconds;
}

/// Recovers the run's log into a fresh index and compares it with the
/// served one. Returns the Recover wall time in seconds.
double CheckRecovery(Deployment* dep,
                     const std::vector<MutationRecord>& mutations,
                     Ledger* ledger) {
  lccs::serve::ShardedIndex fresh(dep->factory, dep->index_options);
  const double seconds = RecoverInto(*dep, &fresh);

  ledger->Check(fresh.state_version() == dep->index->state_version(),
                "recovered state_version differs");
  ledger->Check(fresh.live_count() == dep->index->live_count(),
                "recovered live_count differs");
  std::vector<int32_t> served_ids, fresh_ids;
  const lccs::util::Matrix served_rows = dep->index->LiveVectors(&served_ids);
  const lccs::util::Matrix fresh_rows = fresh.LiveVectors(&fresh_ids);
  ledger->Check(served_ids == fresh_ids &&
                    served_rows.rows() == fresh_rows.rows() &&
                    std::memcmp(served_rows.data(), fresh_rows.data(),
                                served_rows.rows() * served_rows.cols() *
                                    sizeof(float)) == 0,
                "recovered live vectors differ");
  // Every acked insert that no acked remove retired must have survived.
  std::set<int32_t> removed;
  for (const MutationRecord& r : mutations) {
    if (!r.insert) removed.insert(r.id);
  }
  size_t missing = 0;
  for (const MutationRecord& r : mutations) {
    if (r.insert && removed.count(r.id) == 0 && !fresh.Contains(r.id)) {
      ++missing;
    }
  }
  ledger->Check(missing == 0, std::to_string(missing) +
                                  " acked inserts missing after recovery");
  return seconds;
}

struct MetricLine {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    lines_.push_back({name, value, unit, note});
  }
  void Print() const {
    for (const MetricLine& l : lines_) {
      std::printf("metric %-30s %16.6f %-9s %s\n", l.name.c_str(), l.value,
                  l.unit.c_str(), l.note.c_str());
    }
  }
  std::string Json() const {
    JsonObject metrics;
    for (const MetricLine& l : lines_) {
      metrics.Raw(l.name,
                  JsonObject().Num("value", l.value).Str("unit", l.unit).str());
    }
    return metrics.str();
  }

 private:
  std::vector<MetricLine> lines_;
};

/// Windows of a phase, keyed by batch_id.
std::map<uint64_t, std::vector<QueryRecord>> Windows(const PhaseResult& p) {
  std::map<uint64_t, std::vector<QueryRecord>> out;
  for (const QueryRecord& r : p.queries) out[r.batch_id].push_back(r);
  return out;
}

/// What the traced run derives from the served windows' replays.
struct ReadTrace {
  LayerTotals layers;         ///< the path the workload serves
  LayerTotals counterfactual; ///< int8 verify on float-served windows
  std::vector<double> snapshot_us, fanout_us, queue_wait_us;
  size_t windows = 0;
  size_t mismatches = 0;
};

/// Replays up to c.replay_windows windows, evenly spread over the phase.
ReadTrace ReplayWindows(const Config& c, Deployment* dep,
                        const PhaseResult& phase, const Answers& refs,
                        Tracer* tracer) {
  ReadTrace out;
  const ShardReplicas replicas(dep->factory, dep->data, c.shards,
                               /*quantize=*/true);
  LayerReplayer replayer(replicas, c.k, c.lambda, tracer);
  const std::map<uint64_t, std::vector<QueryRecord>> windows = Windows(phase);
  std::vector<uint64_t> ids;
  for (const auto& [id, reqs] : windows) ids.push_back(id);
  const size_t take = std::min(c.replay_windows, ids.size());
  const size_t d = dep->data.dim();
  const float* pool = dep->pools.data();
  for (size_t i = 0; i < take; ++i) {
    const uint64_t window = ids[i * ids.size() / take];
    const std::vector<QueryRecord>& reqs = windows.at(window);
    std::vector<const float*> qs;
    std::vector<float> flat;
    for (const QueryRecord& r : reqs) {
      qs.push_back(pool + static_cast<size_t>(r.pool) * d);
      flat.insert(flat.end(), qs.back(), qs.back() + d);
    }
    const ScopedSpan root(tracer, "window", -1, window);
    double snapshot_ns = 0, fanout_ns = 0;
    Answers fanned;
    {
      lccs::serve::ShardedSnapshot snap;
      {
        const ScopedSpan span(tracer, "serve.snapshot", root.index(), window,
                              &snapshot_ns);
        snap = dep->index->AcquireSnapshot();
      }
      const ScopedSpan span(tracer, "serve.fanout", root.index(), window,
                            &fanout_ns);
      fanned = snap.QueryBatch(flat.data(), qs.size(), c.k, c.threads);
    }
    Answers replayed;
    {
      const ScopedSpan span(tracer, "replay", root.index(), window);
      replayed = replayer.Run(qs, c.quantize, window, span.index(),
                              &out.layers);
    }
    if (!c.quantize) {
      const ScopedSpan span(tracer, "counterfactual_i8", root.index(), window);
      replayer.RerankInt8(qs, window, span.index(), &out.counterfactual);
    }
    out.snapshot_us.push_back(snapshot_ns * 1e-3);
    out.fanout_us.push_back(fanout_ns * 1e-3);
    for (size_t q = 0; q < reqs.size(); ++q) {
      const double latency =
          static_cast<double>(reqs[q].done_ns - reqs[q].start_ns) * 1e-3;
      out.queue_wait_us.push_back(std::max(0.0, latency - fanout_ns * 1e-3));
      const std::vector<Neighbor>& expect = refs[reqs[q].pool];
      if (!SameNeighbors(fanned[q], expect) ||
          !SameNeighbors(replayed[q], expect)) {
        ++out.mismatches;
      }
    }
    ++out.windows;
  }
  return out;
}

double PerQueryUs(double ns, const LayerTotals& t) {
  return t.queries > 0 ? ns / t.queries * 1e-3 : 0.0;
}

double Share(const std::map<std::string, double>& self, const char* name) {
  double total = 0.0;
  for (const auto& [key, ns] : self) total += ns;
  const auto it = self.find(name);
  return total > 0.0 && it != self.end() ? it->second / total : 0.0;
}

std::string ContextJson(const Config& c, const Deployment* dep,
                        const Flags& flags, bool uring) {
  JsonObject ctx;
  ctx.Str("workload", c.workload)
      .Int("seed", static_cast<long long>(c.seed))
      .Int("nproc", static_cast<long long>(NumCpus()))
      .Int("fanout_threads", static_cast<long long>(c.threads))
      .Int("driver_threads", c.loop == "open" ? 2 : 1)
      .Str("simd_tier",
           lccs::util::SimdTierName(lccs::util::ActiveSimdTier()))
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Bool("io_uring", uring)
      .Str("dataset", c.dataset)
      .Int("n", static_cast<long long>(dep->data.n()))
      .Int("d", static_cast<long long>(dep->data.dim()))
      .Int("S", static_cast<long long>(c.shards))
      .Int("m", static_cast<long long>(c.m))
      .Int("lambda", static_cast<long long>(c.lambda))
      .Int("k", static_cast<long long>(c.k))
      .Num("arrival_rate_qps", c.loop == "open" ? c.rate_qps : 0.0)
      .Str("commit", c.commit)
      .Str("source_digest", c.source_digest)
      .Raw("flags", flags.Json());
  return ctx.str();
}

/// Recoveries of the last deployment's log timed in an untraced run.
constexpr size_t kRecoveries = 5;

/// A write tail ends after its request count; this only stops a tail that
/// could not finish (every mutation stalled), so the run still ends.
constexpr double kTailTimeLimitSeconds = 60.0;

/// One fixed-width slice of a phase: the share of CPU time the hypervisor
/// stole from this guest while it ran, and the latencies (µs) of the
/// requests that completed in it.
struct Slice {
  double steal = 0.0;
  std::vector<double> latency_us;
};

/// A deployment's read phase has about 8 read slices and its write tail
/// (about 1.2 s) about 5 tail slices. Steal is sampled much more finely.
constexpr int64_t kReadSliceNs = 1000000000;
constexpr int64_t kTailSliceNs = 250000000;
constexpr int64_t kStealSampleNs = 50000000;

/// Cuts a phase into whole slices of `width_ns` from its first submit (the
/// partial last slice is dropped) and files each request by the time its
/// completion was observed.
template <typename Record>
std::vector<Slice> Slices(const PhaseResult& phase,
                          const std::vector<Record>& records, int64_t width_ns,
                          const StealSampler& steal) {
  const size_t count =
      phase.end_ns > phase.start_ns
          ? static_cast<size_t>((phase.end_ns - phase.start_ns) / width_ns)
          : 0;
  std::vector<Slice> out(count);
  for (size_t i = 0; i < count; ++i) {
    const int64_t begin = phase.start_ns + static_cast<int64_t>(i) * width_ns;
    out[i].steal = steal.Share(begin, begin + width_ns);
  }
  for (const Record& r : records) {
    if (r.done_ns < phase.start_ns) continue;
    const auto i = static_cast<size_t>((r.done_ns - phase.start_ns) / width_ns);
    if (i < count) {
      out[i].latency_us.push_back(static_cast<double>(r.done_ns - r.start_ns) *
                                  1e-3);
    }
  }
  return out;
}

/// A slice is calm when the hypervisor stole at most this share of the
/// guest's CPU time during it.
constexpr double kCalmSteal = 0.02;

/// Completions per second and median latency over a run's calm slices, or,
/// when fewer than half of them are calm, over the calmer half: the half in
/// which the hypervisor stole the least CPU time. On a shared host a
/// neighbour's burst can halve this guest's speed for minutes; the slices
/// it hits measure the neighbour, not the code. On a quiet host every slice
/// is kept, so the metric averages over every deployment.
struct CalmSlices {
  double rate = 0.0;
  double p50_us = 0.0;
  double steal_all = 0.0, steal_kept = 0.0;  ///< mean steal share
  size_t kept = 0, slices = 0;
};

CalmSlices SelectCalm(std::vector<Slice> slices, int64_t width_ns) {
  CalmSlices out;
  out.slices = slices.size();
  if (slices.empty()) return out;
  std::stable_sort(slices.begin(), slices.end(),
                   [](const Slice& a, const Slice& b) {
                     return a.steal < b.steal;
                   });
  out.kept = (slices.size() + 1) / 2;
  while (out.kept < slices.size() && slices[out.kept].steal <= kCalmSteal) {
    ++out.kept;
  }
  std::vector<double> latency;
  for (size_t i = 0; i < slices.size(); ++i) {
    out.steal_all += slices[i].steal;
    if (i >= out.kept) continue;
    out.steal_kept += slices[i].steal;
    latency.insert(latency.end(), slices[i].latency_us.begin(),
                   slices[i].latency_us.end());
  }
  out.steal_all /= static_cast<double>(slices.size());
  out.steal_kept /= static_cast<double>(out.kept);
  out.rate = static_cast<double>(latency.size()) /
             (static_cast<double>(out.kept) * static_cast<double>(width_ns) *
              1e-9);
  out.p50_us = Median(latency);
  return out;
}

/// What one deployment served: its phases, the server counters around the
/// read phase, and the index state when serving stopped.
struct Segment {
  PhaseResult untraced;       ///< traced runs: the first, untraced half
  PhaseResult main;           ///< the read phase
  PhaseResult tail_untraced;  ///< traced runs: the tail's untraced half
  PhaseResult tail;           ///< the logged write tail
  lccs::serve::Server::Stats before_main, after_main, at_end;
  std::vector<lccs::core::DynamicIndex::Stats> shard_stats;
  std::vector<MutationRecord> mutations;  ///< all phases, ascending version
  ReadTrace read_trace;
  /// Process high-water marks from the start of serving: through the read
  /// phase, and through the tail (the tail grows the in-RAM delta).
  double read_peak_rss_mb = 0.0, tail_peak_rss_mb = 0.0;
  double read_steal = 0.0;  ///< hypervisor steal share over the read phase
  std::vector<Slice> read_slices, tail_slices;  ///< of main and tail
};

/// Serves the read phase and the write tail on one deployment, stops it and
/// checks the mutation acks. With a tracer, each phase is split into an
/// untraced and a traced half, and the traced half's windows are replayed
/// before the tail changes the index. `recovered`: the deployment whose log
/// the recovery check will replay.
Segment Serve(const Config& c, Deployment* dep, RequestSource* source,
              const QueryCheck& check, const Answers& refs, double seconds,
              bool recovered, Tracer* tracer, Ledger* ledger) {
  Segment seg;
  lccs::serve::Server& server = *dep->server;
  auto run_main = [&](double phase_seconds, Tracer* t) {
    return c.loop == "open"
               ? RunOpenLoop(server, *source, c.rate_qps, phase_seconds, c.k,
                             c.seed, check, t)
               : RunClosedLoop(server, *source, Mix(), c.in_flight,
                               phase_seconds, 0, c.k, check, t);
  };
  auto run_tail = [&](size_t requests, Tracer* t) {
    return RunClosedLoop(server, *source, c.tail_mix, c.tail_in_flight,
                         kTailTimeLimitSeconds, requests, c.k, QueryCheck(),
                         t);
  };
  // The set-up's own allocations (the generated base rows, exact k-NN) are
  // not part of the serving footprint.
  ledger->Check(ResetPeakRss(), "cannot reset the peak RSS");
  StealSampler steal(kStealSampleNs);
  if (tracer != nullptr) {
    seg.untraced = run_main(seconds / 2, nullptr);
    ledger->Add(seg.untraced);
    seconds /= 2;
  }
  seg.before_main = server.stats();
  seg.main = run_main(seconds, tracer);
  seg.after_main = server.stats();
  ledger->Add(seg.main);
  seg.read_peak_rss_mb = PeakRssMb();

  if (tracer != nullptr) {
    seg.read_trace = ReplayWindows(c, dep, seg.main, refs, tracer);
    ledger->Check(seg.read_trace.mismatches == 0,
                  std::to_string(seg.read_trace.mismatches) +
                      " replayed answers differ from served ones");
  }

  // The recovered tail starts from a checkpoint of the base state, so its
  // log holds exactly the tail and recovery restores that checkpoint.
  if (recovered) server.CheckpointNow();
  size_t tail_requests = c.tail_requests;
  if (tracer != nullptr) {
    seg.tail_untraced = run_tail(tail_requests / 2, nullptr);
    ledger->Add(seg.tail_untraced);
    tail_requests -= tail_requests / 2;
  }
  seg.tail = run_tail(tail_requests, tracer);
  ledger->Add(seg.tail);
  seg.tail_peak_rss_mb = PeakRssMb();
  steal.Stop();
  seg.read_steal = steal.Share(seg.main.start_ns, seg.main.end_ns);
  seg.read_slices = Slices(seg.main, seg.main.queries, kReadSliceNs, steal);
  seg.tail_slices = Slices(seg.tail, seg.tail.mutations, kTailSliceNs, steal);
  seg.shard_stats = dep->index->ShardStats();
  seg.at_end = server.stats();
  dep->StopServing();
  dep->index->WaitForRebuilds();  // no consolidation runs under the checks

  for (const PhaseResult* p : {&seg.tail_untraced, &seg.tail}) {
    seg.mutations.insert(seg.mutations.end(), p->mutations.begin(),
                         p->mutations.end());
  }
  CheckAckVersions(&seg.mutations, dep->index->state_version(), ledger);
  return seg;
}

/// Per-layer metrics of a traced run: replays the segment's mutations and
/// derives every layer number; writes the spans to the trace file.
void LayerReport(const Config& c, Deployment* dep, const Segment& seg,
                 RequestSource* source, Tracer* tracer, Ledger* ledger,
                 Report* report) {
  const lccs::serve::Server::Stats& stats = seg.at_end;
  // The served log does not fsync; the replay syncs once per group-commit
  // batch, so wal.fsync_us prices the sync a durable ack would wait for.
  const size_t sync_every =
      lccs::serve::WriteAheadLog::Options().group_commit_max_records;
  const std::string replay_dir = MakeTempDir(c.work_dir, "replay");
  WriteReplay writes;
  try {
    writes = ReplayMutations(dep->factory, dep->index_options, dep->data,
                             seg.mutations, *source, sync_every, replay_dir,
                             tracer);
  } catch (...) {
    RemoveTree(replay_dir);
    throw;
  }
  RemoveTree(replay_dir);
  ledger->Check(writes.mismatches == 0, writes.first_mismatch);
  ledger->Check(writes.final_version == dep->index->state_version() &&
                    writes.live_count == dep->index->live_count(),
                "mutation replay ended in a different state");

  const ReadTrace& rt = seg.read_trace;
  const LayerTotals& lt = rt.layers;
  const LayerTotals& st = c.quantize ? lt : rt.counterfactual;
  std::set<uint64_t> windows;
  double window_sum = 0.0;
  for (const QueryRecord& r : seg.main.queries) {
    if (windows.insert(r.batch_id).second) window_sum += r.batch_size;
  }
  const uint64_t batches = seg.after_main.batches - seg.before_main.batches;
  size_t delta_rows = 0, tombstones = 0;
  for (const auto& s : seg.shard_stats) {
    delta_rows += s.delta_rows;
    tombstones += s.tombstones;
  }
  auto overhead = [](double untraced, double traced) {
    return untraced > 0 ? 1.0 - traced / untraced : 0.0;
  };

  Report& r = *report;
  r.Add("serve.window_size",
        windows.empty() ? 0.0
                        : window_sum / static_cast<double>(windows.size()),
        "count");
  r.Add("serve.deadline_close_frac",
        batches > 0 ? static_cast<double>(
                          seg.after_main.windows_closed_deadline -
                          seg.before_main.windows_closed_deadline) /
                          static_cast<double>(batches)
                    : 0.0,
        "fraction");
  r.Add("serve.queue_wait_us", Median(rt.queue_wait_us), "us");
  r.Add("serve.snapshot_us", Median(rt.snapshot_us), "us");
  r.Add("serve.fanout_us", Median(rt.fanout_us), "us");
  r.Add("util.merge_us", PerQueryUs(lt.merge_ns, lt), "us");
  r.Add("lsh.hash_us", PerQueryUs(lt.hash_ns, lt), "us");
  r.Add("core.csa_bounds_us", PerQueryUs(lt.bounds_ns, lt), "us");
  r.Add("core.csa_drain_us", PerQueryUs(lt.drain_ns, lt), "us");
  r.Add("core.candidates_per_query",
        lt.queries > 0 ? lt.candidates / lt.queries : 0.0, "count");
  r.Add("verify.dedup_ratio", Mean(lt.dedup_ratio), "fraction");
  r.Add("util.l2_us", PerQueryUs(lt.l2_ns, lt), "us");
  r.Add("storage.i8_score_us", PerQueryUs(st.score_ns, st), "us");
  r.Add("storage.rerank_rows_per_query",
        st.queries > 0 ? st.rerank_rows / st.queries : 0.0, "count");
  r.Add("storage.rerank_us", PerQueryUs(st.rerank_ns, st), "us");
  r.Add("serve.apply_us", Median(writes.apply_us), "us");
  r.Add("wal.append_us", Median(writes.append_us), "us");
  r.Add("wal.fsync_us", Median(writes.fsync_us), "us");
  r.Add("wal.bytes_per_record",
        stats.wal_records > 0 ? static_cast<double>(stats.wal_bytes) /
                                    static_cast<double>(stats.wal_records)
                              : 0.0,
        "bytes");
  r.Add("wal.ckpt_capture_ms", writes.capture_ms, "ms");
  r.Add("wal.ckpt_publish_ms", writes.publish_ms, "ms");
  r.Add("core.consolidate_ms", writes.consolidate_ms, "ms");
  r.Add("core.delta_rows", static_cast<double>(delta_rows), "count");
  r.Add("core.tombstones", static_cast<double>(tombstones), "count");
  r.Add("driver.late_p99_us", Percentile(seg.main.late_us, 0.99), "us");
  r.Add("trace.overhead_qps_frac",
        overhead(Rate(seg.untraced.queries.size(), seg.untraced.seconds),
                 Rate(seg.main.queries.size(), seg.main.seconds)),
        "fraction");
  r.Add("trace.overhead_mut_frac",
        overhead(Rate(seg.tail_untraced.mutations.size(),
                      seg.tail_untraced.seconds),
                 Rate(seg.tail.mutations.size(), seg.tail.seconds)),
        "fraction");
  r.Add("trace.replayed_windows", static_cast<double>(rt.windows), "count");
  r.Add("trace.replayed_mutations", static_cast<double>(seg.mutations.size()),
        "count");
  r.Add("trace.replay_mismatches",
        static_cast<double>(rt.mismatches + writes.mismatches), "count");
  const std::map<std::string, double> self = tracer->SelfNs("replay");
  r.Add("trace.self_hash_frac", Share(self, "lsh.hash"), "fraction");
  r.Add("trace.self_csa_bounds_frac", Share(self, "core.csa_bounds"),
        "fraction");
  r.Add("trace.self_csa_drain_frac", Share(self, "core.csa_drain"),
        "fraction");
  r.Add("trace.self_i8_score_frac", Share(self, "storage.i8_score"),
        "fraction");
  r.Add("trace.self_rerank_frac", Share(self, "storage.rerank"), "fraction");
  r.Add("trace.self_l2_frac", Share(self, "util.l2"), "fraction");
  r.Add("trace.self_merge_frac", Share(self, "util.merge"), "fraction");

  std::string top;
  double top_ns = -1.0;
  for (const auto& [name, ns] : self) {
    if (ns > top_ns) {
      top = name;
      top_ns = ns;
    }
  }
  std::printf("trace: largest self time in the layer replay: %s\n",
              top.c_str());
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const Config c = ParseConfig(flags);
  ::mkdir(c.work_dir.c_str(), 0755);

  // Every deployment is set up from scratch and serves an equal share of the
  // run, so one unlucky set-up (memory placement) cannot swing it; their
  // slices are pooled before the calm ones are chosen. A traced run uses one
  // deployment.
  const size_t deployments = c.trace ? 1 : c.deployments;
  std::vector<double> setup_s, rss;
  std::vector<Slice> read_slices, tail_slices;
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<RequestSource> source;
  Answers refs, exact;
  QueryCheck check;
  Tracer tracer;
  Ledger ledger;
  Segment seg;
  std::string context;
  for (size_t r = 0; r < deployments; ++r) {
    dep.reset();
    double seconds = 0.0;
    dep = SetUp(c, &seconds, r == 0 ? &exact : nullptr);
    setup_s.push_back(seconds);
    if (r == 0) {
      context = ContextJson(c, dep.get(), flags,
                            lccs::storage::UringReader::Get() != nullptr);
      std::printf("context %s\n", context.c_str());
      const float* pool = dep->pools.data();
      // Reference answers, untimed. Every deployment builds the same index,
      // so they check the answers of all of them.
      refs = dep->index->AcquireSnapshot().QueryBatch(pool, c.query_pool, c.k,
                                                      c.threads);
      check = [&refs](uint32_t q, const lccs::serve::QueryResponse& resp) {
        return SameNeighbors(resp.neighbors, refs[q]);
      };
      source = std::make_unique<RequestSource>(
          pool, c.query_pool, pool + c.query_pool * dep->data.dim(),
          c.insert_pool, dep->data.n(), dep->data.dim(), c.seed);
    }
    seg = Serve(c, dep.get(), source.get(), check, refs,
                c.seconds / deployments, r + 1 == deployments,
                c.trace ? &tracer : nullptr, &ledger);
    const std::vector<double> ql = QueryLatencies(seg.main);
    const std::vector<double> ml = MutationLatencies(seg.tail);
    rss.push_back(seg.read_peak_rss_mb);
    read_slices.insert(read_slices.end(), seg.read_slices.begin(),
                       seg.read_slices.end());
    tail_slices.insert(tail_slices.end(), seg.tail_slices.begin(),
                       seg.tail_slices.end());
    std::printf(
        "deployment %zu: setup %.3f s | %zu queries: %.1f/s p50 %.0f us "
        "p90 %.0f us p99 %.0f us, peak RSS %.1f MB, steal %.1f%% | "
        "%zu mutations: %.1f/s p50 %.0f us p99 %.0f us, peak RSS %.1f MB\n",
        r + 1, seconds, ql.size(),
        Rate(seg.main.queries.size(), seg.main.seconds), Median(ql),
        Percentile(ql, 0.90), Percentile(ql, 0.99), rss.back(),
        100.0 * seg.read_steal, ml.size(),
        Rate(seg.tail.mutations.size(), seg.tail.seconds), Median(ml),
        Percentile(ml, 0.99), seg.tail_peak_rss_mb);
  }
  const CalmSlices reads = SelectCalm(std::move(read_slices), kReadSliceNs);
  const CalmSlices writes = SelectCalm(std::move(tail_slices), kTailSliceNs);
  std::printf(
      "calm slices: %zu of %zu read slices (steal %.1f%% kept, %.1f%% all) | "
      "%zu of %zu tail slices (steal %.1f%% kept, %.1f%% all)\n",
      reads.kept, reads.slices, 100.0 * reads.steal_kept,
      100.0 * reads.steal_all, writes.kept, writes.slices,
      100.0 * writes.steal_kept, 100.0 * writes.steal_all);

  // --- Checks on the last deployment --------------------------------------
  // A clean log recovers without being changed, so recover_s is the median
  // of several recoveries of the same log; the first one is checked.
  std::vector<double> recoveries = {
      CheckRecovery(dep.get(), seg.mutations, &ledger)};
  while (!c.trace && recoveries.size() < kRecoveries) {
    lccs::serve::ShardedIndex fresh(dep->factory, dep->index_options);
    recoveries.push_back(RecoverInto(*dep, &fresh));
  }
  const double recover_s = Median(recoveries);
  const double recall = RecallAtK(refs, exact, c.k);

  Report report;
  if (!c.trace) {
    const std::string calm = "(calm slices)";
    report.Add("qps", reads.rate, "1/s", calm);
    report.Add("query_p50_us", reads.p50_us, "us", calm);
    report.Add("recall_at_10", recall, "fraction",
               "(query pool vs exact k-NN)");
    report.Add("mut_per_s", writes.rate, "1/s", calm);
    report.Add("mut_p50_us", writes.p50_us, "us", calm);
    report.Add("setup_s", Median(setup_s), "s",
               "(median of " + std::to_string(deployments) + " deployments)");
    // A later deployment starts in a process that already served one, whose
    // allocator keeps some of the freed heap; the first starts clean.
    report.Add("peak_rss_mb", rss.front(), "MB", "(first deployment)");
    std::string each;
    for (const double r : recoveries) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.3f", r);
      each += buf;
    }
    report.Add("recover_s", recover_s, "s",
               "(median of " + std::to_string(recoveries.size()) +
                   " recoveries:" + each + ")");
  } else {
    LayerReport(c, dep.get(), seg, source.get(), &tracer, &ledger, &report);
    const std::string path = c.work_dir + "/trace-" + c.workload + ".json";
    std::ofstream out(path);
    out << tracer.ToJson("\"metrics\": " + report.Json() +
                         ",\n\"context\": " + context);
    std::printf("trace: %zu spans written to %s\n", tracer.size(),
                path.c_str());
  }

  report.Print();
  for (const std::string& e : ledger.errors) {
    std::printf("error: %s\n", e.c_str());
  }
  const bool correct = ledger.failed == 0;
  JsonObject result;
  result.Bool("correct", correct)
      .Int("attempted", static_cast<long long>(ledger.attempted))
      .Int("failed", static_cast<long long>(ledger.failed))
      .Raw("metrics", report.Json());
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
