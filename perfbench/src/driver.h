// Load generators: one closed loop driven from the calling thread, and one
// open loop (a sender thread on a precomputed schedule plus one collector).
#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "serve/server.h"
#include "trace.h"

namespace perfbench {

/// The seeded inputs requests are drawn from (the pools are copied). Queries
/// cycle through a permutation of the query pool (so one window never
/// repeats a query until the pool wraps), inserts cycle through the insert
/// pool, and removes cycle through a permutation of the base ids (a
/// deployment sends fewer removes than there are base ids, so it never
/// removes an id twice).
class RequestSource {
 public:
  RequestSource(const float* query_pool, size_t num_queries,
                const float* insert_pool, size_t num_inserts,
                size_t num_base_ids, size_t dim, uint64_t seed);

  uint32_t NextQuery();
  uint32_t NextInsert();
  int32_t NextRemove();
  /// Uniform draw in [0, 1) deciding each closed-loop request's kind.
  double NextUniform();

  const float* Query(uint32_t i) const {
    return query_pool_.data() + i * dim_;
  }
  const float* Insert(uint32_t i) const {
    return insert_pool_.data() + i * dim_;
  }

 private:
  std::vector<float> query_pool_;
  std::vector<float> insert_pool_;
  size_t num_inserts_;
  size_t dim_;
  std::vector<uint32_t> query_order_;
  std::vector<int32_t> remove_order_;
  size_t next_query_ = 0;
  size_t next_insert_ = 0;
  size_t next_remove_ = 0;
  std::mt19937_64 rng_;
};

struct QueryRecord {
  uint32_t pool = 0;         ///< query-pool row
  uint64_t batch_id = 0;     ///< serving window that answered it
  uint32_t batch_size = 0;   ///< that window's occupancy
  uint64_t state_version = 0;
  int64_t start_ns = 0;      ///< submit (closed) or due time (open)
  int64_t done_ns = 0;       ///< completion observed by the driver
};

struct MutationRecord {
  bool insert = false;
  uint32_t vec = 0;          ///< insert-pool row (inserts)
  int32_t id = -1;           ///< assigned id (insert) or target (remove)
  uint64_t state_version = 0;
  bool applied = false;
  int64_t start_ns = 0;
  int64_t done_ns = 0;
};

/// What one phase of load produced. Only successful requests are recorded;
/// rejected, broken and wrong ones are counted in `failed`.
struct PhaseResult {
  double seconds = 0.0;  ///< first submit to last completion
  int64_t start_ns = 0;  ///< first submit (open loop: schedule start)
  int64_t end_ns = 0;    ///< last completion
  std::vector<QueryRecord> queries;
  std::vector<MutationRecord> mutations;
  std::vector<double> late_us;  ///< generator lateness per send
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;

  void Fail(const std::string& what);
};

/// Called with each query response; returns false when the answer is wrong.
using QueryCheck =
    std::function<bool(uint32_t pool, const lccs::serve::QueryResponse&)>;

struct Mix {
  double insert_fraction = 0.0;
  double remove_fraction = 0.0;  ///< the rest are queries
};

/// Keeps exactly `in_flight` requests outstanding from the calling thread
/// for `seconds` or until `max_requests` were sent (0 = no limit), then
/// drains. Each completion is timestamped when the
/// driver observes it, and its slot is refilled at once; lateness is the
/// gap between observing a completion and submitting its replacement.
/// With a `tracer`, every completed request is also recorded as a span
/// ("query" keyed by its window, "mutation" keyed by its version).
PhaseResult RunClosedLoop(lccs::serve::Server& server, RequestSource& source,
                          const Mix& mix, size_t in_flight, double seconds,
                          size_t max_requests, size_t k,
                          const QueryCheck& check, Tracer* tracer);

/// Read-only open loop: sends round(rate_qps · seconds) queries on a
/// Poisson schedule precomputed from `seed`, from one sender thread, while
/// one collector thread resolves responses in send order. Latency runs from
/// each request's due time; lateness is actual send minus due time.
PhaseResult RunOpenLoop(lccs::serve::Server& server, RequestSource& source,
                        double rate_qps, double seconds, size_t k,
                        uint64_t seed, const QueryCheck& check,
                        Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
