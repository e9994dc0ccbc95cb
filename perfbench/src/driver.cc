#include "driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <mutex>
#include <numeric>
#include <thread>

#include "bench_util.h"

namespace perfbench {

using lccs::serve::MutationResponse;
using lccs::serve::QueryResponse;

RequestSource::RequestSource(const float* query_pool, size_t num_queries,
                             const float* insert_pool, size_t num_inserts,
                             size_t num_base_ids, size_t dim, uint64_t seed)
    : query_pool_(query_pool, query_pool + num_queries * dim),
      insert_pool_(insert_pool, insert_pool + num_inserts * dim),
      num_inserts_(num_inserts),
      dim_(dim),
      query_order_(num_queries),
      remove_order_(num_base_ids),
      rng_(seed) {
  std::iota(query_order_.begin(), query_order_.end(), 0u);
  std::shuffle(query_order_.begin(), query_order_.end(), rng_);
  std::iota(remove_order_.begin(), remove_order_.end(), 0);
  std::shuffle(remove_order_.begin(), remove_order_.end(), rng_);
}

uint32_t RequestSource::NextQuery() {
  const uint32_t q = query_order_[next_query_];
  next_query_ = (next_query_ + 1) % query_order_.size();
  return q;
}

uint32_t RequestSource::NextInsert() {
  const auto i = static_cast<uint32_t>(next_insert_);
  next_insert_ = (next_insert_ + 1) % num_inserts_;
  return i;
}

int32_t RequestSource::NextRemove() {
  const int32_t id = remove_order_[next_remove_];
  next_remove_ = (next_remove_ + 1) % remove_order_.size();
  return id;
}

double RequestSource::NextUniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
}

void PhaseResult::Fail(const std::string& what) {
  ++failed;
  if (first_error.empty()) first_error = what;
}

namespace {

enum class Kind : uint8_t { kQuery, kInsert, kRemove };

struct Slot {
  bool busy = false;
  Kind kind = Kind::kQuery;
  uint32_t arg = 0;       ///< pool row (query / insert)
  int32_t target = -1;    ///< remove target
  int64_t start_ns = 0;
  std::future<QueryResponse> query;
  std::future<MutationResponse> mutation;

  bool Ready() const {
    const auto zero = std::chrono::seconds(0);
    return kind == Kind::kQuery
               ? query.wait_for(zero) == std::future_status::ready
               : mutation.wait_for(zero) == std::future_status::ready;
  }
  void WaitFor(std::chrono::microseconds timeout) const {
    if (kind == Kind::kQuery) {
      query.wait_for(timeout);
    } else {
      mutation.wait_for(timeout);
    }
  }
};

void RecordQuery(PhaseResult* out, uint32_t pool, int64_t start_ns,
                 int64_t done_ns, std::future<QueryResponse>* future,
                 const QueryCheck& check, Tracer* tracer) {
  try {
    const QueryResponse response = future->get();
    if (check && !check(pool, response)) {
      out->Fail("query " + std::to_string(pool) +
                " differs from its reference answer");
      return;
    }
    QueryRecord rec;
    rec.pool = pool;
    rec.batch_id = response.batch_id;
    rec.batch_size = static_cast<uint32_t>(response.batch_size);
    rec.state_version = response.state_version;
    rec.start_ns = start_ns;
    rec.done_ns = done_ns;
    out->queries.push_back(rec);
    if (tracer != nullptr) {
      tracer->Add("query", start_ns, done_ns, -1, rec.batch_id);
    }
  } catch (const std::exception& e) {
    out->Fail(std::string("query failed: ") + e.what());
  }
}

}  // namespace

PhaseResult RunClosedLoop(lccs::serve::Server& server, RequestSource& source,
                          const Mix& mix, size_t in_flight, double seconds,
                          size_t max_requests, size_t k,
                          const QueryCheck& check, Tracer* tracer) {
  PhaseResult out;
  std::vector<Slot> slots(in_flight);
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  auto more = [&](int64_t now) {
    return now < end && (max_requests == 0 || out.attempted < max_requests);
  };

  auto submit = [&](Slot& slot, int64_t observed_ns) {
    const double u = source.NextUniform();
    slot.kind = u < mix.insert_fraction ? Kind::kInsert
                : u < mix.insert_fraction + mix.remove_fraction
                    ? Kind::kRemove
                    : Kind::kQuery;
    const int64_t now = NowNs();
    if (observed_ns > 0) {
      out.late_us.push_back(static_cast<double>(now - observed_ns) * 1e-3);
    }
    slot.start_ns = now;
    slot.busy = true;
    ++out.attempted;
    switch (slot.kind) {
      case Kind::kQuery:
        slot.arg = source.NextQuery();
        slot.query = server.SubmitQuery(source.Query(slot.arg), k);
        break;
      case Kind::kInsert:
        slot.arg = source.NextInsert();
        slot.mutation = server.SubmitInsert(source.Insert(slot.arg));
        break;
      case Kind::kRemove:
        slot.target = source.NextRemove();
        slot.mutation = server.SubmitRemove(slot.target);
        break;
    }
  };

  auto complete = [&](Slot& slot, int64_t done_ns) {
    slot.busy = false;
    if (slot.kind == Kind::kQuery) {
      RecordQuery(&out, slot.arg, slot.start_ns, done_ns, &slot.query, check,
                  tracer);
      return;
    }
    try {
      const MutationResponse response = slot.mutation.get();
      MutationRecord rec;
      rec.insert = slot.kind == Kind::kInsert;
      rec.vec = slot.arg;
      rec.id = response.id;
      rec.state_version = response.state_version;
      rec.applied = response.applied;
      rec.start_ns = slot.start_ns;
      rec.done_ns = done_ns;
      if (!rec.insert && (!response.applied || response.id != slot.target)) {
        out.Fail("remove of live id " + std::to_string(slot.target) +
                 " was refused");
        return;
      }
      out.mutations.push_back(rec);
      if (tracer != nullptr) {
        tracer->Add("mutation", rec.start_ns, done_ns, -1, rec.state_version);
      }
    } catch (const std::exception& e) {
      out.Fail(std::string("mutation failed: ") + e.what());
    }
  };

  for (Slot& slot : slots) {
    if (more(NowNs())) submit(slot, 0);
  }
  int64_t last_done = start;
  for (;;) {
    Slot* oldest = nullptr;
    for (Slot& slot : slots) {
      if (!slot.busy) continue;
      if (oldest == nullptr || slot.start_ns < oldest->start_ns) oldest = &slot;
    }
    if (oldest == nullptr) break;
    oldest->WaitFor(std::chrono::microseconds(100));
    for (Slot& slot : slots) {
      if (!slot.busy || !slot.Ready()) continue;
      const int64_t done = NowNs();
      complete(slot, done);
      last_done = done;
      if (more(done)) submit(slot, done);
    }
  }
  out.start_ns = start;
  out.end_ns = last_done;
  out.seconds = static_cast<double>(last_done - start) * 1e-9;
  return out;
}

PhaseResult RunOpenLoop(lccs::serve::Server& server, RequestSource& source,
                        double rate_qps, double seconds, size_t k,
                        uint64_t seed, const QueryCheck& check,
                        Tracer* tracer) {
  PhaseResult out;
  // The whole arrival schedule is fixed before the first send: exactly
  // rate·seconds Poisson arrivals, their exponential gaps rescaled to span
  // the phase, so every run offers the same count at the same mean rate.
  std::vector<int64_t> due(
      static_cast<size_t>(std::max(1.0, std::round(rate_qps * seconds))));
  {
    std::mt19937_64 rng(seed ^ 0x6f70656e6c6f6f70ull);
    std::exponential_distribution<double> gap(1.0);
    std::vector<double> at(due.size() + 1);
    double t = 0.0;
    for (double& a : at) a = (t += gap(rng));
    for (size_t i = 0; i < due.size(); ++i) {
      due[i] = static_cast<int64_t>(at[i] / at.back() * seconds * 1e9);
    }
  }

  struct Pending {
    uint32_t pool = 0;
    int64_t due_ns = 0;
    std::future<QueryResponse> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool sending = true;
  PhaseResult collected;  // written by the collector thread only
  int64_t last_done = 0;

  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || !sending; });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      p.future.wait();
      const int64_t done = NowNs();
      RecordQuery(&collected, p.pool, p.due_ns, done, &p.future, check,
                  tracer);
      last_done = done;
    }
  });

  const int64_t start = NowNs();
  try {
    for (const int64_t offset : due) {
      const int64_t due_ns = start + offset;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::nanoseconds(due_ns))));
      const int64_t now = NowNs();
      out.late_us.push_back(static_cast<double>(now - due_ns) * 1e-3);
      const uint32_t pool = source.NextQuery();
      ++out.attempted;
      std::future<QueryResponse> f = server.SubmitQuery(source.Query(pool), k);
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(Pending{pool, due_ns, std::move(f)});
      cv.notify_one();
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu);
      sending = false;
    }
    cv.notify_one();
    collector.join();
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    sending = false;
  }
  cv.notify_one();
  collector.join();

  out.queries = std::move(collected.queries);
  out.failed = collected.failed;
  out.first_error = collected.first_error;
  out.start_ns = start;
  out.end_ns = std::max(last_done, start);
  out.seconds = static_cast<double>(out.end_ns - start) * 1e-9;
  return out;
}

}  // namespace perfbench
