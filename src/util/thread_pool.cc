#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>

namespace lccs {
namespace util {

namespace {

size_t DefaultWorkerCount() {
  const char* env = std::getenv("LCCS_POOL_WORKERS");
  if (env != nullptr && *env != '\0') {
    const long long parsed = std::atoll(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

struct ThreadPool::Worker {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::function<void()>> tasks;
};

/// One forked range. Lives on the stack of the thread that forked it, which
/// returns only once `remaining` is 0 — so no chunk outlives it. The team
/// mutex guards `remaining` and `error`.
struct ThreadPool::Range {
  const std::function<void(size_t, size_t)>* fn;
  size_t remaining;          ///< chunks queued or running
  std::exception_ptr error;  ///< first one wins
};

/// The threads running one root range and everything nested inside it.
/// Shared by the root caller and the join tickets it queued on the pool, so
/// a ticket that runs after the root returned still finds a live (finished)
/// team. One mutex guards the whole team: members are few (the root's
/// parallelism) and chunks are coarse.
struct ThreadPool::Team : std::enable_shared_from_this<Team> {
  struct Chunk {
    Range* range;
    size_t begin, end;
  };

  explicit Team(size_t cap) : capacity(cap), deques(cap) {}

  /// The calling member's newest chunk (LIFO), else a peer's oldest (FIFO).
  bool Pop(size_t slot, Chunk* out) {
    std::deque<Chunk>& own = deques[slot];
    if (!own.empty()) {
      *out = own.back();
      own.pop_back();
      return true;
    }
    for (size_t offset = 1; offset < members; ++offset) {
      std::deque<Chunk>& peer = deques[(slot + offset) % members];
      if (!peer.empty()) {
        *out = peer.front();
        peer.pop_front();
        return true;
      }
    }
    return false;
  }

  /// Runs one chunk and counts it down; `lock` (on mu) is released while
  /// the chunk body runs and held again on return. A chunk never lets an
  /// exception escape: it is parked in its range for the forking thread.
  void Run(const Chunk& chunk, std::unique_lock<std::mutex>* lock) {
    lock->unlock();
    std::exception_ptr error;
    try {
      (*chunk.range->fn)(chunk.begin, chunk.end);
    } catch (...) {
      error = std::current_exception();
    }
    lock->lock();
    if (error && !chunk.range->error) chunk.range->error = std::move(error);
    if (--chunk.range->remaining == 0) cv.notify_all();
  }

  /// Runs team chunks — the slot's newest first, then a peer's oldest —
  /// until `done()` holds, sleeping only while no chunk is queued. `lock`
  /// holds mu on entry and on return.
  template <typename Done>
  void RunUntil(size_t slot, std::unique_lock<std::mutex>* lock, Done done) {
    Chunk chunk;
    while (!done()) {
      if (Pop(slot, &chunk)) {
        Run(chunk, lock);
      } else {
        cv.wait(*lock);
      }
    }
  }

  std::mutex mu;
  /// Signalled when chunks are queued, a range finishes, or the team ends.
  std::condition_variable cv;
  const size_t capacity;  ///< member cap: the root call's parallelism
  size_t members = 1;     ///< slots 0..members-1 taken; the root holds 0
  size_t tickets = 0;     ///< join tickets queued on the pool, not yet run
  bool done = false;      ///< the root range finished; members leave
  std::vector<std::deque<Chunk>> deques;  ///< one per member slot
};

thread_local ThreadPool::Team* ThreadPool::tl_team_ = nullptr;
thread_local size_t ThreadPool::tl_slot_ = 0;

ThreadPool& ThreadPool::Instance() {
  static ThreadPool pool(DefaultWorkerCount());
  return pool;
}

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mu);
    worker->cv.notify_all();
  }
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::PushTask(std::function<void()> task) {
  const size_t w =
      next_submit_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  Worker& worker = *workers_[w];
  size_t backlog;
  {
    std::lock_guard<std::mutex> lock(worker.mu);
    worker.tasks.push_back(std::move(task));
    backlog = worker.tasks.size();
  }
  worker.cv.notify_one();
  // The target already had work queued, so it may be busy for a while —
  // poke a peer so an idle worker rescans for steals now instead of at its
  // next backoff timeout.
  if (backlog > 1 && workers_.size() > 1) {
    workers_[(w + 1) % workers_.size()]->cv.notify_one();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  PushTask(std::move(task));
}

bool ThreadPool::RunOneTask(size_t home_index) {
  std::function<void()> task;
  {
    Worker& home = *workers_[home_index];
    std::lock_guard<std::mutex> lock(home.mu);
    if (!home.tasks.empty()) {
      task = std::move(home.tasks.back());
      home.tasks.pop_back();
    }
  }
  if (!task) {
    for (size_t offset = 1; offset < workers_.size() && !task; ++offset) {
      Worker& victim = *workers_[(home_index + offset) % workers_.size()];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.front());
        victim.tasks.pop_front();
      }
    }
  }
  if (!task) return false;
  task();
  return true;
}

void ThreadPool::WorkerLoop(size_t index) {
  Worker& self = *workers_[index];
  std::chrono::milliseconds idle_wait(1);
  while (!stop_.load(std::memory_order_acquire)) {
    if (RunOneTask(index)) {
      idle_wait = std::chrono::milliseconds(1);
      continue;
    }
    // Nothing runnable anywhere right now. Sleep on the own queue's cv;
    // the timeout doubles as a periodic steal re-scan. Deliberately not a
    // predicated wait: PushTask pokes a peer's cv when a deque backs up,
    // and any wakeup — own push, peer poke, spurious — should fall through
    // to a full rescan. Exponential backoff keeps a long-idle pool at ~16
    // wakeups/s per worker instead of spinning at the re-scan interval,
    // while a busy pool still discovers stealable work within a
    // millisecond.
    {
      std::unique_lock<std::mutex> lock(self.mu);
      if (self.tasks.empty() && !stop_.load(std::memory_order_acquire)) {
        self.cv.wait_for(lock, idle_wait);
      }
    }
    idle_wait = std::min(idle_wait * 2, std::chrono::milliseconds(64));
  }
}

void ThreadPool::ParallelRange(size_t n, size_t parallelism,
                               const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  Team* const team = tl_team_;
  if (parallelism == 0) {
    parallelism = team != nullptr ? team->capacity : workers_.size() + 1;
  }
  const size_t chunks = std::min(parallelism, n);
  if (chunks <= 1) {
    fn(0, n);
    return;
  }
  Range range{&fn, chunks, nullptr};
  if (team != nullptr) {
    // Nested: fork into the enclosing team, whatever the depth.
    ForkJoin(team, tl_slot_, &range, n, chunks);
  } else {
    // Root: form a team capped at `parallelism` threads (never more than
    // the workers plus this caller could fill) and take slot 0.
    const auto root = std::make_shared<Team>(
        std::min(parallelism, workers_.size() + 1));
    tl_team_ = root.get();
    tl_slot_ = 0;
    ForkJoin(root.get(), 0, &range, n, chunks);
    tl_team_ = nullptr;
    {
      std::lock_guard<std::mutex> lock(root->mu);
      root->done = true;
    }
    root->cv.notify_all();
  }
  if (range.error) std::rethrow_exception(range.error);
}

void ThreadPool::ForkJoin(Team* team, size_t slot, Range* range, size_t n,
                          size_t chunks) {
  // Balanced contiguous bounds: chunk c covers [c*n/chunks, (c+1)*n/chunks),
  // so sizes differ by at most one — no empty tail ranges when n is barely
  // above the chunk count.
  auto chunk_begin = [n, chunks](size_t c) { return c * n / chunks; };
  std::unique_lock<std::mutex> lock(team->mu);
  std::deque<Team::Chunk>& own = team->deques[slot];
  for (size_t c = chunks - 1; c >= 1; --c) {
    own.push_back({range, chunk_begin(c), chunk_begin(c + 1)});
  }
  // Idle members wake for the new chunks; while the team is below its cap,
  // one join ticket per queued chunk recruits a worker.
  const size_t recruit = std::min(
      chunks - 1, team->capacity - team->members - team->tickets);
  team->tickets += recruit;
  team->cv.notify_all();
  if (recruit > 0) {
    lock.unlock();
    const std::shared_ptr<Team> shared = team->shared_from_this();
    for (size_t i = 0; i < recruit; ++i) {
      PushTask([this, shared] { JoinTeam(shared); });
    }
    lock.lock();
  }
  // The forking thread runs the first chunk itself, then helps until the
  // range is done: its own newest chunks first — the rest of this range
  // unless a peer took them — then the oldest chunk of a peer.
  team->Run({range, 0, chunk_begin(1)}, &lock);
  team->RunUntil(slot, &lock, [range] { return range->remaining == 0; });
}

void ThreadPool::JoinTeam(const std::shared_ptr<Team>& team) {
  std::unique_lock<std::mutex> lock(team->mu);
  --team->tickets;
  if (team->done || team->members == team->capacity) return;
  const size_t slot = team->members++;
  tl_team_ = team.get();
  tl_slot_ = slot;
  team->RunUntil(slot, &lock, [&team] { return team->done; });
  tl_team_ = nullptr;
}

void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn,
                 size_t num_threads) {
  if (n == 0) return;
  if (n == 1 || num_threads == 1) {
    fn(0, n);
    return;
  }
  ThreadPool::Instance().ParallelRange(n, num_threads, fn);
}

}  // namespace util
}  // namespace lccs
