#ifndef LCCS_UTIL_THREAD_POOL_H_
#define LCCS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace lccs {
namespace util {

/// Lazily-initialized persistent work-stealing thread pool. Workers are
/// spawned once (on first use) and live for the process, so small parallel
/// batches stop paying std::thread creation/join latency on every call —
/// the old ParallelFor spawned fresh threads per invocation, which dominated
/// AnnIndex::QueryBatch at batch sizes 1–64.
///
/// Two kinds of work share the workers. Fire-and-forget tasks (Submit) go
/// to per-worker deques: a worker pops its own LIFO and steals FIFO from the
/// others when idle. Fork-join ranges (ParallelRange) run on *teams*: a
/// root call — one made outside any range — forms a team of at most
/// `parallelism` threads, itself plus workers it recruits from the pool.
/// Every chunk of the root range and of every range nested inside it stays
/// in that team, so one root call never occupies more than `parallelism`
/// threads however deep its nesting goes. Each team member keeps its own
/// chunk deque; a member with nothing to run (or waiting for its own range)
/// pops its most recent chunks first (LIFO), then steals the oldest chunk
/// of a peer (FIFO), Cilk style, and sleeps only when the team has no
/// queued chunk at all. The root caller can run every chunk alone, so
/// progress never depends on pool capacity (the pool works even with a
/// single hardware thread, and when every worker is busy elsewhere).
///
/// Worker count defaults to std::thread::hardware_concurrency() and can be
/// pinned with the LCCS_POOL_WORKERS environment variable (read once, at
/// first use).
class ThreadPool {
 public:
  /// The process-wide pool. Constructed on first call.
  static ThreadPool& Instance();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  size_t num_workers() const { return workers_.size(); }

  /// Chunked-range fork-join: splits [0, n) into min(parallelism, n)
  /// balanced contiguous chunks (sizes differ by at most one — no empty tail
  /// ranges) and runs fn(begin, end) once per chunk. Blocks until every
  /// chunk has finished; the caller runs chunks too.
  ///
  /// A root call (one not made from inside a chunk) caps its team at
  /// `parallelism` threads, the caller included; 0 means workers + caller.
  /// A nested call — made from inside a chunk of any depth — forks its
  /// chunks into the same team and helps run them, so nesting adds
  /// parallelism inside the cap, never beyond it; its `parallelism` only
  /// sets its chunk count (0 = the team's size). A range that fits one
  /// chunk (n == 1 or parallelism == 1) runs fn(0, n) inline on the caller
  /// and forms no team: ranges nested in an inline root are roots of their
  /// own. If fn throws, the range still runs to completion and the first
  /// exception is rethrown to the caller once no chunk references it
  /// anymore — through every enclosing range up to the root caller.
  void ParallelRange(size_t n, size_t parallelism,
                     const std::function<void(size_t, size_t)>& fn);

  /// Fire-and-forget task submission (round-robin across worker deques).
  /// Building block for long-lived request serving on top of the pool.
  /// Tasks run on workers only — a ParallelRange caller waits on its own
  /// team's chunks and never picks up a submitted task — but a task that
  /// blocks still occupies a worker, so queue work, don't park in it. A
  /// ParallelRange called from inside a task is a root call with its own
  /// team. No execution guarantee at shutdown — tasks still queued when the
  /// pool is destroyed (process exit) are dropped; a task that throws
  /// terminates the process (std::thread semantics).
  void Submit(std::function<void()> task);

 private:
  struct Worker;
  struct Team;
  struct Range;

  explicit ThreadPool(size_t num_workers);
  void WorkerLoop(size_t index);
  /// Enqueues one task, round-robin across worker deques, and wakes the
  /// target worker.
  void PushTask(std::function<void()> task);
  /// Pops one task — the home deque first (LIFO), then steals from the
  /// other deques (FIFO) — and runs it. Returns false if every deque was
  /// empty.
  bool RunOneTask(size_t home_index);
  /// Splits [0, n) into `chunks` chunks of `range`, queues all but the
  /// first on the calling member's team deque (recruiting workers while the
  /// team is below its cap), runs the first, and helps run team chunks until
  /// the range has finished.
  void ForkJoin(Team* team, size_t slot, Range* range, size_t n,
                size_t chunks);
  /// Ticket body: a worker joins `team` as a member if it still has a free
  /// slot and unfinished work, then runs team chunks until the root range
  /// completes.
  void JoinTeam(const std::shared_ptr<Team>& team);

  /// The team the calling thread is a member of while it runs inside a
  /// fork-join range, and its member slot; null outside any range.
  static thread_local Team* tl_team_;
  static thread_local size_t tl_slot_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> next_submit_{0};
};

/// Runs fn(begin, end) over [0, n) split into min(num_threads, n) contiguous
/// chunks on the persistent pool (workers + caller when 0). Thin wrapper
/// over ThreadPool::ParallelRange, with its team semantics: a root call
/// caps its whole fork-join tree at `num_threads` threads, and a call
/// nested inside a chunk forks into that team instead of running inline —
/// so ShardedSnapshot::QueryBatch's loop over shards and each shard's
/// per-query phases balance against each other on the same few threads.
/// Per-query latency figures in the paper remain single-thread: a Query is
/// a window of one run with num_threads = 1, so every pass runs inline.
void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn,
                 size_t num_threads = 0);

}  // namespace util
}  // namespace lccs

#endif  // LCCS_UTIL_THREAD_POOL_H_
