#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace lccs {
namespace util {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(kN, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ZeroElementsIsNoop) {
  bool called = false;
  ParallelFor(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SingleThreadPath) {
  std::atomic<size_t> total{0};
  ParallelFor(
      100, [&](size_t begin, size_t end) { total.fetch_add(end - begin); },
      1);
  EXPECT_EQ(total.load(), 100u);
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::atomic<size_t> total{0};
  ParallelFor(
      3, [&](size_t begin, size_t end) { total.fetch_add(end - begin); }, 16);
  EXPECT_EQ(total.load(), 3u);
}

TEST(ParallelForTest, ChunksAreContiguousAndOrdered) {
  constexpr size_t kN = 1000;
  std::vector<int> owner(kN, -1);
  std::atomic<int> next_chunk{0};
  ParallelFor(
      kN,
      [&](size_t begin, size_t end) {
        const int chunk = next_chunk.fetch_add(1);
        for (size_t i = begin; i < end; ++i) owner[i] = chunk;
      },
      4);
  // Every index assigned, and each chunk's indices are contiguous.
  for (size_t i = 0; i < kN; ++i) ASSERT_NE(owner[i], -1);
  for (size_t i = 1; i < kN; ++i) {
    if (owner[i] != owner[i - 1]) {
      // Chunk boundary: the previous chunk must never reappear.
      for (size_t j = i + 1; j < kN; ++j) {
        EXPECT_NE(owner[j], owner[i - 1]);
      }
    }
  }
}

TEST(ParallelForTest, BalancedChunkingNoEmptyRanges) {
  // n slightly above the thread count used to leave trailing workers with
  // empty ranges (ceil-chunking); balanced bounds give every chunk either
  // floor(n/chunks) or ceil(n/chunks) indices.
  constexpr size_t kN = 10;
  constexpr size_t kThreads = 8;
  std::mutex mu;
  std::vector<size_t> sizes;
  ParallelFor(
      kN,
      [&](size_t begin, size_t end) {
        std::lock_guard<std::mutex> lock(mu);
        sizes.push_back(end - begin);
      },
      kThreads);
  ASSERT_EQ(sizes.size(), kThreads);
  size_t total = 0, smallest = kN, largest = 0;
  for (const size_t s : sizes) {
    EXPECT_GE(s, 1u) << "empty chunk";
    total += s;
    smallest = std::min(smallest, s);
    largest = std::max(largest, s);
  }
  EXPECT_EQ(total, kN);
  EXPECT_LE(largest - smallest, 1u);
}

TEST(ThreadPoolTest, InstanceIsPersistent) {
  ThreadPool& a = ThreadPool::Instance();
  ThreadPool& b = ThreadPool::Instance();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_workers(), 1u);
}

TEST(ThreadPoolTest, SubmitRunsFireAndForgetTasks) {
  constexpr int kTasks = 64;
  std::atomic<int> done{0};
  for (int i = 0; i < kTasks; ++i) {
    ThreadPool::Instance().Submit([&done] { done.fetch_add(1); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, DepthThreeNestingCoversEveryIndexOnce) {
  constexpr size_t kOuter = 6;
  constexpr size_t kMiddle = 8;
  constexpr size_t kInner = 50;
  std::vector<std::atomic<int>> hits(kOuter * kMiddle * kInner);
  ParallelFor(
      kOuter,
      [&](size_t ob, size_t oe) {
        for (size_t o = ob; o < oe; ++o) {
          ParallelFor(kMiddle, [&, o](size_t mb, size_t me) {
            for (size_t m = mb; m < me; ++m) {
              ParallelFor(
                  kInner,
                  [&, o, m](size_t ib, size_t ie) {
                    for (size_t i = ib; i < ie; ++i) {
                      hits[(o * kMiddle + m) * kInner + i].fetch_add(1);
                    }
                  },
                  4);
            }
          });
        }
      },
      3);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, RootParallelismCapsThreadsAcrossNestedChunks) {
  // Every chunk of the root range and of the ranges nested in it — even
  // nested calls asking for more chunks than the root's parallelism — runs
  // on at most `parallelism` distinct threads. The chunks sleep briefly so
  // idle threads have every chance to steal.
  for (const size_t parallelism : {size_t{2}, size_t{3}}) {
    std::mutex mu;
    std::set<std::thread::id> threads;
    auto record = [&] {
      std::lock_guard<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
    };
    std::atomic<size_t> leaves{0};
    ParallelFor(
        4,
        [&](size_t ob, size_t oe) {
          record();
          for (size_t o = ob; o < oe; ++o) {
            ParallelFor(
                6,
                [&](size_t mb, size_t me) {
                  record();
                  for (size_t m = mb; m < me; ++m) {
                    ParallelFor(
                        8,
                        [&](size_t ib, size_t ie) {
                          record();
                          std::this_thread::sleep_for(
                              std::chrono::microseconds(200));
                          leaves.fetch_add(ie - ib);
                        },
                        0);
                  }
                },
                8);
          }
        },
        parallelism);
    EXPECT_EQ(leaves.load(), 4u * 6u * 8u);
    EXPECT_GE(threads.size(), 1u);
    EXPECT_LE(threads.size(), parallelism) << "parallelism " << parallelism;
  }
}

TEST(ThreadPoolTest, NestedExceptionReachesRootAfterEveryChunkFinished) {
  constexpr size_t kOuter = 4;
  constexpr size_t kInner = 8;
  std::atomic<size_t> finished{0};
  size_t finished_at_catch = 0;
  try {
    ParallelFor(
        kOuter,
        [&](size_t ob, size_t oe) {
          for (size_t o = ob; o < oe; ++o) {
            ParallelFor(
                kInner,
                [&, o](size_t ib, size_t ie) {
                  for (size_t i = ib; i < ie; ++i) {
                    if (o == 1 && i == 0) {
                      finished.fetch_add(1);
                      throw std::runtime_error("nested chunk failed");
                    }
                    // Siblings outlast the throw, so an early rethrow would
                    // be caught with chunks still running.
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                    finished.fetch_add(1);
                  }
                },
                kInner);
          }
        },
        3);
    ADD_FAILURE() << "the nested exception did not reach the root caller";
  } catch (const std::runtime_error& e) {
    finished_at_catch = finished.load();
    EXPECT_STREQ(e.what(), "nested chunk failed");
  }
  EXPECT_EQ(finished_at_catch, kOuter * kInner);
  // The pool stays usable afterwards.
  std::atomic<size_t> total{0};
  ParallelFor(64, [&](size_t begin, size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPoolTest, NestedParallelForInSubmittedTaskFinishesWithWorkersBusy) {
  // Every other worker is parked in a blocking task, so the nested ranges
  // of the last task can recruit nobody: its thread must run them alone.
  ThreadPool& pool = ThreadPool::Instance();
  const size_t blockers = pool.num_workers() - 1;
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    size_t started = 0;
    size_t exited = 0;
    bool release = false;
    bool done = false;
    size_t total = 0;
  };
  const auto shared = std::make_shared<Shared>();
  const auto deadline = [] {
    return std::chrono::steady_clock::now() + std::chrono::seconds(30);
  };
  for (size_t b = 0; b < blockers; ++b) {
    pool.Submit([shared, deadline] {
      std::unique_lock<std::mutex> lock(shared->mu);
      ++shared->started;
      shared->cv.notify_all();
      shared->cv.wait_until(lock, deadline(), [&] { return shared->release; });
      ++shared->exited;
      shared->cv.notify_all();
    });
  }
  pool.Submit([shared, deadline, blockers] {
    {
      std::unique_lock<std::mutex> lock(shared->mu);
      shared->cv.wait_until(lock, deadline(),
                            [&] { return shared->started == blockers; });
    }
    std::atomic<size_t> total{0};
    ParallelFor(
        8,
        [&](size_t ob, size_t oe) {
          for (size_t o = ob; o < oe; ++o) {
            ParallelFor(16, [&](size_t ib, size_t ie) {
              total.fetch_add(ie - ib);
            });
          }
        },
        0);
    std::lock_guard<std::mutex> lock(shared->mu);
    shared->total = total.load();
    shared->done = true;
    shared->cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(shared->mu);
  const bool finished =
      shared->cv.wait_until(lock, deadline(), [&] { return shared->done; });
  const bool all_busy = shared->started == blockers;
  shared->release = true;
  shared->cv.notify_all();
  shared->cv.wait_until(lock, deadline(),
                        [&] { return shared->exited == blockers; });
  EXPECT_TRUE(all_busy);
  ASSERT_TRUE(finished) << "nested ParallelFor stalled with every worker busy";
  EXPECT_EQ(shared->total, 8u * 16u);
}

TEST(ThreadPoolTest, ConcurrentParallelForFromExternalThreads) {
  constexpr size_t kCallers = 4;
  constexpr size_t kN = 5000;
  std::vector<std::atomic<size_t>> totals(kCallers);
  for (auto& t : totals) t.store(0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&totals, c] {
      ParallelFor(kN, [&totals, c](size_t begin, size_t end) {
        totals[c].fetch_add(end - begin);
      });
    });
  }
  for (auto& t : callers) t.join();
  for (size_t c = 0; c < kCallers; ++c) {
    EXPECT_EQ(totals[c].load(), kN) << "caller " << c;
  }
}

TEST(ThreadPoolTest, ExceptionInChunkPropagatesAfterRangeCompletes) {
  constexpr size_t kN = 64;
  std::atomic<size_t> visited{0};
  EXPECT_THROW(
      ParallelFor(
          kN,
          [&](size_t begin, size_t end) {
            visited.fetch_add(end - begin);
            if (begin == 0) throw std::runtime_error("chunk failed");
          },
          4),
      std::runtime_error);
  // Every chunk still ran (the range completes before the rethrow), and the
  // pool stays usable afterwards.
  EXPECT_EQ(visited.load(), kN);
  std::atomic<size_t> total{0};
  ParallelFor(kN, [&](size_t begin, size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), kN);
}

TEST(ThreadPoolTest, ManySmallBatchesReusePool) {
  // The spawn-per-call model paid thread creation on each of these; the
  // persistent pool must grind through thousands of tiny ranges quickly and
  // correctly.
  std::atomic<size_t> total{0};
  for (int round = 0; round < 2000; ++round) {
    ParallelFor(3, [&](size_t begin, size_t end) {
      total.fetch_add(end - begin);
    });
  }
  EXPECT_EQ(total.load(), 6000u);
}

}  // namespace
}  // namespace util
}  // namespace lccs
