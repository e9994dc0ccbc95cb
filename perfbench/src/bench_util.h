// Small helpers shared by the benchmark's translation units: clocks,
// percentiles, process memory, exact k-NN for recall, JSON output.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/metric.h"
#include "util/topk.h"

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Process high-water resident set (VmHWM) in MiB.
double PeakRssMb();

/// Returns freed heap memory to the kernel (malloc_trim), then resets VmHWM
/// to the current resident set (writes "5" to /proc/self/clear_refs), so
/// PeakRssMb then measures from this point on. Returns false when the
/// kernel refused.
bool ResetPeakRss();

/// Jiffies of all CPUs, from the first line of /proc/stat.
struct CpuTimes {
  int64_t at_ns = 0;   ///< when they were read (NowNs)
  double total = 0.0;
  double steal = 0.0;  ///< time the hypervisor ran something else
};

/// Reads /proc/stat; all zero when it cannot be read.
CpuTimes ReadCpuTimes();

/// Share of CPU time stolen by the hypervisor between two readings.
double StealShare(const CpuTimes& from, const CpuTimes& to);

/// Reads CpuTimes every `period_ns` on its own thread, from construction
/// until Stop(), so a phase can be cut into slices afterwards and each
/// slice given the steal share of the host while it ran.
class StealSampler {
 public:
  explicit StealSampler(int64_t period_ns);
  ~StealSampler() { Stop(); }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  void Stop();
  /// Steal share over the shortest sampled interval that covers
  /// [begin_ns, end_ns). Call after Stop().
  double Share(int64_t begin_ns, int64_t end_ns) const;

 private:
  int64_t period_ns_;
  std::vector<CpuTimes> samples_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Cores this process may run on (sched_getaffinity, else
/// hardware_concurrency).
size_t NumCpus();

/// Exact k nearest neighbours of `nq` queries over `n` rows of `data`,
/// by brute force in cache-sized row blocks (every query of a group reuses a
/// block while it is hot). Rows are reported by position in `data`.
std::vector<std::vector<lccs::util::Neighbor>> ExactKnn(
    lccs::util::Metric metric, const float* data, size_t n, size_t d,
    const float* queries, size_t nq, size_t k);

/// Mean over queries of |approx ∩ exact| / k.
double RecallAtK(const std::vector<std::vector<lccs::util::Neighbor>>& approx,
                 const std::vector<std::vector<lccs::util::Neighbor>>& exact,
                 size_t k);

/// Bit-for-bit equality of two neighbour lists (ids and distances).
bool SameNeighbors(const std::vector<lccs::util::Neighbor>& a,
                   const std::vector<lccs::util::Neighbor>& b);

/// Deletes a directory and the regular files directly inside it.
void RemoveTree(const std::string& dir);

/// Minimal JSON object writer for the result and trace files.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, long long value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  /// `json` must already be a serialized JSON value.
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonEscape(const std::string& s);
/// Shortest round-trip decimal form of `value` (all its digits).
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
