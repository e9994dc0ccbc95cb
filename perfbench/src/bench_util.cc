#include "bench_util.h"

#include <dirent.h>
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <thread>

#include "util/simd_distance.h"
#include "util/thread_pool.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  const size_t idx = rank == 0 ? 0 : std::min(rank - 1, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

CpuTimes ReadCpuTimes() {
  CpuTimes out;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  // user nice system idle iowait irq softirq steal
  double fields[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  stat >> cpu;
  for (double& f : fields) stat >> f;
  out.at_ns = NowNs();
  if (!stat || cpu != "cpu") return out;
  for (const double f : fields) out.total += f;
  out.steal = fields[7];
  return out;
}

double StealShare(const CpuTimes& from, const CpuTimes& to) {
  const double total = to.total - from.total;
  return total > 0 ? (to.steal - from.steal) / total : 0.0;
}

StealSampler::StealSampler(int64_t period_ns) : period_ns_(period_ns) {
  samples_.push_back(ReadCpuTimes());
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::nanoseconds(period_ns_),
                         [this] { return stop_; })) {
      samples_.push_back(ReadCpuTimes());
    }
    samples_.push_back(ReadCpuTimes());
  });
}

void StealSampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  if (thread_.joinable()) thread_.join();
}

double StealSampler::Share(int64_t begin_ns, int64_t end_ns) const {
  if (samples_.empty()) return 0.0;
  size_t from = 0;
  while (from + 1 < samples_.size() && samples_[from + 1].at_ns <= begin_ns) {
    ++from;
  }
  size_t to = from;
  while (to + 1 < samples_.size() && samples_[to].at_ns < end_ns) ++to;
  return StealShare(samples_[from], samples_[to]);
}

size_t NumCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<size_t>(count);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::vector<std::vector<lccs::util::Neighbor>> ExactKnn(
    lccs::util::Metric metric, const float* data, size_t n, size_t d,
    const float* queries, size_t nq, size_t k) {
  constexpr size_t kGroup = 32;
  const size_t block_rows =
      std::max<size_t>(64, (size_t{512} << 10) / (d * sizeof(float)));
  std::vector<std::vector<lccs::util::Neighbor>> out(nq);
  const size_t groups = (nq + kGroup - 1) / kGroup;
  lccs::util::ParallelFor(groups, [&](size_t gb, size_t ge) {
    std::vector<double> dists(block_rows);
    for (size_t g = gb; g < ge; ++g) {
      const size_t q0 = g * kGroup;
      const size_t q1 = std::min(nq, q0 + kGroup);
      std::vector<lccs::util::TopK> tops(q1 - q0, lccs::util::TopK(k));
      for (size_t r0 = 0; r0 < n; r0 += block_rows) {
        const size_t rows = std::min(block_rows, n - r0);
        for (size_t q = q0; q < q1; ++q) {
          lccs::util::DistanceMany(metric, data, d, queries + q * d, nullptr,
                                   rows, dists.data(),
                                   static_cast<int32_t>(r0));
          for (size_t i = 0; i < rows; ++i) {
            tops[q - q0].Push(static_cast<int32_t>(r0 + i), dists[i]);
          }
        }
      }
      for (size_t q = q0; q < q1; ++q) out[q] = tops[q - q0].Sorted();
    }
  });
  return out;
}

double RecallAtK(const std::vector<std::vector<lccs::util::Neighbor>>& approx,
                 const std::vector<std::vector<lccs::util::Neighbor>>& exact,
                 size_t k) {
  if (approx.empty() || k == 0) return 0.0;
  double hits = 0.0;
  for (size_t q = 0; q < approx.size(); ++q) {
    for (const auto& a : approx[q]) {
      for (const auto& e : exact[q]) {
        if (a.id == e.id) {
          hits += 1.0;
          break;
        }
      }
    }
  }
  return hits / (static_cast<double>(approx.size()) * static_cast<double>(k));
}

bool SameNeighbors(const std::vector<lccs::util::Neighbor>& a,
                   const std::vector<lccs::util::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id ||
        std::memcmp(&a[i].dist, &b[i].dist, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void RemoveTree(const std::string& dir) {
  if (dir.empty()) return;
  if (DIR* d = ::opendir(dir.c_str())) {
    for (dirent* e = ::readdir(d); e != nullptr; e = ::readdir(d)) {
      if (std::strcmp(e->d_name, ".") != 0 &&
          std::strcmp(e->d_name, "..") != 0) {
        std::remove((dir + "/" + e->d_name).c_str());
      }
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return "\"" + out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonEscape(key) + ": ";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, long long value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonEscape(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

}  // namespace perfbench
