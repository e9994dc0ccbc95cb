// In-memory span recorder for the traced run. Spans are kept until the run
// ends and then written out as one JSON document.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: a layer call or a phase
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< index of the enclosing span, -1 for a root
  uint64_t id = 0;        ///< serving window (batch_id) or mutation version
};

/// Not thread-safe: one thread records at a time.
class Tracer {
 public:
  /// Opens a span now and returns its index.
  int32_t Begin(const char* name, int32_t parent, uint64_t id);
  /// Closes span `index` now and returns its duration in nanoseconds.
  int64_t End(int32_t index);
  /// Records an already-finished span.
  void Add(const char* name, int64_t start_ns, int64_t end_ns, int32_t parent,
           uint64_t id);
  void Count(const std::string& name, double delta) { counts_[name] += delta; }

  /// Self time per span name, over the subtrees rooted at spans named
  /// `root`: each span's duration minus the durations of its children.
  std::map<std::string, double> SelfNs(const char* root) const;

  /// {"spans": [[name, start_ns, end_ns, parent, id], ...], "counts": {...},
  ///  plus `extra` members (a serialized JSON object body, may be empty)}.
  std::string ToJson(const std::string& extra) const;

  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
};

/// Closes its span when it leaves scope, adding the duration to `*sink_ns`.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int32_t parent, uint64_t id,
             double* sink_ns = nullptr)
      : tracer_(tracer), sink_ns_(sink_ns),
        index_(tracer->Begin(name, parent, id)) {}
  ~ScopedSpan() {
    const int64_t ns = tracer_->End(index_);
    if (sink_ns_ != nullptr) *sink_ns_ += static_cast<double>(ns);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  double* sink_ns_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
