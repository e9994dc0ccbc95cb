#include "trace.h"

#include <cstring>

#include "bench_util.h"

namespace perfbench {

int32_t Tracer::Begin(const char* name, int32_t parent, uint64_t id) {
  const int64_t now = NowNs();
  spans_.push_back(Span{name, now, now, parent, id});
  return static_cast<int32_t>(spans_.size() - 1);
}

int64_t Tracer::End(int32_t index) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  return span.end_ns - span.start_ns;
}

void Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                 int32_t parent, uint64_t id) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, id});
}

std::map<std::string, double> Tracer::SelfNs(const char* root) const {
  // Children always follow their parent, so one forward pass can tell which
  // spans lie under a `root` span, and one more subtracts child durations.
  std::vector<uint8_t> inside(spans_.size(), 0);
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const bool under_root =
        s.parent >= 0 && inside[static_cast<size_t>(s.parent)] != 0;
    inside[i] = (std::strcmp(s.name, root) == 0 || under_root) ? 1 : 0;
    self[i] = static_cast<double>(s.end_ns - s.start_ns);
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= self[i];
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (inside[i] != 0) out[spans_[i].name] += self[i];
  }
  return out;
}

std::string Tracer::ToJson(const std::string& extra) const {
  std::string out = "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "[" + JsonEscape(s.name) + ", " + std::to_string(s.start_ns) +
           ", " + std::to_string(s.end_ns) + ", " + std::to_string(s.parent) +
           ", " + std::to_string(s.id) + "]";
  }
  out += "],\n\"counts\": {";
  bool first = true;
  for (const auto& [name, value] : counts_) {
    if (!first) out += ", ";
    first = false;
    out += JsonEscape(name) + ": " + JsonNumber(value);
  }
  out += "}";
  if (!extra.empty()) out += ",\n" + extra;
  out += "}\n";
  return out;
}

}  // namespace perfbench
