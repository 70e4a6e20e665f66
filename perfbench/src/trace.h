// Spans recorded by the benchmark around its calls into each layer. Spans
// are kept in memory and written out as JSON lines when the run ends.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // Index of the enclosing span, -1 for a root.
  uint64_t request = 0;

  int64_t ns() const { return end_ns - start_ns; }
  double ms() const { return static_cast<double>(ns()) / 1e6; }
};

class Tracer {
 public:
  /// Opens a span and returns its id (an index into spans()).
  int64_t Begin(std::string name, int64_t parent, uint64_t request) {
    spans_.push_back({std::move(name), NowNs(), 0, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void End(int64_t id) { spans_[static_cast<size_t>(id)].end_ns = NowNs(); }

  /// Records an already-measured interval.
  int64_t Add(std::string name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request) {
    spans_.push_back({std::move(name), start_ns, end_ns, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s.ms());
    }
    return out;
  }

  /// Self time of every span (ns): its duration minus the part of its
  /// interval that its children cover.
  std::vector<int64_t> SelfTimesNs() const {
    std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children[spans_[i].parent].push_back(
            {spans_[i].start_ns, spans_[i].end_ns});
      }
    }
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      int64_t covered = 0;
      auto it = children.find(static_cast<int64_t>(i));
      if (it != children.end()) {
        auto& iv = it->second;
        std::sort(iv.begin(), iv.end());
        int64_t cur_lo = 0, cur_hi = -1;
        bool open = false;
        for (auto [lo, hi] : iv) {
          lo = std::max(lo, s.start_ns);
          hi = std::min(hi, s.end_ns);
          if (hi <= lo) continue;
          if (open && lo <= cur_hi) {
            cur_hi = std::max(cur_hi, hi);
          } else {
            if (open) covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
          }
        }
        if (open) covered += cur_hi - cur_lo;
      }
      self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
  }

  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::vector<int64_t> self = SelfTimesNs();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu,"
                   "\"self_ns\":%lld}\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
