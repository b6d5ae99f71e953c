// In-memory span log for the traced run: name, start, end, parent span and
// request id, written out as one JSON array when the benchmark ends. Spans
// are recorded by the benchmark around its own calls into the layers; a
// layer's self time is its span minus the part its child spans cover.
#ifndef WIREBENCH_TRACE_H_
#define WIREBENCH_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace wirebench {

class SpanLog {
 public:
  static constexpr int64_t kNoParent = -1;

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  size_t size() const { return spans_.size(); }

  /// Records a finished span; returns its id (usable as a parent), or
  /// kNoParent when tracing is off.
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent = kNoParent, uint64_t request = 0) {
    if (!enabled_) return kNoParent;
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}%s\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;  // string literal
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    uint64_t request;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace wirebench

#endif  // WIREBENCH_TRACE_H_
