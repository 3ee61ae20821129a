// In-memory span log of the traced perfbench run. The benchmark records a
// span around each call it makes into a layer's public functions; spans of
// one query share its id. The log is written once, at the end, as
// Chrome-trace JSON (chrome://tracing, Perfetto).

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  /// Spans beyond this many are counted but not kept, which bounds the
  /// memory and the trace file of a long traced run.
  static constexpr size_t kMaxSpans = 200000;

  /// `name` is the called function, `layer` its module.
  void Add(const char* name, const char* layer, uint64_t query_id,
           int64_t start_ns, int64_t end_ns);

  /// Writes every span as Chrome-trace complete events; false on I/O error.
  bool WriteChromeTrace(const std::string& path) const;

  size_t size() const;
  size_t dropped() const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    uint64_t query_id;
    int64_t start_ns;
    int64_t end_ns;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  size_t dropped_ = 0;       // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
