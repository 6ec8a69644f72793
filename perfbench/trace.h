// In-memory span recorder for the benchmark's traced runs.
//
// A span is (name, start, end, parent, request id). The benchmark opens
// one around every client call it makes and around every layer call it
// replays locally, so spans sit at layer boundaries without touching the
// program under test. Each thread appends to its own buffer (no locking
// on the hot path); the buffers are merged when the run ends, written out
// as JSON lines, and reduced to per-name self times: a span's duration
// minus the part of it its child spans cover.
//
// With tracing off, Span is two branches and no clock reads, so the
// untraced run measures the program, not the recorder.

#ifndef DPSP_PERFBENCH_TRACE_H_
#define DPSP_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0: a root span
  uint64_t request = 0;  // shared by the spans of one request
};

class Tracer {
 public:
  /// Process-wide recorder; disabled until Enable(true).
  static Tracer& Get();

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// All spans recorded so far, every thread's buffer merged and sorted
  /// by start time. Call after the recording threads have stopped.
  std::vector<SpanRecord> Collect() const;

  /// Writes `spans` as one JSON object per line.
  static bool WriteJsonLines(const std::string& path,
                             const std::vector<SpanRecord>& spans);

  /// Self time of every span in nanoseconds (duration minus the union of
  /// its children's intervals), grouped by span name.
  static std::map<std::string, std::vector<double>> SelfTimesNs(
      const std::vector<SpanRecord>& spans);

  // Used by Span.
  uint64_t NextId();
  void Record(const SpanRecord& span);

 private:
  Tracer() = default;
  std::atomic<bool> enabled_{false};
};

/// RAII span. Nested Spans on one thread become parent and child; a
/// request id, when given, tags the span and is inherited by its
/// children.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecord record_;
  bool active_ = false;
  Span* outer_ = nullptr;
};

}  // namespace perfbench

#endif  // DPSP_PERFBENCH_TRACE_H_
