#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {
namespace {

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>>& Buffers() {
  static auto* buffers = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *buffers;
}

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    Buffers().push_back(std::make_unique<ThreadBuffer>());
    Buffers().back()->spans.reserve(1 << 14);
    return Buffers().back().get();
  }();
  return buffer;
}

thread_local Span* t_current = nullptr;
std::atomic<uint64_t> g_next_id{1};

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

uint64_t Tracer::NextId() { return g_next_id.fetch_add(1); }

void Tracer::Record(const SpanRecord& span) {
  LocalBuffer()->spans.push_back(span);
}

std::vector<SpanRecord> Tracer::Collect() const {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : Buffers()) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

bool Tracer::WriteJsonLines(const std::string& path,
                            const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

std::map<std::string, std::vector<double>> Tracer::SelfTimesNs(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, std::vector<double>> self;
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<int64_t, int64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      int64_t run_start = 0, run_end = -1;
      for (auto [a, b] : kids) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (a > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = a;
          run_end = b;
        } else {
          run_end = std::max(run_end, b);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    self[s.name].push_back(
        static_cast<double>(s.end_ns - s.start_ns - covered));
  }
  return self;
}

Span::Span(const char* name, uint64_t request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  outer_ = t_current;
  record_.name = name;
  record_.id = tracer.NextId();
  record_.parent = outer_ != nullptr ? outer_->record_.id : 0;
  record_.request = request != 0 ? request
                    : outer_ != nullptr ? outer_->record_.request
                                        : 0;
  t_current = this;
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = NowNs();
  t_current = outer_;
  Tracer::Get().Record(record_);
}

}  // namespace perfbench
