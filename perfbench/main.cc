// dpsp_perfbench: the serving benchmark's binary.
//
//   dpsp_perfbench --workload <hld-bulk|small-batch|update-replicated>
//                  --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints the derived seeds and a human-readable summary, then, as its
// last stdout line, one JSON object: {"correct", "attempted", "failed",
// "metrics"} — the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. Exits non-zero without a result line only when
// the arguments are bad or set-up cannot complete.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/statistics.h"
#include "perfbench.h"
#include "trace.h"

namespace perfbench {

Seeds Seeds::Derive(uint64_t workload_seed) {
  Seeds s;
  s.data = Mix64(workload_seed ^ 0xd47a000000000001ULL);
  s.pairs = Mix64(workload_seed ^ 0x9a12500000000002ULL);
  s.noise = Mix64(workload_seed ^ 0x0015e00000000003ULL);
  s.updates = Mix64(workload_seed ^ 0x0bda7e0000000004ULL);
  return s;
}

void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: set-up failed: %s\n", what.c_str());
  std::fflush(stderr);
  std::fflush(stdout);
  // Server and client threads may still be live; leave without unwinding.
  std::_Exit(3);
}

void OpLedger::Fail(const std::string& what) {
  const uint64_t n = failed_.fetch_add(1) + 1;
  if (n <= 5) {
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(stderr, "perfbench: operation failed: %s\n", what.c_str());
  }
}

void Checks::Expect(bool ok, const std::string& what) {
  ++ran_;
  if (!ok) {
    ++failures_;
    if (failures_ <= 5) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
    }
  }
}

double Percentile(const std::vector<double>& samples, double q,
                  const char* what) {
  const double beyond = static_cast<double>(samples.size()) * (1.0 - q);
  if (beyond < 10.0) {
    std::fprintf(stderr,
                 "perfbench: %s: only %zu samples, fewer than ten beyond "
                 "the %.0fth percentile\n",
                 what, samples.size(), q * 100.0);
  }
  return dpsp::Quantile(samples, q);
}

double Median(std::vector<double> samples) {
  return dpsp::Quantile(std::move(samples), 0.5);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

bool SameBits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

dpsp::PrivacyParams ReleaseParams() { return {1.0, 0.0, 1.0}; }
// A run spends at most a few tens of epsilon (one unit per release,
// eps/L per leaf-edge epoch); the ceiling leaves two orders of headroom.
dpsp::PrivacyParams TotalBudget() { return {1e4, 0.0, 1.0}; }

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <hld-bulk|small-batch|"
               "update-replicated> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir>\n",
               argv0);
  return 2;
}

void PrintJson(const Outcome& out, bool trace) {
  const MetricSet& metrics = trace ? out.layers : out.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.checks.passed() ? "true" : "false",
              static_cast<unsigned long long>(out.ops.attempted()),
              static_cast<unsigned long long>(out.ops.failed()));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = value();
    if (v == nullptr) return Usage(argv[0]);
    if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atof(v);
    } else if (arg == "--trace") {
      options.trace = std::atoi(v) != 0;
    } else if (arg == "--work-dir") {
      options.work_dir = v;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_seed || options.seconds <= 0 || options.work_dir.empty()) {
    return Usage(argv[0]);
  }
  void (*run)(const Options&, const Seeds&, Outcome*) = nullptr;
  if (options.workload == "hld-bulk") run = RunHldBulk;
  if (options.workload == "small-batch") run = RunSmallBatch;
  if (options.workload == "update-replicated") run = RunUpdateReplicated;
  if (run == nullptr) return Usage(argv[0]);

  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 options.work_dir.c_str());
    return 2;
  }
  const Seeds seeds = Seeds::Derive(options.seed);
  std::printf("seeds: workload=%llu data=%llu pairs=%llu noise=%llu "
              "updates=%llu\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(seeds.data),
              static_cast<unsigned long long>(seeds.pairs),
              static_cast<unsigned long long>(seeds.noise),
              static_cast<unsigned long long>(seeds.updates));
  std::fflush(stdout);

  Outcome out;
  run(options, seeds, &out);
  if (options.trace) {
    Tracer::Get().Enable(false);
    const std::string spans = options.work_dir + "/spans.jsonl";
    if (!Tracer::WriteJsonLines(spans, Tracer::Get().Collect())) {
      std::fprintf(stderr, "perfbench: could not write %s\n", spans.c_str());
    }
  }
  std::fflush(stderr);
  PrintJson(out, options.trace);
  std::fflush(stdout);
  return 0;
}
