// tipbench: the repository benchmark. Usage:
//
//   tipbench --workload browse|clinic|report --seed N --seconds S
//            --trace 0|1 [--work-dir DIR]
//
// Serves a durable TIP database from an in-process tipd on loopback and
// drives it with closed-loop client sessions (README.md). The last line
// of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; the line before it carries the run metadata and
// the per-class figures. With --trace 0 the metrics are the end-to-end
// ones; with --trace 1 the per-layer ones. Exits 1 when an answer
// differs from its oracle, 2 on a set-up or usage error.

#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "layers.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace tipbench;

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// The timed loop is summarized per window of this many seconds.
constexpr double kWindowS = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_run";
};

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "tipbench: %s\n", what.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--work-dir") {
      a.work_dir = value;
    } else {
      Fail("unknown argument " + key);
    }
  }
  if (argc % 2 == 0) Fail("arguments come in --key value pairs");
  if (a.workload.empty() || a.seconds <= 0) {
    Fail("usage: tipbench --workload W --seed N --seconds S --trace 0|1");
  }
  return a;
}

/// Tracks the largest heap in use (glibc's count of allocated bytes,
/// mmapped blocks included) by sampling it every 10 ms on its own
/// thread. Unlike the peak resident set, this does not depend on which
/// threads' malloc arenas happened to serve the transient allocations.
class HeapSampler {
 public:
  HeapSampler() : thread_([this] { Loop(); }) {}
  ~HeapSampler() { Stop(); }
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;

  /// Stops sampling; returns the peak in MB.
  double Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return static_cast<double>(peak_) / (1024.0 * 1024.0);
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      const struct mallinfo2 info = mallinfo2();
      peak_ = std::max<size_t>(peak_, info.uordblks + info.hblkhd);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  std::atomic<bool> stop_{false};
  size_t peak_ = 0;  // written by the sampling thread until joined
  std::thread thread_;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// {"name": {"value": v, "unit": u}, ...}
std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  tip::Result<Spec> spec = SpecFor(args.workload, args.seed);
  if (!spec.ok()) Fail(spec.status().ToString());

  namespace fs = std::filesystem;
  const std::string run_dir =
      args.work_dir + "/" + args.workload + "-" + std::to_string(args.seed);
  const std::string db_dir = run_dir + "/db";

  HeapSampler heap;
  // Set up kSetups times; the last one is measured.
  std::vector<double> setups;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    double s = 0;
    tip::Result<std::unique_ptr<Workload>> made =
        Workload::SetUp(*spec, args.seed, db_dir, &s);
    if (!made.ok()) Fail("set-up: " + made.status().ToString());
    w = std::move(*made);
    setups.push_back(s);
  }

  // A traced run splits its time: the first half untraced, the second
  // traced, so trace.overhead_pct compares the two halves.
  const double loop_seconds = args.trace ? args.seconds / 2 : args.seconds;
  LoopResult loop = w->Run(loop_seconds, false);
  LoopResult traced;
  Counters delta;
  if (args.trace) {
    const Counters before = ReadCounters(*w);
    traced = w->Run(loop_seconds, true);
    delta = ReadCounters(*w) - before;
  }
  // Before the probes and checks, which open databases of their own.
  const double peak_heap_mb = heap.Stop();
  const uint64_t live = std::max<uint64_t>(1, w->live_rows());
  const double disk_bytes_per_row =
      static_cast<double>(DirBytes(db_dir)) / static_cast<double>(live);

  Metrics layer_metrics;
  if (args.trace) {
    layer_metrics = MeasureLayers(*w, loop, traced, delta, run_dir + "/probe");
    std::vector<const SpanLog*> logs;
    for (const auto& l : traced.spans) logs.push_back(l.get());
    if (!WriteSpans(logs, run_dir + ".spans.jsonl")) {
      Fail("cannot write spans");
    }
  }

  std::vector<std::string> mismatches = loop.mismatches;
  mismatches.insert(mismatches.end(), traced.mismatches.begin(),
                    traced.mismatches.end());
  const uint64_t checks =
      loop.checks + traced.checks + w->FinalCheck(&mismatches);
  const uint64_t attempted = loop.attempted + traced.attempted;
  const uint64_t failed = loop.failed + traced.failed;
  const uint64_t statements = loop.statements + traced.statements;
  const uint64_t statement_errors =
      loop.statement_errors + traced.statement_errors;
  w.reset();
  std::error_code ec;
  fs::remove_all(run_dir, ec);

  // Every window needs ten samples beyond its p90; a run too short for
  // that is a usage error, not a measurement.
  const Windowed reads = ByWindow(loop.read_ms, loop.read_done_s, kWindowS);
  if (!args.trace && !reads.p90) {
    Fail("too few reads per " + Num(kWindowS) + "s window for a p90 (" +
         std::to_string(loop.read_ms.size()) + " reads); run longer");
  }

  // Metadata and the per-class figures, one JSON line.
  const double secs = loop.elapsed_s;
  std::string meta = "{\"meta\": {\"workload\": \"" + args.workload + "\"";
  auto add = [&](const char* key, const std::string& json_value) {
    meta += std::string(", \"") + key + "\": " + json_value;
  };
  auto count = [](uint64_t v) { return std::to_string(v); };
  add("seed", count(args.seed));
  add("nproc", count(std::thread::hardware_concurrency()));
  add("build_type", "\"" TIPBENCH_BUILD_TYPE "\"");
  add("commit", "\"" TIPBENCH_COMMIT "\"");
  add("sessions", count(spec->sessions));
  add("rows", count(spec->data.rows));
  add("run_seconds", Num(secs));
  add("setups", count(kSetups));
  add("read_samples", count(loop.read_ms.size()));
  add("read_windows", count(reads.windows));
  add("read_mean_per_s", Num(loop.read_ms.size() / secs));
  add("read_all_p50_ms", Num(Median(loop.read_ms)));
  if (auto p = Percentile(loop.read_ms, 0.90)) add("read_all_p90_ms", Num(*p));
  if (auto p = Percentile(loop.read_ms, 0.99)) add("read_all_p99_ms", Num(*p));
  add("oracle_checks", count(checks));
  add("statements", count(statements));
  add("fail_frac", Num(static_cast<double>(statement_errors) /
                       static_cast<double>(std::max<uint64_t>(1, statements))));
  if (!loop.write_ms.empty()) {
    add("write_samples", count(loop.write_ms.size()));
    add("write_retries", count(loop.retries));
    add("write_per_s", Num(loop.write_ms.size() / secs));
    add("write_p50_ms", Num(Median(loop.write_ms)));
    if (auto p = Percentile(loop.write_ms, 0.99)) add("write_p99_ms", Num(*p));
  }
  static const char* kQ[4] = {"q_select_ms", "q_join_ms", "q_coalesce_ms",
                               "q_slice_ms"};
  for (int q = 0; q < 4; ++q) {
    if (loop.query_ms[q].empty()) continue;
    add(kQ[q], Num(Median(loop.query_ms[q])));
  }
  meta += "}}";
  for (const std::string& m : mismatches) {
    std::fprintf(stderr, "tipbench: MISMATCH %s\n", m.c_str());
  }
  std::printf("%s\n", meta.c_str());

  Metrics metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setups), "s"},
        {"read_per_s", reads.rate_per_s, "1/s"},
        {"read_p50_ms", reads.p50, "ms"},
        {"read_p90_ms", *reads.p90, "ms"},
        {"peak_heap_mb", peak_heap_mb, "MB"},
        {"disk_bytes_per_row", disk_bytes_per_row, "bytes"},
    };
  } else {
    metrics = std::move(layer_metrics);
  }
  const bool correct = mismatches.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
