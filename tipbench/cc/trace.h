#ifndef TIPBENCH_TRACE_H_
#define TIPBENCH_TRACE_H_

// Spans recorded from the benchmark's own files around each call into
// a layer: name, start, end, the span that caused it, and the id of the
// statement (operation) they belong to. Each session owns one SpanLog,
// so recording takes no lock; logs are kept in memory and written out
// when the run ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tipbench {

struct SpanRecord {
  const char* name;  // a string literal
  int64_t start_ns, end_ns;  // steady clock, relative to the log's origin
  int32_t id, parent;        // parent -1 = root
  int64_t stmt;              // operation id within the session
};

class SpanLog {
 public:
  SpanLog(bool enabled, int session);

  bool enabled() const { return enabled_; }
  /// Starts a new operation: later spans carry its id.
  void NextStatement() { ++stmt_; }

  /// Records a span for the lifetime of the object (no-op when the log
  /// is disabled). Scopes nest: the innermost open one is the parent.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int32_t index_ = -1;
  };

  const std::vector<SpanRecord>& spans() const { return spans_; }
  int session() const { return session_; }

 private:
  int64_t NowNs() const;

  bool enabled_;
  int session_;
  int64_t stmt_ = 0;
  int32_t open_ = -1;  // innermost open span
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
};

/// Median duration in ms of the spans called `name` across `logs`
/// (0 when there are none).
double MedianSpanMs(const std::vector<const SpanLog*>& logs,
                    const std::string& name);

/// Writes every span as one JSON object per line; false on I/O failure.
bool WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path);

}  // namespace tipbench

#endif  // TIPBENCH_TRACE_H_
