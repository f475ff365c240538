#include "trace.h"

#include <cstdio>

#include "stats.h"

namespace tipbench {

SpanLog::SpanLog(bool enabled, int session)
    : enabled_(enabled), session_(session),
      origin_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (!log_->enabled_) return;
  index_ = static_cast<int32_t>(log_->spans_.size());
  log_->spans_.push_back(
      {name, log_->NowNs(), 0, index_, log_->open_, log_->stmt_});
  log_->open_ = index_;
}

SpanLog::Scope::~Scope() {
  if (index_ < 0) return;
  SpanRecord& span = log_->spans_[static_cast<size_t>(index_)];
  span.end_ns = log_->NowNs();
  log_->open_ = span.parent;
}

double MedianSpanMs(const std::vector<const SpanLog*>& logs,
                    const std::string& name) {
  std::vector<double> ms;
  for (const SpanLog* log : logs) {
    for (const SpanRecord& s : log->spans()) {
      if (name == s.name) ms.push_back((s.end_ns - s.start_ns) / 1e6);
    }
  }
  return Median(std::move(ms));
}

bool WriteSpans(const std::vector<const SpanLog*>& logs,
                const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanLog* log : logs) {
    for (const SpanRecord& s : log->spans()) {
      std::fprintf(f,
                   "{\"session\":%d,\"stmt\":%lld,\"id\":%d,\"parent\":%d,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   log->session(), static_cast<long long>(s.stmt), s.id,
                   s.parent, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace tipbench
