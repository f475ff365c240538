#ifndef TIP_ENGINE_METRICS_H_
#define TIP_ENGINE_METRICS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/exec_guard.h"
#include "common/status.h"
#include "common/string_util.h"

namespace tip::engine {

class Database;
struct DurabilityStats;
struct IndexStatsSnapshot;
struct IntegrityStats;
struct ServerStatsCounters;

/// The counter registry: every counter the observability surface shows
/// is one entry in one group's table (metrics.cc). Each `tip_*_stats`
/// routine and each EXPLAIN stats row is generated from that table, so
/// the SQL lookup, the formatted line and the EXPLAIN row cannot drift.
namespace metrics {

/// One counter, read from a group's `Source`.
template <typename Source>
struct Counter {
  std::string_view name;  // what tip_X_stats(..., 'name') accepts
  uint64_t (*read)(const Source&);
  std::string_view label = {};  // the formatted line's label, if not `name`
  bool printed = true;          // false: looked up only, not in the line
};

/// The counters one routine family and one EXPLAIN row report.
template <typename Source>
struct Group {
  std::string_view name;     // as in "unknown <name> counter 'x'"
  std::string_view explain;  // the EXPLAIN row is <explain>(<line>)
  std::span<const Counter<Source>> counters;
  std::string (*prefix)(const Source&) = nullptr;  // leads the line
};

/// `label=value` for each printed counter, space-separated, after the
/// group's prefix.
template <typename Source>
std::string Line(const Group<Source>& group, const Source& source) {
  std::string out = group.prefix != nullptr ? group.prefix(source) : "";
  for (const Counter<Source>& c : group.counters) {
    if (!c.printed) continue;
    if (!out.empty()) out += ' ';
    out += c.label.empty() ? c.name : c.label;
    out += '=';
    out += std::to_string(c.read(source));
  }
  return out;
}

/// The counter named `name` (ASCII case-insensitive); InvalidArgument
/// when the group has none.
template <typename Source>
Result<uint64_t> Lookup(const Group<Source>& group, const Source& source,
                        std::string_view name) {
  for (const Counter<Source>& c : group.counters) {
    if (EqualsIgnoreCase(c.name, name)) return c.read(source);
  }
  return Status::InvalidArgument("unknown " + std::string(group.name) +
                                 " counter '" + ToLowerAscii(name) + "'");
}

/// The group's EXPLAIN row: `<explain>(<line>)`.
template <typename Source>
std::string ExplainRow(const Group<Source>& group, const Source& source) {
  return std::string(group.explain) + "(" + Line(group, source) + ")";
}

extern const Group<IndexStatsSnapshot> kIndex;  // tip_index_stats
extern const Group<GuardEvents> kGuard;         // tip_guard_stats
extern const Group<DurabilityStats> kWal;       // tip_wal_stats
extern const Group<Database> kPlan;             // tip_plan_stats
extern const Group<IntegrityStats> kHealth;     // tip_health
extern const Group<ServerStatsCounters> kServer;  // tip_server_stats

}  // namespace metrics
}  // namespace tip::engine

#endif  // TIP_ENGINE_METRICS_H_
