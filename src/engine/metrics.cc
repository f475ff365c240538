#include "engine/metrics.h"

#include <atomic>
#include <functional>

#include "engine/database.h"

namespace tip::engine::metrics {

namespace {

uint64_t Load(uint64_t value) { return value; }
uint64_t Load(const std::atomic<uint64_t>& value) {
  return value.load(std::memory_order_relaxed);
}

// Reads the counter at the end of a member path from `source`. Each
// step is a data member or a const getter, e.g.
// Read<&Database::plan_cache_stats, &PlanCacheStats::hits>.
template <auto Step, auto... Rest, typename Source>
uint64_t Read(const Source& source) {
  const auto& next = std::invoke(Step, source);
  if constexpr (sizeof...(Rest) == 0) {
    return Load(next);
  } else {
    return Read<Rest...>(next);
  }
}

// tip_index_stats('table', 'index'): how often each segment of the
// interval index was built and how selective its probes were.
using Index = IndexStatsSnapshot;
constexpr Counter<Index> kIndexCounters[] = {
    {"absolute_builds", Read<&Index::absolute_builds>},
    {"overlay_builds", Read<&Index::overlay_builds>},
    {"probes", Read<&Index::probes>},
    {"rows_scanned", Read<&Index::rows_scanned>},
    {"rows_returned", Read<&Index::rows_returned>},
    {"delta_applies", Read<&Index::delta_applies>},
};

// tip_guard_stats(): statements that hit a timeout, a cancel or a
// memory budget, or degraded a parallel plan to serial.
constexpr Counter<GuardEvents> kGuardCounters[] = {
    {"timeouts", Read<&GuardEvents::timeouts>},
    {"cancels", Read<&GuardEvents::cancels>},
    {"oom", Read<&GuardEvents::oom>},
    {"parallel_fallbacks", Read<&GuardEvents::parallel_fallbacks>},
};

// tip_wal_stats(): append and fsync traffic, group-commit batches, what
// recovery had to do, and transaction outcomes.
using Wal = DurabilityStats;
using Log = WalStatsSnapshot;
constexpr Counter<Wal> kWalCounters[] = {
    {"records_appended", Read<&Wal::wal, &Log::records_appended>, "records"},
    {"bytes_written", Read<&Wal::wal, &Log::bytes_written>, "bytes"},
    {"fsyncs", Read<&Wal::wal, &Log::fsyncs>},
    {"rotations", Read<&Wal::wal, &Log::rotations>},
    {"max_batch_records", Read<&Wal::wal, &Log::max_batch_records>,
     "max_batch"},
    {"next_lsn", Read<&Wal::wal_next_lsn>},
    {"checkpoints", Read<&Wal::checkpoints>},
    {"recoveries_run", Read<&Wal::recoveries_run>, "recoveries"},
    {"records_replayed", Read<&Wal::records_replayed>, "replayed"},
    {"torn_tail_truncations", Read<&Wal::torn_tail_truncations>,
     "torn_tails"},
    {"txns_committed", Read<&Wal::txns_committed>},
    {"txns_rolled_back", Read<&Wal::txns_rolled_back>},
    {"txn_records_discarded", Read<&Wal::txn_records_discarded>},
};

std::string WalModePrefix(const Wal& stats) {
  return "mode=" + std::string(WalModeName(stats.mode));
}

// tip_plan_stats(): plan-cache traffic. The stats query is itself a
// SELECT, so with the cache on it takes one miss of its own the first
// time a session runs it.
using Plan = PlanCacheStats;
constexpr Counter<Database> kPlanCounters[] = {
    {"hits", Read<&Database::plan_cache_stats, &Plan::hits>},
    {"misses", Read<&Database::plan_cache_stats, &Plan::misses>},
    {"invalidations",
     Read<&Database::plan_cache_stats, &Plan::invalidations>},
    {"evictions", Read<&Database::plan_cache_stats, &Plan::evictions>},
    {"entries", Read<&Database::plan_cache_entries>},
    {"capacity", Read<&Database::plan_cache_capacity>},
    {"catalog_version", Read<&Database::catalog_version>},
};

// tip_health(): scrubs and what they found.
using Health = IntegrityStats;
constexpr Counter<Health> kHealthCounters[] = {
    {"scrubs_run", Read<&Health::scrubs_run>, "scrubs"},
    {"objects_checked", Read<&Health::objects_checked>},
    {"corruptions_found", Read<&Health::corruptions_found>},
    {"quarantined", Read<&Health::tables_quarantined>},
    {"scrub_ticks", Read<&Health::scrub_ticks>},
    // tip_health() prints the manifest itself, after the quarantine list.
    {"manifest_entries", Read<&Health::manifest_entries>, {}, false},
};

// tip_server_stats(): the TCP front-end's sessions, wire volume, drains,
// fail-stop session deaths and shared/exclusive gate traffic.
using Server = ServerStatsCounters;
constexpr Counter<Server> kServerCounters[] = {
    {"sessions_active", Read<&Server::sessions_active>, "active"},
    {"sessions_peak", Read<&Server::sessions_peak>, "peak"},
    {"sessions_total", Read<&Server::sessions_total>, "total"},
    {"sessions_rejected", Read<&Server::sessions_rejected>, "rejected"},
    {"statements_served", Read<&Server::statements_served>, "statements"},
    {"bytes_in", Read<&Server::bytes_in>},
    {"bytes_out", Read<&Server::bytes_out>},
    {"drains", Read<&Server::drains>},
    {"session_aborts", Read<&Server::session_aborts>},
    {"cancels_received", Read<&Server::cancels_received>, "cancels"},
    {"idle_timeouts", Read<&Server::idle_timeouts>},
    {"wire_faults", Read<&Server::wire_faults>},
    {"gate_shared", Read<&Server::gate_shared>},
    {"gate_exclusive", Read<&Server::gate_exclusive>},
    {"gate_upgrades", Read<&Server::gate_upgrades>},
    {"gate_wait_shared_ms", Read<&Server::gate_wait_shared_ms>},
    {"gate_wait_exclusive_ms", Read<&Server::gate_wait_exclusive_ms>},
    {"gate_busy_shared", Read<&Server::gate_busy_shared>},
    {"gate_busy_exclusive", Read<&Server::gate_busy_exclusive>},
};

}  // namespace

const Group<IndexStatsSnapshot> kIndex{"index", "IndexStats", kIndexCounters};
const Group<GuardEvents> kGuard{"guard", "GuardStats", kGuardCounters};
const Group<DurabilityStats> kWal{"wal", "WalStats", kWalCounters,
                                  WalModePrefix};
const Group<Database> kPlan{"plan", "PlanCacheStats", kPlanCounters};
const Group<IntegrityStats> kHealth{"health", "IntegrityStats",
                                    kHealthCounters};
const Group<ServerStatsCounters> kServer{"server", "ServerStats",
                                         kServerCounters};

}  // namespace tip::engine::metrics
