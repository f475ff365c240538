// The counter registry's contract (engine/metrics.h), checked group by
// group through SQL: every counter the per-counter routine accepts
// prints in the group's formatted line and in its EXPLAIN row with the
// same value, upper-case names are accepted, and an unknown name is
// InvalidArgument. The names are listed here rather than read from the
// registry, so a counter that goes missing from any surface fails.

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "datablade/datablade.h"
#include "engine/database.h"

namespace tip::engine {
namespace {

struct CounterCase {
  const char* name;   // what the per-counter routine accepts
  const char* label;  // its label in the line; nullptr: lookup only
};

struct GroupCase {
  const char* routine;
  const char* keys;     // leading arguments, e.g. "'t', 'i'"
  const char* explain;  // the EXPLAIN row is <explain>(<line>)
  std::vector<CounterCase> counters;
};

void PrintTo(const GroupCase& group, std::ostream* os) {
  *os << group.routine;
}

const std::vector<GroupCase>& Groups() {
  static const std::vector<GroupCase> groups = {
      {"tip_index_stats",
       "'t', 'i'",
       "IndexStats",
       {{"absolute_builds", "absolute_builds"},
        {"overlay_builds", "overlay_builds"},
        {"probes", "probes"},
        {"rows_scanned", "rows_scanned"},
        {"rows_returned", "rows_returned"},
        {"delta_applies", "delta_applies"}}},
      {"tip_guard_stats",
       "",
       "GuardStats",
       {{"timeouts", "timeouts"},
        {"cancels", "cancels"},
        {"oom", "oom"},
        {"parallel_fallbacks", "parallel_fallbacks"}}},
      {"tip_wal_stats",
       "",
       "WalStats",
       {{"records_appended", "records"},
        {"bytes_written", "bytes"},
        {"fsyncs", "fsyncs"},
        {"rotations", "rotations"},
        {"max_batch_records", "max_batch"},
        {"next_lsn", "next_lsn"},
        {"checkpoints", "checkpoints"},
        {"recoveries_run", "recoveries"},
        {"records_replayed", "replayed"},
        {"torn_tail_truncations", "torn_tails"},
        {"txns_committed", "txns_committed"},
        {"txns_rolled_back", "txns_rolled_back"},
        {"txn_records_discarded", "txn_records_discarded"}}},
      {"tip_plan_stats",
       "",
       "PlanCacheStats",
       {{"hits", "hits"},
        {"misses", "misses"},
        {"invalidations", "invalidations"},
        {"evictions", "evictions"},
        {"entries", "entries"},
        {"capacity", "capacity"},
        {"catalog_version", "catalog_version"}}},
      {"tip_health",
       "",
       "IntegrityStats",
       {{"scrubs_run", "scrubs"},
        {"objects_checked", "objects_checked"},
        {"corruptions_found", "corruptions_found"},
        {"quarantined", "quarantined"},
        {"scrub_ticks", "scrub_ticks"},
        {"manifest_entries", nullptr}}},
      {"tip_server_stats",
       "",
       "ServerStats",
       {{"sessions_active", "active"},
        {"sessions_peak", "peak"},
        {"sessions_total", "total"},
        {"sessions_rejected", "rejected"},
        {"statements_served", "statements"},
        {"bytes_in", "bytes_in"},
        {"bytes_out", "bytes_out"},
        {"drains", "drains"},
        {"session_aborts", "session_aborts"},
        {"cancels_received", "cancels"},
        {"idle_timeouts", "idle_timeouts"},
        {"wire_faults", "wire_faults"},
        {"gate_shared", "gate_shared"},
        {"gate_exclusive", "gate_exclusive"},
        {"gate_upgrades", "gate_upgrades"},
        {"gate_wait_shared_ms", "gate_wait_shared_ms"},
        {"gate_wait_exclusive_ms", "gate_wait_exclusive_ms"},
        {"gate_busy_shared", "gate_busy_shared"},
        {"gate_busy_exclusive", "gate_busy_exclusive"}}},
  };
  return groups;
}

// The numeric `label=value` fields of a formatted line; other words
// (the WAL mode) are skipped.
std::map<std::string, std::string> NumericFields(std::string_view line) {
  std::map<std::string, std::string> fields;
  size_t pos = 0;
  while (pos < line.size()) {
    size_t end = line.find(' ', pos);
    if (end == std::string_view::npos) end = line.size();
    const std::string_view word = line.substr(pos, end - pos);
    const size_t eq = word.find('=');
    if (eq != std::string_view::npos && eq + 1 < word.size() &&
        std::isdigit(static_cast<unsigned char>(word[eq + 1]))) {
      fields[std::string(word.substr(0, eq))] =
          std::string(word.substr(eq + 1));
    }
    pos = end + 1;
  }
  return fields;
}

class MetricsRegistryTest : public ::testing::TestWithParam<GroupCase> {
 protected:
  // Traffic that makes every EXPLAIN stats row appear: an index probed
  // and written, plan-cache hits, a WAL, a timeout and a scrub.
  void SetUp() override {
    // One directory per group: ctest runs the groups in parallel.
    dir_ = ::testing::TempDir() + "/tip_metrics_" + GetParam().routine;
    std::filesystem::remove_all(dir_);
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(datablade::Install(db_.get()).ok());
    ASSERT_TRUE(db_->AttachDurableDir(dir_).ok());
    Exec("CREATE TABLE t (id INT, valid Element)");
    Exec("INSERT INTO t VALUES (1, '{[1999-01-01, 1999-02-01]}')");
    Exec("INSERT INTO t VALUES (2, '{[1999-03-01, NOW]}')");
    Exec("CREATE INDEX i ON t (valid) USING interval");
    Exec("SET NOW '1999-11-15'");
    for (int i = 0; i < 3; ++i) Exec(kProbe);
    Exec("UPDATE t SET id = 3 WHERE id = 1");
    Exec(kProbe);
    db_->set_statement_timeout_ms(5);
    EXPECT_FALSE(db_->Execute("SELECT tip_sleep_ms(50)").ok());
    db_->set_statement_timeout_ms(0);
    Exec("CHECK TABLE t");
    // No server runs here: the front-end's counters are plain atomics
    // it bumps, so each gets a distinct value and a label that reads
    // the wrong counter shows.
    ServerStatsCounters& server = db_->server_stats();
    uint64_t value = 101;
    for (std::atomic<uint64_t>* counter :
         {&server.sessions_active, &server.sessions_peak,
          &server.sessions_total, &server.sessions_rejected,
          &server.statements_served, &server.bytes_in, &server.bytes_out,
          &server.drains, &server.session_aborts, &server.cancels_received,
          &server.idle_timeouts, &server.wire_faults, &server.gate_shared,
          &server.gate_exclusive, &server.gate_upgrades,
          &server.gate_wait_shared_ms, &server.gate_wait_exclusive_ms,
          &server.gate_busy_shared, &server.gate_busy_exclusive}) {
      counter->store(value++);
    }
    // With the cache on, every stats SELECT below would move the
    // plan counters between one read and the next.
    Exec("SET plan_cache off");
  }

  void TearDown() override {
    db_.reset();
    std::filesystem::remove_all(dir_);
  }

  ResultSet Exec(const std::string& sql) {
    Result<ResultSet> r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ResultSet{};
  }

  // `routine(keys..., extra)`, or `routine(keys...)` when extra is "".
  static std::string Call(const GroupCase& group, const std::string& extra) {
    std::string args = group.keys;
    if (!extra.empty()) args += (args.empty() ? "" : ", ") + extra;
    return std::string("SELECT ") + group.routine + "(" + args + ")";
  }

  static constexpr const char* kProbe =
      "SELECT id FROM t WHERE overlaps(valid, "
      "'{[1999-01-15, 1999-03-15]}'::Element)";

  std::string dir_;
  std::unique_ptr<Database> db_;
};

TEST_P(MetricsRegistryTest, EveryCounterAgreesAcrossItsSurfaces) {
  const GroupCase& group = GetParam();

  std::string explain_row;
  const ResultSet plan = Exec(std::string("EXPLAIN ") + kProbe);
  const std::string head = std::string(group.explain) + "(";
  for (const Row& row : plan.rows) {
    std::string text = row[0].string_value();
    text.erase(0, text.find_first_not_of(' '));
    if (text.rfind(head, 0) == 0 && text.back() == ')') {
      explain_row = text.substr(head.size(), text.size() - head.size() - 1);
    }
  }
  ASSERT_FALSE(explain_row.empty()) << "no " << head << "...) row";

  const ResultSet formatted = Exec(Call(group, ""));
  ASSERT_EQ(formatted.rows.size(), 1u);
  const std::string line = formatted.rows[0][0].string_value();
  const std::map<std::string, std::string> line_fields = NumericFields(line);
  const std::map<std::string, std::string> explain_fields =
      NumericFields(explain_row);

  size_t printed = 0;
  for (const CounterCase& counter : group.counters) {
    SCOPED_TRACE(counter.name);
    const ResultSet one = Exec(Call(group, std::string("'") + counter.name +
                                               "'"));
    ASSERT_EQ(one.rows.size(), 1u);
    const std::string value = std::to_string(one.rows[0][0].int_value());

    std::string upper = counter.name;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    const ResultSet shouted = Exec(Call(group, "'" + upper + "'"));
    ASSERT_EQ(shouted.rows.size(), 1u);
    EXPECT_EQ(std::to_string(shouted.rows[0][0].int_value()), value);

    if (counter.label == nullptr) continue;
    ++printed;
    ASSERT_EQ(line_fields.count(counter.label), 1u)
        << counter.label << " missing from " << line;
    EXPECT_EQ(line_fields.at(counter.label), value) << line;
    ASSERT_EQ(explain_fields.count(counter.label), 1u)
        << counter.label << " missing from " << explain_row;
    EXPECT_EQ(explain_fields.at(counter.label), value) << explain_row;
  }
  // Nothing prints that the lookup does not accept.
  EXPECT_EQ(line_fields.size(), printed) << line;
  EXPECT_EQ(explain_fields.size(), printed) << explain_row;

  Result<ResultSet> unknown = db_->Execute(Call(group, "'no_such_counter'"));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kInvalidArgument)
      << unknown.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllGroups, MetricsRegistryTest, ::testing::ValuesIn(Groups()),
    [](const ::testing::TestParamInfo<GroupCase>& info) {
      return std::string(info.param.routine);
    });

}  // namespace
}  // namespace tip::engine
