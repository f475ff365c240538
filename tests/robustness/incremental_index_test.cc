// Differential test of the interval index's write catch-up: a seeded
// random history of INSERT/UPDATE/DELETE over absolute, NOW-relative,
// empty and NULL `valid` values, interleaved with NOW flips and
// committed or rolled-back transactions, is applied to an indexed table
// and to an unindexed mirror. After every step random-window probes
// through the index must return exactly the rows a sequential scan of
// the mirror returns, and CHECK TABLE must find the index consistent
// with the heap. The history is long enough to drive the index through
// many catch-ups, several merges into a full build, and a change
// journal overflow. A second test races embedded readers' probes
// against a committing writer (meaningful under TSan).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datablade/datablade.h"
#include "engine/database.h"
#include "engine/session_context.h"
#include "engine/storage/heap_table.h"

namespace tip::engine {
namespace {

class IncrementalIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datablade::Install(&db_).ok());
    for (const char* table : {"t", "m"}) {
      Exec(std::string("CREATE TABLE ") + table + " (id INT, valid Element)");
    }
    Exec("CREATE INDEX t_valid ON t (valid) USING interval");
    Exec("SET NOW '1999-11-15'");
  }

  ResultSet Exec(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ResultSet{};
  }

  /// Runs a DML statement on the indexed table and its mirror; `%s` in
  /// `sql` stands for the table name.
  void Both(const std::string& sql) {
    for (const char* table : {"t", "m"}) {
      std::string text = sql;
      text.replace(text.find("%s"), 2, table);
      Exec(text);
    }
  }

  int64_t Counter(const std::string& name) {
    return Exec("SELECT tip_index_stats('t', 't_valid', '" + name + "')")
        .rows[0][0]
        .int_value();
  }

  /// A date literal, non-decreasing in `day` (day 0 is 1998-01-01;
  /// month ends are clamped to the 28th).
  static std::string Date(int64_t day) {
    const int64_t year = 1998 + day / 372;
    const int64_t month = day % 372 / 31 + 1;
    const int64_t mday = std::min<int64_t>(day % 31, 27) + 1;
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%04lld-%02lld-%02lld",
                  static_cast<long long>(year), static_cast<long long>(month),
                  static_cast<long long>(mday));
    return buf;
  }

  /// A random `valid` value: absolute, NOW-relative (either end), empty
  /// or NULL.
  std::string Value() {
    const int64_t kind = rng_.Uniform(0, 9);
    const int64_t a = rng_.Uniform(0, 3 * 365 - 60);
    const std::string start = Date(a);
    const std::string end = Date(a + rng_.Uniform(0, 59));
    if (kind < 5) return "'{[" + start + ", " + end + "]}'";
    if (kind < 7) return "'{[" + start + ", NOW]}'";
    if (kind < 8) return "'{[NOW-" + std::to_string(rng_.Uniform(1, 90)) +
                         ", NOW]}'";
    if (kind < 9) return "'{}'";
    return "NULL";
  }

  std::string SomeId() { return std::to_string(rng_.Uniform(0, next_id_)); }

  /// One random write statement, applied to both tables.
  void RandomWrite() {
    const int64_t op = rng_.Uniform(0, 9);
    if (op < 4) {
      Both("INSERT INTO %s VALUES (" + std::to_string(next_id_++) + ", " +
           Value() + ")");
    } else if (op < 8) {
      // Covers moves between the overlay and the absolute part, both
      // ways, and rows turning empty or NULL.
      Both("UPDATE %s SET valid = " + Value() + " WHERE id = " + SomeId());
    } else {
      Both("DELETE FROM %s WHERE id = " + SomeId());
    }
  }

  std::vector<int64_t> Ids(const std::string& table,
                           const std::string& window) {
    ResultSet r = Exec("SELECT id FROM " + table +
                       " WHERE overlaps(valid, '" + window + "'::Element)");
    std::vector<int64_t> ids;
    for (const Row& row : r.rows) ids.push_back(row[0].int_value());
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  /// Random-window probes through the index against a scan of the
  /// mirror, then CHECK TABLE.
  void Verify(int step) {
    const int64_t probes_before = Counter("probes");
    for (int i = 0; i < 4; ++i) {
      const int64_t a = rng_.Uniform(0, 3 * 365 + 400);
      const std::string window =
          "{[" + Date(a) + ", " + Date(a + rng_.Uniform(0, 120)) + "]}";
      ASSERT_EQ(Ids("t", window), Ids("m", window))
          << "step " << step << " window " << window;
    }
    // The indexed answers really came through the index.
    EXPECT_EQ(Counter("probes"), probes_before + 4);
    ResultSet check = Exec("CHECK TABLE t");
    ASSERT_EQ(check.rows.size(), 1u);
    ASSERT_EQ(check.rows[0][1].string_value(), "ok")
        << "step " << step << ": " << check.rows[0][2].string_value();
  }

  Database db_;
  Rng rng_{20261019};
  int64_t next_id_ = 0;
};

TEST_F(IncrementalIndexTest, ProbesMatchScanThroughWritesNowFlipsAndTxns) {
  for (int i = 0; i < 120; ++i) {
    Both("INSERT INTO %s VALUES (" + std::to_string(next_id_++) + ", " +
         Value() + ")");
  }
  Verify(-1);
  EXPECT_EQ(Counter("absolute_builds"), 1);

  const char* nows[] = {"'1999-11-15'", "'2000-06-01'", "'1998-03-01'"};
  for (int step = 0; step < 300; ++step) {
    const int64_t what = rng_.Uniform(0, 9);
    if (what < 6) {
      RandomWrite();
    } else if (what < 7) {
      Exec(std::string("SET NOW ") + nows[rng_.Uniform(0, 2)]);
    } else {
      // A transaction of a few writes, verified mid-flight (it sees its
      // own writes through the index), then committed or rolled back.
      Exec("BEGIN");
      for (int64_t n = rng_.Uniform(1, 4); n > 0; --n) RandomWrite();
      Verify(step);
      Exec(rng_.NextBool(0.5) ? "COMMIT" : "ROLLBACK");
    }
    Verify(step);
  }

  // Many catch-ups, and enough of them piled up to merge into fresh
  // full builds.
  EXPECT_GT(Counter("delta_applies"), 100);
  const int64_t builds_before_overflow = Counter("absolute_builds");
  EXPECT_GT(builds_before_overflow, 1);

  // Journal overflow: more row changes between two probes than the
  // heap journals. The index must notice and rescan.
  const int64_t rows = Exec("SELECT count(*) FROM t").rows[0][0].int_value();
  ASSERT_GT(rows, 0);
  for (int64_t changed = 0;
       changed <= static_cast<int64_t>(HeapTable::kJournalCapacity);
       changed += rows) {
    Both("UPDATE %s SET id = id");
  }
  Verify(1000);
  EXPECT_EQ(Counter("absolute_builds"), builds_before_overflow + 1);

  // And catch-ups resume after it.
  const int64_t applies = Counter("delta_applies");
  Both("INSERT INTO %s VALUES (" + std::to_string(next_id_++) + ", " +
       Value() + ")");
  Verify(1001);
  EXPECT_EQ(Counter("delta_applies"), applies + 1);
}

TEST(IncrementalIndexRaceTest, ReadersProbeWhileAWriterCommits) {
  Database db;
  ASSERT_TRUE(datablade::Install(&db).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id INT, valid Element)").ok());
  ASSERT_TRUE(
      db.Execute("CREATE INDEX t_valid ON t (valid) USING interval").ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", '{[1999-01-01, 1999-03-01]}')")
                    .ok());
  }

  // The server's gate, reduced to its contract: readers share, a
  // writing transaction excludes them from its first write to COMMIT.
  // Readers still race each other into the index's catch-up. The
  // turnstile keeps a stream of readers from starving the writer.
  std::shared_mutex gate;
  std::mutex turnstile;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> probes{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      SessionContext session;
      while (!stop.load(std::memory_order_relaxed)) {
        { std::lock_guard<std::mutex> pass(turnstile); }
        std::shared_lock<std::shared_mutex> lock(gate);
        Result<ResultSet> result = db.Execute(
            "SELECT count(*) FROM t WHERE overlaps(valid, "
            "'{[1999-02-01, 1999-02-02]}'::Element)",
            nullptr, &session);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        // Every committed state holds exactly 200 overlapping rows.
        EXPECT_EQ(result->rows[0][0].int_value(), 200);
        probes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (int round = 0; round < 60; ++round) {
    std::unique_lock<std::mutex> pass(turnstile);
    std::unique_lock<std::shared_mutex> lock(gate);
    ASSERT_TRUE(db.BeginTransaction().ok());
    const std::string id = std::to_string(1000 + round);
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + id +
                           ", '{[1999-01-15, 1999-02-15]}')")
                    .ok());
    ASSERT_TRUE(db.Execute("DELETE FROM t WHERE id = " +
                           std::to_string(round % 200))
                    .ok());
    ASSERT_TRUE(db.Execute("UPDATE t SET id = " +
                           std::to_string(round % 200) + " WHERE id = " + id)
                    .ok());
    ASSERT_TRUE(round % 4 == 0 ? db.RollbackTransaction().ok()
                               : db.CommitTransaction().ok());
    lock.unlock();
    pass.unlock();
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(probes.load(), 0);

  Result<ResultSet> check = db.Execute("CHECK TABLE t");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->rows[0][1].string_value(), "ok")
      << check->rows[0][2].string_value();
}

}  // namespace
}  // namespace tip::engine
