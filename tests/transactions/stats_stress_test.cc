// Stats-reader stress: every counter group's routines (formatted and
// per-counter) and EXPLAIN's stats rows are read from reader threads
// while one writer thread drives transactions, checkpoints, scrubs and
// guard trips on the same Database. Run under TSan (ctest -L
// concurrency in a -DTIP_SANITIZE=thread build) this is the regression
// test for unsynchronized counter access: every counter the registry
// reads must be an atomic or a snapshot of atomics.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "datablade/datablade.h"
#include "engine/database.h"

namespace tip::engine {
namespace {

TEST(StatsStressTest, ReadersRaceTransactionsCheckpointsAndCancels) {
  const std::string dir =
      ::testing::TempDir() + "/tip_stats_stress";
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);

  auto db = std::make_unique<Database>();
  ASSERT_TRUE(datablade::Install(db.get()).ok());
  ASSERT_TRUE(db->AttachDurableDir(dir).ok());
  ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT)").ok());
  // A read-only indexed table the readers probe, so the index counters
  // move while they are polled.
  ASSERT_TRUE(db->Execute("CREATE TABLE ix (valid Element)").ok());
  ASSERT_TRUE(
      db->Execute("INSERT INTO ix VALUES ('{[1999-01-01, 1999-06-30]}')")
          .ok());
  ASSERT_TRUE(
      db->Execute("CREATE INDEX ix_valid ON ix (valid) USING interval").ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  // Readers touch only the observability surface and the read-only
  // table ix: stats builtins, EXPLAIN and index probes. The writer's
  // table stays writer-private (the engine's contract), the counters
  // are the shared state under test.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&db, &stop, &reads] {
      const char* queries[] = {
          "SELECT tip_wal_stats()",
          "SELECT tip_wal_stats('txns_committed')",
          "SELECT tip_wal_stats('checkpoints')",
          "SELECT tip_guard_stats()",
          "SELECT tip_guard_stats('timeouts')",
          "EXPLAIN SELECT 1",
          "SELECT tip_index_stats('ix', 'ix_valid')",
          "SELECT tip_index_stats('ix', 'ix_valid', 'probes')",
          "SELECT tip_plan_stats()",
          "SELECT tip_plan_stats('hits')",
          "SELECT tip_health()",
          "SELECT tip_health('scrubs_run')",
          "SELECT tip_server_stats()",
          "SELECT tip_server_stats('statements_served')",
          "SELECT count(*) FROM ix WHERE overlaps(valid, "
          "'{[1999-03-01, 1999-03-31]}'::Element)",
          "EXPLAIN SELECT valid FROM ix WHERE overlaps(valid, "
          "'{[1999-03-01, 1999-03-31]}'::Element)",
      };
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Result<ResultSet> result =
            db->Execute(queries[i++ % std::size(queries)]);
        // The canceller may legitimately interrupt a read; anything
        // else is a real failure.
        EXPECT_TRUE(result.ok() ||
                    result.status().code() == StatusCode::kCancelled)
            << result.status().ToString();
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // A canceller pokes the thread-safe cancellation path; it mostly hits
  // nothing, occasionally interrupts a reader, never corrupts counters.
  std::thread canceller([&db, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      db->CancelActiveStatements();
      std::this_thread::sleep_for(std::chrono::milliseconds(7));
    }
  });

  // The writer (this thread, keeping writes single-threaded per the
  // engine contract) commits, rolls back, trips a timeout inside a
  // transaction, scrubs and checkpoints, and stands in for the server
  // front-end's counter bumps, moving every counter group the readers
  // poll.
  for (int round = 0; round < 40; ++round) {
    ASSERT_TRUE(db->BeginTransaction().ok());
    (void)db->Execute("INSERT INTO t VALUES (" + std::to_string(round) +
                      ")");
    if (round % 3 == 0) {
      (void)db->RollbackTransaction();
    } else if (db->InTransaction()) {
      (void)db->CommitTransaction();
    }
    db->server_stats().statements_served.fetch_add(1);
    if (round % 4 == 1) {
      Result<ResultSet> checked = db->Execute("CHECK TABLE t");
      EXPECT_TRUE(checked.ok() ||
                  checked.status().code() == StatusCode::kCancelled)
          << checked.status().ToString();
    }
    if (round % 5 == 4) {
      Status checkpointed = db->Checkpoint();
      EXPECT_TRUE(checkpointed.ok()) << checkpointed.ToString();
    }
    if (round % 10 == 9) {
      db->set_statement_timeout_ms(5);
      (void)db->Execute("SELECT tip_sleep_ms(50)");
      db->set_statement_timeout_ms(0);
    }
  }

  // Let the readers overlap the tail of the writer work, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (std::thread& t : readers) t.join();
  canceller.join();

  EXPECT_GT(reads.load(), 0u);
  const DurabilityStats stats = db->durability_stats();
  EXPECT_GT(stats.txns_committed, 0u);
  EXPECT_GT(stats.txns_rolled_back, 0u);
  EXPECT_GT(stats.checkpoints, 0u);

  std::filesystem::remove_all(dir, ignored);
}

}  // namespace
}  // namespace tip::engine
