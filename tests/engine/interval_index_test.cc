#include "engine/index/interval_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "datablade/datablade.h"
#include "engine/database.h"

namespace tip::engine {
namespace {

std::vector<RowId> Sorted(std::vector<RowId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<RowId> BruteForce(const std::vector<IntervalEntry>& entries,
                              int64_t qs, int64_t qe) {
  std::vector<RowId> out;
  for (const IntervalEntry& e : entries) {
    if (e.start <= qe && qs <= e.end) out.push_back(e.row);
  }
  return Sorted(std::move(out));
}

TEST(IntervalIndexTest, EmptyIndex) {
  IntervalIndex index = IntervalIndex::Build({});
  EXPECT_TRUE(index.empty());
  std::vector<RowId> out;
  index.FindOverlapping(0, 100, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntervalIndexTest, SingleEntry) {
  IntervalIndex index = IntervalIndex::Build({{10, 20, 1}});
  std::vector<RowId> out;
  index.FindOverlapping(20, 30, &out);
  EXPECT_EQ(out, std::vector<RowId>{1});
  out.clear();
  index.FindOverlapping(21, 30, &out);
  EXPECT_TRUE(out.empty());
  out.clear();
  index.FindStabbing(15, &out);
  EXPECT_EQ(out, std::vector<RowId>{1});
}

TEST(IntervalIndexTest, KnownLayout) {
  std::vector<IntervalEntry> entries = {
      {1, 5, 10}, {3, 9, 11}, {8, 12, 12}, {15, 15, 13}, {20, 30, 14},
  };
  IntervalIndex index = IntervalIndex::Build(entries);
  EXPECT_EQ(index.entry_count(), 5u);
  std::vector<RowId> out;
  index.FindOverlapping(4, 8, &out);
  EXPECT_EQ(Sorted(out), (std::vector<RowId>{10, 11, 12}));
  out.clear();
  index.FindOverlapping(13, 19, &out);
  EXPECT_EQ(Sorted(out), std::vector<RowId>{13});
  out.clear();
  index.FindOverlapping(31, 40, &out);
  EXPECT_TRUE(out.empty());
}

TEST(IntervalIndexTest, AllIntervalsIdentical) {
  // Degenerate balance case: every interval straddles every center.
  std::vector<IntervalEntry> entries;
  for (RowId r = 0; r < 100; ++r) entries.push_back({50, 60, r});
  IntervalIndex index = IntervalIndex::Build(entries);
  std::vector<RowId> out;
  index.FindOverlapping(55, 55, &out);
  EXPECT_EQ(out.size(), 100u);
  out.clear();
  index.FindOverlapping(0, 49, &out);
  EXPECT_TRUE(out.empty());
}

class IntervalIndexPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalIndexPropertyTest, AgreesWithBruteForce) {
  Rng rng(GetParam());
  std::vector<IntervalEntry> entries;
  const int n = 300;
  for (RowId r = 0; r < n; ++r) {
    int64_t s = rng.Uniform(0, 1000);
    int64_t e = s + rng.Uniform(0, 80);
    entries.push_back({s, e, r});
  }
  IntervalIndex index = IntervalIndex::Build(entries);
  for (int q = 0; q < 200; ++q) {
    int64_t qs = rng.Uniform(-50, 1100);
    int64_t qe = qs + rng.Uniform(0, 120);
    std::vector<RowId> got;
    index.FindOverlapping(qs, qe, &got);
    EXPECT_EQ(Sorted(got), BruteForce(entries, qs, qe))
        << "query [" << qs << ", " << qe << "]";
  }
}

TEST_P(IntervalIndexPropertyTest, StabbingAgreesWithBruteForce) {
  Rng rng(GetParam() ^ 0xF00D);
  std::vector<IntervalEntry> entries;
  for (RowId r = 0; r < 200; ++r) {
    int64_t s = rng.Uniform(0, 500);
    entries.push_back({s, s + rng.Uniform(0, 40), r});
  }
  IntervalIndex index = IntervalIndex::Build(entries);
  for (int64_t q = -10; q <= 560; q += 7) {
    std::vector<RowId> got;
    index.FindStabbing(q, &got);
    EXPECT_EQ(Sorted(got), BruteForce(entries, q, q));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalIndexPropertyTest,
                         ::testing::Values(21u, 42u, 84u));

// -- Segmented index staleness semantics (SQL level) -------------------------
//
// The segmented index splits each interval index into a persistent
// absolute segment (rebuilt only on heap writes) and a NOW-dependent
// overlay (rebuilt only on NOW changes). These tests pin down exactly
// which segment rebuilds when, asserted through the tip_index_stats()
// counters.

class SegmentedIndexSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datablade::Install(&db_).ok());
    Exec("CREATE TABLE t (valid Element)");
  }

  ResultSet Exec(const std::string& sql) {
    Result<ResultSet> r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? std::move(*r) : ResultSet{};
  }

  int64_t Count(const std::string& window) {
    ResultSet r = Exec("SELECT count(*) FROM t WHERE overlaps(valid, '" +
                       window + "'::Element)");
    return r.rows[0][0].int_value();
  }

  int64_t Counter(const std::string& name) {
    ResultSet r =
        Exec("SELECT tip_index_stats('t', 'idx', '" + name + "')");
    return r.rows[0][0].int_value();
  }

  Database db_;
};

TEST_F(SegmentedIndexSqlTest, NowOverrideChangesAnswerForNowRelativeRows) {
  Exec("INSERT INTO t VALUES ('{[1999-01-01, 1999-03-01]}')");
  Exec("INSERT INTO t VALUES ('{[1999-10-01, NOW]}')");
  Exec("CREATE INDEX idx ON t (valid) USING interval");

  const std::string window = "{[1999-11-01, 1999-12-31]}";
  Exec("SET NOW '1999-11-15'");
  EXPECT_EQ(Count(window), 1);  // open prescription reaches into the window
  Exec("SET NOW '1999-09-17'");
  EXPECT_EQ(Count(window), 0);  // NOW before start: the open row is empty
  Exec("SET NOW '2000-01-10'");
  EXPECT_EQ(Count(window), 1);
}

TEST_F(SegmentedIndexSqlTest, AllAbsoluteTableNeverRebuildsOnNowChanges) {
  for (int i = 0; i < 8; ++i) {
    Exec("INSERT INTO t VALUES ('{[1999-0" + std::to_string(i + 1) +
         "-01, 1999-0" + std::to_string(i + 1) + "-20]}')");
  }
  Exec("CREATE INDEX idx ON t (valid) USING interval");

  const std::string window = "{[1999-03-15, 1999-05-10]}";
  const char* nows[] = {"'1999-11-15'", "'2000-06-01'", "'1999-11-15'",
                        "'1980-01-01'", "'2000-06-01'"};
  int64_t expected = -1;
  for (const char* now : nows) {
    Exec(std::string("SET NOW ") + now);
    const int64_t got = Count(window);
    if (expected < 0) expected = got;
    EXPECT_EQ(got, expected) << "answer drifted across NOW overrides";
  }
  EXPECT_EQ(expected, 3);

  // One absolute build, zero overlay rebuilds: NOW changes are free.
  EXPECT_EQ(Counter("absolute_builds"), 1);
  EXPECT_EQ(Counter("overlay_builds"), 0);
  EXPECT_EQ(Counter("probes"), static_cast<int64_t>(std::size(nows)));
  EXPECT_EQ(Counter("rows_scanned"), 8);
}

TEST_F(SegmentedIndexSqlTest, MixedTableRebuildsOnlyTheOverlay) {
  Exec("INSERT INTO t VALUES ('{[1999-01-01, 1999-03-01]}')");
  Exec("INSERT INTO t VALUES ('{[1999-04-01, 1999-05-01]}')");
  Exec("INSERT INTO t VALUES ('{[1999-10-01, NOW]}')");
  Exec("CREATE INDEX idx ON t (valid) USING interval");

  const std::string window = "{[1999-11-01, 1999-12-31]}";
  Exec("SET NOW '1999-11-15'");
  EXPECT_EQ(Count(window), 1);
  EXPECT_EQ(Counter("absolute_builds"), 1);
  EXPECT_EQ(Counter("overlay_builds"), 1);  // built with the full scan

  Exec("SET NOW '2000-02-01'");
  EXPECT_EQ(Count(window), 1);
  EXPECT_EQ(Counter("absolute_builds"), 1);  // untouched
  EXPECT_EQ(Counter("overlay_builds"), 2);   // re-grounded for the new NOW

  // Same NOW again: nothing rebuilds.
  EXPECT_EQ(Count(window), 1);
  EXPECT_EQ(Counter("absolute_builds"), 1);
  EXPECT_EQ(Counter("overlay_builds"), 2);
}

TEST_F(SegmentedIndexSqlTest, WriteMovingTheOverlayDomainRegroundsOnlyIt) {
  Exec("INSERT INTO t VALUES ('{[1999-01-01, 1999-03-01]}')");
  Exec("INSERT INTO t VALUES ('{[1999-10-01, NOW]}')");
  Exec("CREATE INDEX idx ON t (valid) USING interval");

  const std::string window = "{[1999-11-01, 1999-12-31]}";
  Exec("SET NOW '1999-11-15'");
  EXPECT_EQ(Count(window), 1);
  EXPECT_EQ(Counter("overlay_builds"), 1);

  // A new NOW-relative row joins the overlay's domain: the catch-up
  // re-grounds the overlay, the absolute segment stays as built.
  Exec("INSERT INTO t VALUES ('{[1999-11-10, NOW]}')");
  EXPECT_EQ(Count(window), 2);
  EXPECT_EQ(Counter("absolute_builds"), 1);
  EXPECT_EQ(Counter("delta_applies"), 1);
  EXPECT_EQ(Counter("overlay_builds"), 2);

  // Closing it at a fixed end moves it into the delta; the overlay
  // re-grounds once more, over the one row left.
  Exec("UPDATE t SET valid = '{[1999-11-10, 1999-11-12]}' "
       "WHERE overlaps(valid, '{[1999-11-10, 1999-11-10]}'::Element) "
       "AND NOT overlaps(valid, '{[1999-10-01, 1999-10-01]}'::Element)");
  EXPECT_EQ(Count(window), 2);
  EXPECT_EQ(Counter("absolute_builds"), 1);
  EXPECT_EQ(Counter("delta_applies"), 2);
  EXPECT_EQ(Counter("overlay_builds"), 3);

  // An absolute-only write leaves the overlay's domain alone.
  Exec("INSERT INTO t VALUES ('{[1999-12-01, 1999-12-05]}')");
  EXPECT_EQ(Count(window), 3);
  EXPECT_EQ(Counter("delta_applies"), 3);
  EXPECT_EQ(Counter("overlay_builds"), 3);
}

TEST_F(SegmentedIndexSqlTest, HeapMutationInvalidatesAbsoluteSegment) {
  Exec("INSERT INTO t VALUES ('{[1999-01-01, 1999-03-01]}')");
  Exec("CREATE INDEX idx ON t (valid) USING interval");
  Exec("SET NOW '1999-11-15'");

  const std::string window = "{[1999-02-01, 1999-02-10]}";
  EXPECT_EQ(Count(window), 1);
  EXPECT_EQ(Counter("absolute_builds"), 1);
  EXPECT_EQ(Counter("delta_applies"), 0);

  // A write costs the rows it touched: the next probe folds them into
  // the delta instead of rebuilding the absolute segment.
  Exec("INSERT INTO t VALUES ('{[1999-02-05, 1999-06-01]}')");
  EXPECT_EQ(Count(window), 2);
  EXPECT_EQ(Counter("absolute_builds"), 1);
  EXPECT_EQ(Counter("delta_applies"), 1);

  Exec("DELETE FROM t WHERE overlaps(valid, '{[1999-05-01, 1999-06-01]}'"
       "::Element)");
  EXPECT_EQ(Count(window), 1);
  EXPECT_EQ(Counter("absolute_builds"), 1);
  EXPECT_EQ(Counter("delta_applies"), 2);
}

TEST_F(SegmentedIndexSqlTest, IndexAgreesWithSeqScanAcrossNowOverrides) {
  for (int i = 0; i < 6; ++i) {
    Exec("INSERT INTO t VALUES ('{[1999-0" + std::to_string(i + 1) +
         "-01, 1999-0" + std::to_string(i + 1) + "-25]}')");
  }
  Exec("INSERT INTO t VALUES ('{[1999-10-01, NOW]}')");
  Exec("INSERT INTO t VALUES ('{[NOW-30, NOW]}')");
  Exec("CREATE INDEX idx ON t (valid) USING interval");

  for (const char* now : {"'1999-11-15'", "'1999-09-17'", "'2000-06-01'"}) {
    Exec(std::string("SET NOW ") + now);
    for (const char* window :
         {"{[1999-03-15, 1999-05-10]}", "{[1999-11-01, 1999-12-31]}",
          "{[2000-05-01, 2000-07-01]}"}) {
      Exec("SET interval_join off");
      const int64_t scanned = Count(window);
      Exec("SET interval_join on");
      EXPECT_EQ(Count(window), scanned)
          << "NOW " << now << " window " << window;
    }
  }
}

TEST(SegmentedIndexConcurrencyTest, ConcurrentGetIntervalIndexIsRaceFree) {
  Database db;
  ASSERT_TRUE(datablade::Install(&db).ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE t (valid Element)").ok());
  // 40 absolute rows far from the probe window, 10 open-ended rows
  // whose overlap with the window depends on NOW.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        db.Execute("INSERT INTO t VALUES ('{[1990-01-01, 1990-06-01]}')")
            .ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        db.Execute("INSERT INTO t VALUES ('{[1999-10-01, NOW]}')").ok());
  }
  ASSERT_TRUE(
      db.Execute("CREATE INDEX idx ON t (valid) USING interval").ok());
  const Table* table = *db.catalog().GetTable("t");

  // Probe window [1999-11-01, 2000-01-31].
  const int64_t qs = Chronon::Parse("1999-11-01")->seconds();
  const int64_t qe = Chronon::Parse("2000-01-31")->seconds();
  // Under now_in the open rows reach into the window; under now_out
  // (NOW before their start) they cover no time at all.
  const TxContext now_in(*Chronon::Parse("1999-11-15"));
  const TxContext now_out(*Chronon::Parse("1999-09-17"));

  // The two NOW contexts deliberately alternate across threads so the
  // overlay thrashes while other threads hold and probe views.
  std::atomic<int> mismatches{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const bool in = (t + i) % 2 == 0;
        const TxContext& ctx = in ? now_in : now_out;
        Result<IntervalIndexView> view = table->GetIntervalIndex(0, ctx);
        if (!view.ok()) {
          errors.fetch_add(1);
          continue;
        }
        std::vector<RowId> out;
        view->FindOverlapping(qs, qe, &out);
        if (out.size() != (in ? 10u : 0u)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace tip::engine
