#include "engine/storage/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/durable_fs.h"
#include "datablade/datablade.h"
#include "engine/database.h"

namespace tip::engine {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(datablade::Install(&db_).ok());
    Exec(&db_, "SET NOW '1999-11-15'");
    Exec(&db_, "CREATE TABLE rx (patient CHAR(20), dosage INT, "
               "score DOUBLE, ok BOOLEAN, dob Chronon, freq Span, "
               "seen Instant, stay Period, valid Element)");
    Exec(&db_,
         "INSERT INTO rx VALUES "
         "('showbiz', 2, 0.5, true, '1955-04-19', '0 08:00:00', 'NOW-1', "
         "'[NOW-7, NOW]', '{[1999-10-01, NOW]}'), "
         "('janedoe', NULL, NULL, NULL, NULL, NULL, NULL, NULL, NULL)");
    Exec(&db_, "CREATE INDEX rx_valid ON rx (valid) USING interval");
  }

  static ResultSet Exec(Database* db, std::string_view sql) {
    Result<ResultSet> r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ResultSet{};
  }

  Database db_;
};

TEST_F(SnapshotTest, RoundTripPreservesEverything) {
  Result<std::string> bytes = SaveSnapshot(db_);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();

  Database restored;
  ASSERT_TRUE(datablade::Install(&restored).ok());
  ASSERT_TRUE(LoadSnapshot(&restored, *bytes).ok());
  restored.SetNowOverride(*Chronon::Parse("1999-11-15"));

  // Schema, rows and values identical.
  ResultSet original = Exec(&db_, "SELECT * FROM rx ORDER BY patient");
  ResultSet copy = Exec(&restored, "SELECT * FROM rx ORDER BY patient");
  ASSERT_EQ(copy.rows.size(), original.rows.size());
  ASSERT_EQ(copy.columns.size(), original.columns.size());
  for (size_t i = 0; i < original.rows.size(); ++i) {
    for (size_t j = 0; j < original.rows[i].size(); ++j) {
      EXPECT_EQ(restored.types().Format(copy.rows[i][j]),
                db_.types().Format(original.rows[i][j]))
          << "row " << i << " col " << j;
    }
  }
  // NOW stayed symbolic: the restored element still ends at NOW.
  ResultSet open_row = Exec(&restored, "SELECT valid::char FROM rx "
                                       "WHERE patient = 'showbiz'");
  EXPECT_EQ(open_row.rows[0][0].string_value(), "{[1999-10-01, NOW]}");
  // The interval index came back (the plan uses it).
  ResultSet plan = Exec(&restored,
                        "EXPLAIN SELECT * FROM rx WHERE overlaps(valid, "
                        "'{[1999-10-05, 1999-10-06]}'::Element)");
  bool indexed = false;
  for (const Row& row : plan.rows) {
    if (row[0].string_value().find("IntervalIndexScan") !=
        std::string::npos) {
      indexed = true;
    }
  }
  EXPECT_TRUE(indexed);
}

TEST_F(SnapshotTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/tip_snapshot.bin";
  ASSERT_TRUE(SaveSnapshotToFile(db_, path).ok());
  Database restored;
  ASSERT_TRUE(datablade::Install(&restored).ok());
  ASSERT_TRUE(LoadSnapshotFromFile(&restored, path).ok());
  EXPECT_EQ(Exec(&restored, "SELECT count(*) FROM rx")
                .rows[0][0].int_value(),
            2);
  std::remove(path.c_str());
  EXPECT_FALSE(LoadSnapshotFromFile(&restored, path).ok());
}

TEST_F(SnapshotTest, MultiMegabyteTableSavesTheSameBytesToFileAndString) {
  // Megabytes of one table: the save builds it in chunks, and
  // the file, the in-memory form and a reload must all agree.
  Exec(&db_, "CREATE TABLE big (name CHAR(40), n INT)");
  for (int batch = 0; batch < 40; ++batch) {
    std::string sql = "INSERT INTO big VALUES ";
    for (int i = 0; i < 1000; ++i) {
      if (i > 0) sql += ", ";
      sql += "('row-" + std::to_string(batch) + "-" + std::to_string(i) +
             "-padding-padding', " + std::to_string(batch * 1000 + i) + ")";
    }
    Exec(&db_, sql);
  }
  Result<std::string> bytes = SaveSnapshot(db_);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ASSERT_GT(bytes->size(), size_t{1} << 20);

  const std::string path = ::testing::TempDir() + "/tip_snapshot_big.bin";
  ASSERT_TRUE(SaveSnapshotToFile(db_, path).ok());
  Result<std::string> file = fs::ReadFile(path);
  std::remove(path.c_str());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_TRUE(*file == *bytes);

  Database restored;
  ASSERT_TRUE(datablade::Install(&restored).ok());
  ASSERT_TRUE(LoadSnapshot(&restored, *bytes).ok());
  EXPECT_EQ(Exec(&restored, "SELECT count(*) FROM big").rows[0][0].int_value(),
            40000);
  Result<std::string> again = SaveSnapshot(restored);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again == *bytes);
}

TEST_F(SnapshotTest, LoadRequiresInstalledTypes) {
  Result<std::string> bytes = SaveSnapshot(db_);
  ASSERT_TRUE(bytes.ok());
  Database bare;  // no DataBlade
  Status s = LoadSnapshot(&bare, *bytes);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_NE(s.message().find("DataBlade"), std::string::npos);
}

TEST_F(SnapshotTest, LoadRejectsCollisionsAndGarbage) {
  Result<std::string> bytes = SaveSnapshot(db_);
  ASSERT_TRUE(bytes.ok());
  // Restoring over an existing table fails.
  EXPECT_EQ(LoadSnapshot(&db_, *bytes).code(),
            StatusCode::kAlreadyExists);
  Database fresh;
  ASSERT_TRUE(datablade::Install(&fresh).ok());
  EXPECT_FALSE(LoadSnapshot(&fresh, "not a snapshot").ok());
  // Truncated payloads fail cleanly at every prefix length.
  for (size_t cut : {size_t{9}, size_t{20}, size_t{64}, bytes->size() - 1}) {
    Database target;
    ASSERT_TRUE(datablade::Install(&target).ok());
    EXPECT_FALSE(LoadSnapshot(&target,
                              std::string_view(*bytes).substr(0, cut))
                     .ok())
        << "cut at " << cut;
  }
}

TEST_F(SnapshotTest, EmptyDatabaseRoundTrips) {
  Database empty;
  Result<std::string> bytes = SaveSnapshot(empty);
  ASSERT_TRUE(bytes.ok());
  Database restored;
  ASSERT_TRUE(LoadSnapshot(&restored, *bytes).ok());
  EXPECT_TRUE(restored.catalog().TableNames().empty());
}

}  // namespace
}  // namespace tip::engine
