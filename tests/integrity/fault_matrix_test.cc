// The fault matrix the issue demands: every armed corruption site in
// the integrity subsystem must be (a) *detected* — by CHECK DATABASE
// or by recovery itself, (b) *quarantined* under salvage recovery with
// the rest of the database readable and the corruption manifest
// populated, and (c) *refused* under strict recovery. The sites:
//
//   integrity.rowhash  — a row hash perturbed on the write path (the
//                        in-memory equivalent of heap bit rot); online
//                        only, so its legs are CHECK detection plus
//                        the reseed-on-reopen recovery story.
//   snapshot.section   — a snapshot section that fails its checksum
//                        during attach.
//   recovery.apply     — a WAL record that fails to re-apply during
//                        replay.
//   integrity.indexentry — an interval-index entry recorded under a
//                        wrong row id (index rot), both by a full
//                        build and by the catch-up that folds a write
//                        into the index; online only, its leg is CHECK
//                        detection in both directions.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "datablade/datablade.h"
#include "engine/catalog/catalog.h"
#include "engine/database.h"

namespace tip::engine {
namespace {

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::ClearAll(); }
  void TearDown() override {
    fault::ClearAll();
    for (const std::string& dir : dirs_) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }

  std::string FreshDir(const std::string& name) {
    std::string dir = ::testing::TempDir() + "/tip_fault_matrix_" + name;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    dirs_.push_back(dir);
    return dir;
  }

  static ResultSet Exec(Database* db, const std::string& sql) {
    Result<ResultSet> r = db->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : ResultSet{};
  }

  /// Two tables, both checkpointed, plus two post-checkpoint WAL
  /// inserts (one per table) so replay has records to corrupt.
  std::string BuildDurableDir(const std::string& name) {
    const std::string dir = FreshDir(name);
    auto db = std::make_unique<Database>();
    EXPECT_TRUE(datablade::Install(db.get()).ok());
    EXPECT_TRUE(db->AttachDurableDir(dir).ok());
    Exec(db.get(), "CREATE TABLE emp (id INT, v CHAR(8))");
    Exec(db.get(), "CREATE TABLE dept (id INT, name CHAR(8))");
    Exec(db.get(), "INSERT INTO emp VALUES (1, 'a'), (2, 'b')");
    Exec(db.get(), "INSERT INTO dept VALUES (10, 'eng')");
    EXPECT_TRUE(db->Checkpoint().ok());
    Exec(db.get(), "INSERT INTO emp VALUES (3, 'c')");
    Exec(db.get(), "INSERT INTO dept VALUES (11, 'ops')");
    return dir;
  }

  /// Re-attaches `dir` with the fault spec armed (same grammar as
  /// SET fault_inject / TIP_FAULT_INJECT); returns the attach status
  /// and fills report/db_out when the caller wants them. Note salvage
  /// snapshot recovery reads the sections twice — a strict attempt,
  /// then the salvage fallback — so salvage-leg specs for
  /// snapshot.section use `every:n`, which keeps firing across both
  /// passes, rather than a one-shot `:n`.
  Status Reattach(const std::string& dir, const std::string& spec,
                  RecoveryMode mode, RecoveryReport* report,
                  std::unique_ptr<Database>* db_out) {
    fault::ClearAll();
    auto db = std::make_unique<Database>();
    EXPECT_TRUE(datablade::Install(db.get()).ok());
    EXPECT_TRUE(fault::ApplySpec(spec).ok()) << spec;
    Status attached = db->AttachDurableDir(dir, report, mode);
    fault::ClearAll();
    if (db_out != nullptr) *db_out = std::move(db);
    return attached;
  }

  std::vector<std::string> dirs_;
};

// ---- integrity.rowhash -----------------------------------------------------

TEST_F(FaultMatrixTest, RowHashFaultIsDetectedByCheckDatabase) {
  Database db;
  ASSERT_TRUE(datablade::Install(&db).ok());
  Exec(&db, "CREATE TABLE t (id INT)");
  fault::InjectAt("integrity.rowhash", 0);
  Exec(&db, "INSERT INTO t VALUES (1)");

  ResultSet rs = Exec(&db, "CHECK DATABASE");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][1].string_value(), "corrupt");
  EXPECT_EQ(rs.message, "CHECK FOUND 1 CORRUPT OBJECT(S)");
}

TEST_F(FaultMatrixTest, RowHashFaultDoesNotSurviveReopen) {
  // The maintained sum is in-memory state; recovery rebuilds it from
  // the durable row images, so a reopened database checks clean — the
  // damage never leaks into the durable artifacts.
  const std::string dir = FreshDir("rowhash_reopen");
  {
    auto db = std::make_unique<Database>();
    ASSERT_TRUE(datablade::Install(db.get()).ok());
    ASSERT_TRUE(db->AttachDurableDir(dir).ok());
    Exec(db.get(), "CREATE TABLE t (id INT)");
    fault::InjectAt("integrity.rowhash", 0);
    Exec(db.get(), "INSERT INTO t VALUES (1)");
    EXPECT_EQ(Exec(db.get(), "CHECK TABLE t").rows[0][1].string_value(),
              "corrupt");
    fault::ClearAll();
  }
  auto db = std::make_unique<Database>();
  ASSERT_TRUE(datablade::Install(db.get()).ok());
  ASSERT_TRUE(db->AttachDurableDir(dir).ok());
  EXPECT_EQ(Exec(db.get(), "CHECK TABLE t").rows[0][1].string_value(), "ok");
  EXPECT_EQ(Exec(db.get(), "SELECT count(*) FROM t").rows[0][0].int_value(),
            1);
}

// ---- integrity.indexentry -------------------------------------------------

/// The index-rot leg: arms the fault at the next index entry, lets
/// CHECK TABLE trigger the index work, and expects both the phantom
/// entry and the live row the index lost to be reported.
void ExpectIndexRotDetected(Database* db) {
  fault::InjectAt("integrity.indexentry", 0);
  Result<ResultSet> rs = db->Execute("CHECK TABLE emp");
  fault::ClearAll();
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->rows.size(), 1u);
  const std::string detail = rs->rows[0][2].string_value();
  EXPECT_EQ(rs->rows[0][1].string_value(), "corrupt");
  EXPECT_NE(detail.find("not a live heap row"), std::string::npos) << detail;
  EXPECT_NE(detail.find("missing from the index"), std::string::npos)
      << detail;
}

int64_t IndexCounter(Database* db, const std::string& name) {
  Result<ResultSet> rs = db->Execute(
      "SELECT tip_index_stats('emp', 'emp_valid', '" + name + "')");
  EXPECT_TRUE(rs.ok()) << rs.status().ToString();
  return rs.ok() ? rs->rows[0][0].int_value() : -1;
}

TEST_F(FaultMatrixTest, IndexEntryFaultInAFullBuildIsDetectedByCheck) {
  Database db;
  ASSERT_TRUE(datablade::Install(&db).ok());
  Exec(&db, "CREATE TABLE emp (id INT, valid Element)");
  Exec(&db, "CREATE INDEX emp_valid ON emp (valid) USING interval");
  Exec(&db, "INSERT INTO emp VALUES (1, '{[1999-01-01, 1999-06-01]}'), "
            "(2, '{[1998-01-01, 1998-06-01]}')");
  ExpectIndexRotDetected(&db);
  EXPECT_EQ(IndexCounter(&db, "absolute_builds"), 1);
  EXPECT_EQ(IndexCounter(&db, "delta_applies"), 0);
}

TEST_F(FaultMatrixTest, IndexEntryFaultInAWriteCatchUpIsDetectedByCheck) {
  Database db;
  ASSERT_TRUE(datablade::Install(&db).ok());
  Exec(&db, "CREATE TABLE emp (id INT, valid Element)");
  Exec(&db, "CREATE INDEX emp_valid ON emp (valid) USING interval");
  Exec(&db, "INSERT INTO emp VALUES (1, '{[1999-01-01, 1999-06-01]}'), "
            "(2, '{[1998-01-01, 1998-06-01]}')");
  EXPECT_EQ(Exec(&db, "CHECK TABLE emp").rows[0][1].string_value(), "ok");

  // The rot enters through the catch-up that folds this write in, not
  // through a full build.
  Exec(&db, "UPDATE emp SET valid = '{[1997-01-01, 1997-06-01]}' "
            "WHERE id = 2");
  ExpectIndexRotDetected(&db);
  EXPECT_EQ(IndexCounter(&db, "absolute_builds"), 1);
  EXPECT_EQ(IndexCounter(&db, "delta_applies"), 1);

  // The damage stays visible while the heap is unchanged, and the next
  // write rebuilds from the heap instead of folding into the damage.
  EXPECT_EQ(Exec(&db, "CHECK TABLE emp").rows[0][1].string_value(),
            "corrupt");
  Exec(&db, "INSERT INTO emp VALUES (3, '{[1996-01-01, 1996-06-01]}')");
  EXPECT_EQ(Exec(&db, "CHECK TABLE emp").rows[0][1].string_value(), "ok");
  EXPECT_EQ(IndexCounter(&db, "absolute_builds"), 2);
}

// ---- snapshot.section ------------------------------------------------------

TEST_F(FaultMatrixTest, SnapshotSectionFaultStrictRefuses) {
  const std::string dir = BuildDurableDir("snap_strict");
  for (const char* spec : {"snapshot.section:0", "snapshot.section:1"}) {
    Status attached =
        Reattach(dir, spec, RecoveryMode::kStrict, nullptr, nullptr);
    ASSERT_FALSE(attached.ok()) << spec;
    EXPECT_EQ(attached.code(), StatusCode::kCorruption) << spec;
    EXPECT_NE(attached.message().find("snapshot section"), std::string::npos)
        << attached.ToString();
  }
}

TEST_F(FaultMatrixTest, SnapshotSectionFaultSalvageQuarantinesThatTable) {
  const std::string dir = BuildDurableDir("snap_salvage");
  // every:2 fires on the second section of each pass — the strict
  // attempt refuses there, and the salvage fallback then skips the
  // same section. Whichever table that is, it must be quarantined by
  // name, the manifest must locate the damage, and the other table
  // must be readable with its full post-checkpoint contents.
  RecoveryReport report;
  std::unique_ptr<Database> db;
  Status attached = Reattach(dir, "snapshot.section:every:2",
                             RecoveryMode::kSalvage, &report, &db);
  ASSERT_TRUE(attached.ok()) << attached.ToString();
  EXPECT_EQ(report.tables_quarantined, 1u);
  ASSERT_FALSE(report.manifest.empty());
  const std::string victim = report.manifest[0].object;
  ASSERT_TRUE(victim == "emp" || victim == "dept") << victim;
  EXPECT_NE(report.manifest[0].file.find(".tip"), std::string::npos);
  EXPECT_NE(report.manifest[0].cause.find("injected section fault"),
            std::string::npos)
      << report.manifest[0].cause;

  const std::string survivor = victim == "emp" ? "dept" : "emp";
  const int64_t expect_rows = survivor == "emp" ? 3 : 2;
  EXPECT_EQ(Exec(db.get(), "SELECT count(*) FROM " + survivor)
                .rows[0][0]
                .int_value(),
            expect_rows);
  Result<ResultSet> read = db->Execute("SELECT * FROM " + victim);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);

  // Detection leg, online: CHECK DATABASE lists the quarantined table
  // without touching its storage.
  ResultSet rs = Exec(db.get(), "CHECK DATABASE");
  bool found = false;
  for (const Row& row : rs.rows) {
    if (row[0].string_value() == victim) {
      found = true;
      EXPECT_EQ(row[1].string_value(), "quarantined");
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(FaultMatrixTest, TotalSnapshotLossStillOpensUnderSalvage) {
  // every:1 fails every section: both tables are quarantined, every
  // WAL record lands on a dead table, and the database still opens —
  // empty of usable tables but honest about why.
  const std::string dir = BuildDurableDir("snap_total");
  RecoveryReport report;
  std::unique_ptr<Database> db;
  Status attached = Reattach(dir, "snapshot.section:every:1",
                             RecoveryMode::kSalvage, &report, &db);
  ASSERT_TRUE(attached.ok()) << attached.ToString();
  EXPECT_EQ(report.tables_quarantined, 2u);
  EXPECT_EQ(report.manifest.size(), 2u);
  EXPECT_EQ(report.records_skipped, 2u);
  for (const char* table : {"emp", "dept"}) {
    Result<ResultSet> read =
        db->Execute("SELECT * FROM " + std::string(table));
    ASSERT_FALSE(read.ok()) << table;
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption) << table;
  }
  // Accepting the loss drains the quarantine and unblocks checkpoints.
  Exec(db.get(), "DROP TABLE emp");
  Exec(db.get(), "DROP TABLE dept");
  EXPECT_TRUE(db->Checkpoint().ok());
}

// ---- recovery.apply --------------------------------------------------------

TEST_F(FaultMatrixTest, ReplayApplyFaultStrictRefuses) {
  const std::string dir = BuildDurableDir("apply_strict");
  // Two post-checkpoint records; fail each in turn.
  for (const char* spec : {"recovery.apply:0", "recovery.apply:1"}) {
    Status attached =
        Reattach(dir, spec, RecoveryMode::kStrict, nullptr, nullptr);
    ASSERT_FALSE(attached.ok()) << spec;
    EXPECT_EQ(attached.code(), StatusCode::kCorruption) << spec;
    // The error carries WAL context: file and LSN.
    EXPECT_NE(attached.message().find("wal.log"), std::string::npos)
        << attached.ToString();
    EXPECT_NE(attached.message().find("lsn="), std::string::npos)
        << attached.ToString();
  }
}

TEST_F(FaultMatrixTest, ReplayApplyFaultSalvageQuarantinesTheRecordsTable) {
  const std::string dir = BuildDurableDir("apply_salvage");
  // Post-checkpoint replay order: emp's insert, then dept's.
  struct Leg {
    const char* spec;
    const char* victim;
    const char* survivor;
    int64_t survivor_rows;
  };
  for (const Leg& leg :
       std::vector<Leg>{{"recovery.apply:0", "emp", "dept", 2},
                        {"recovery.apply:1", "dept", "emp", 3}}) {
    RecoveryReport report;
    std::unique_ptr<Database> db;
    Status attached =
        Reattach(dir, leg.spec, RecoveryMode::kSalvage, &report, &db);
    ASSERT_TRUE(attached.ok()) << attached.ToString();
    EXPECT_EQ(report.tables_quarantined, 1u) << leg.victim;
    ASSERT_FALSE(report.manifest.empty());
    EXPECT_EQ(report.manifest[0].object, leg.victim);
    EXPECT_GT(report.manifest[0].lsn, 0u);

    EXPECT_EQ(Exec(db.get(), "SELECT count(*) FROM " +
                                 std::string(leg.survivor))
                  .rows[0][0]
                  .int_value(),
              leg.survivor_rows);
    Result<ResultSet> read =
        db->Execute("SELECT * FROM " + std::string(leg.victim));
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
  }
}

TEST_F(FaultMatrixTest, UnarmedAttachIsCleanInBothModes) {
  // Matrix control row: with nothing armed, both modes attach with an
  // empty manifest and full data.
  const std::string dir = BuildDurableDir("control");
  for (RecoveryMode mode : {RecoveryMode::kStrict, RecoveryMode::kSalvage}) {
    RecoveryReport report;
    std::unique_ptr<Database> db;
    Status attached = Reattach(dir, "no.such.point:0", mode, &report, &db);
    ASSERT_TRUE(attached.ok()) << attached.ToString();
    EXPECT_EQ(report.tables_quarantined, 0u);
    EXPECT_TRUE(report.manifest.empty());
    EXPECT_EQ(report.records_skipped, 0u);
    EXPECT_EQ(Exec(db.get(), "SELECT count(*) FROM emp")
                  .rows[0][0]
                  .int_value(),
              3);
    EXPECT_EQ(Exec(db.get(), "SELECT count(*) FROM dept")
                  .rows[0][0]
                  .int_value(),
              2);
  }
}

}  // namespace
}  // namespace tip::engine
