// Tests of the benchmark's own machinery: the percentile rule, seed
// determinism of the generated traffic, and the oracles (each checked
// against the engine, and shown to notice a wrong answer). Run with
// ctest from the benchmark's build tree, or directly.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "client/connection.h"
#include "layered/layered.h"
#include "oracles.h"
#include "stats.h"
#include "traffic.h"
#include "workloads.h"

namespace {

using namespace tipbench;

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileNeedsTenBeyond() {
  CHECK(SamplesBeyond(1000, 0.99) == 10);
  CHECK(SamplesBeyond(999, 0.99) == 9);
  CHECK(Percentile(OneTo(1000), 0.99) == 990.0);
  CHECK(!Percentile(OneTo(999), 0.99).has_value());
  CHECK(Percentile(OneTo(100), 0.90) == 90.0);
  CHECK(!Percentile(OneTo(99), 0.90).has_value());
  CHECK(!Percentile({}, 0.5).has_value());
  CHECK(Median({3, 1, 2}) == 2.0);
  CHECK(Median({4, 1, 2, 3}) == 2.5);
}

void TestWindowedFigures() {
  // Three full 1-second windows of 200, 100 and 300 reads, then a
  // fourth that never completes and is dropped.
  std::vector<double> ms, done;
  auto fill = [&](double start, int n, double latency) {
    for (int i = 0; i < n; ++i) {
      ms.push_back(latency + i % 10);
      done.push_back(start + (i + 0.5) / n);
    }
  };
  fill(0, 200, 1);
  fill(1, 100, 50);
  fill(2, 300, 5);
  fill(3, 1000, 1000);
  const Windowed w = ByWindow(ms, done, 1.0);
  CHECK(w.windows == 3);
  CHECK(w.rate_per_s == 200.0);
  CHECK(w.p50 == 9.5);  // the window medians are 5.5, 54.5 and 9.5
  CHECK(w.p90.has_value());
  // A window with fewer than 100 samples has no p90 of its own.
  const Windowed sparse = ByWindow({1, 2, 3}, {0.1, 0.2, 1.5}, 1.0);
  CHECK(sparse.windows == 1 && !sparse.p90.has_value());
}

Spec SmallSpec(const char* name, uint64_t seed, int64_t rows) {
  Spec spec = *SpecFor(name, seed);
  spec.data.rows = rows;
  return spec;
}

void TestTrafficIsDeterministic() {
  for (const char* name : {"browse", "clinic", "report"}) {
    const Spec spec = *SpecFor(name, 42);
    auto describe = [&](uint64_t seed, int session) {
      std::string all;
      if (spec.kind == Kind::kBrowse) {
        BrowseCursor c(spec, seed, session);
        for (int i = 0; i < 50; ++i) all += Describe(c.Next()) + "\n";
      } else if (spec.kind == Kind::kClinic) {
        ClinicStream c(spec, seed, session);
        for (int i = 0; i < 50; ++i) all += Describe(c.Next()) + "\n";
      } else {
        ReportStream c(spec, seed, session);
        for (int i = 0; i < 10; ++i) all += Describe(c.Next()) + "\n";
      }
      return all;
    };
    CHECK(describe(42, 0) == describe(42, 0));
    CHECK(describe(42, 0) != describe(43, 0));
    if (spec.sessions > 1) CHECK(describe(42, 0) != describe(42, 1));
  }
  const Spec spec = SmallSpec("browse", 42, 200);
  CHECK(OverlapAnswer(tip::workload::GeneratePrescriptions(spec.data),
                      Window(BaseNow(spec), BaseNow(spec)),
                      tip::TxContext(BaseNow(spec))) ==
        OverlapAnswer(tip::workload::GeneratePrescriptions(spec.data),
                      Window(BaseNow(spec), BaseNow(spec)),
                      tip::TxContext(BaseNow(spec))));
  // Clinic sessions own disjoint patients.
  const Spec clinic = *SpecFor("clinic", 42);
  for (int s = 0; s < clinic.sessions; ++s) {
    ClinicStream c(clinic, 42, s);
    for (int i = 0; i < 100; ++i) {
      const ClinicOp op = c.Next();
      for (const std::string& p :
           {op.read_patient, op.insert.patient, op.close_patient}) {
        if (p.empty()) continue;
        CHECK(std::stoi(p.substr(7)) % clinic.sessions == s);
      }
    }
  }
  // Every report text is fresh, so the plan cache cannot hit.
  ReportStream r(*SpecFor("report", 42), 42, 0);
  std::vector<std::string> seen;
  for (int i = 0; i < 100; ++i) {
    const ReportRound round = r.Next();
    for (const std::string* t :
         {&round.q_select, &round.q_join, &round.q_coalesce, &round.q_slice}) {
      CHECK(std::find(seen.begin(), seen.end(), *t) == seen.end());
      seen.push_back(*t);
    }
  }
}

struct Embedded {
  std::unique_ptr<tip::client::Connection> conn;
  Rows rows;
};

Embedded Load(const Spec& spec) {
  Embedded e;
  e.conn = std::move(tip::client::Connection::Open()).value();
  e.rows = *tip::workload::SetUpPrescriptionTable(
      &e.conn->database(), e.conn->tip_types(), spec.data, "rx");
  CHECK(e.conn->Execute("CREATE INDEX rx_valid ON rx (valid) USING interval")
            .ok());
  e.conn->SetNow(BaseNow(spec));
  return e;
}

void TestBrowseOracle() {
  const Spec spec = SmallSpec("browse", 7, 3000);
  Embedded e = Load(spec);
  BrowseCursor cursor(spec, 7, 0);
  size_t nonempty = 0;
  for (int i = 0; i < 40; ++i) {
    const Move m = cursor.Next();
    e.conn->SetNow(m.now);
    tip::client::Statement stmt = e.conn->Prepare(kBrowseSql);
    stmt.BindElement("w", Window(m.start, m.end));
    tip::Result<tip::client::ResultSet> rs = stmt.Execute();
    CHECK(rs.ok());
    if (!rs.ok()) continue;
    Keys got = ResultKeys(*rs);
    const Keys want =
        OverlapAnswer(e.rows, Window(m.start, m.end), tip::TxContext(m.now));
    CHECK(got == want);
    if (!got.empty()) {
      ++nonempty;
      got.pop_back();
      CHECK(got != want);  // a missing row is noticed
    }
  }
  CHECK(nonempty > 20);
}

void TestReportOracles() {
  const Spec spec = SmallSpec("report", 9, 400);
  Embedded e = Load(spec);
  const tip::TxContext ctx(BaseNow(spec));
  tip::engine::Database flat;
  CHECK(tip::layered::CreateFlatPrescriptionTable(&flat, "rx_flat").ok());
  CHECK(tip::layered::LoadFlatPrescriptions(&flat, e.rows, "rx_flat", ctx)
            .ok());
  ReportStream stream(spec, 9, 0);
  size_t joins = 0;
  for (int i = 0; i < 10; ++i) {
    const ReportRound r = stream.Next();
    tip::Result<tip::client::ResultSet> q1 = e.conn->Execute(r.q_select);
    tip::Result<tip::client::ResultSet> q2 = e.conn->Execute(r.q_join);
    tip::Result<tip::client::ResultSet> q3 = e.conn->Execute(r.q_coalesce);
    tip::Result<tip::client::ResultSet> sl = e.conn->Execute(r.q_slice);
    CHECK(q1.ok() && q2.ok() && q3.ok() && sl.ok());
    if (!(q1.ok() && q2.ok() && q3.ok() && sl.ok())) continue;
    Keys patients;
    for (size_t j = 0; j < q1->row_count(); ++j) {
      patients.push_back(q1->GetString(j, 0));
    }
    std::sort(patients.begin(), patients.end());
    CHECK(patients == SelectAnswer(e.rows, r.select_drug, r.select_weeks, ctx));
    const auto layered = flat.Execute(
        tip::layered::TemporalJoinSql("rx_flat", r.join_drug1, r.join_drug2));
    CHECK(layered.ok());
    const auto tip_join = JoinByPatient(*q2, ctx);
    CHECK(tip_join == LayeredJoinByPatient(*layered));
    joins += tip_join.size();
    std::map<std::string, int64_t> lengths;
    for (size_t j = 0; j < q3->row_count(); ++j) {
      lengths[q3->GetString(j, 0)] = q3->GetSpan(j, 1).seconds();
    }
    const auto want = CoalesceAnswer(e.rows, r.coalesce_min_patient, ctx);
    CHECK(!want.empty() && lengths == want);
    lengths.begin()->second += 1;
    CHECK(lengths != want);  // a wrong length is noticed
    Keys slice;
    for (size_t j = 0; j < sl->row_count(); ++j) {
      slice.push_back(sl->GetString(j, 0) + "|" + sl->GetString(j, 1));
    }
    std::sort(slice.begin(), slice.end());
    CHECK(slice ==
          SliceAnswer(e.rows, Window(r.slice_start, r.slice_end), ctx));
  }
  CHECK(joins > 0);
}

void TestClinicModel() {
  const Spec spec = SmallSpec("clinic", 5, 2000);
  Embedded e = Load(spec);
  const tip::Chronon now = BaseNow(spec);
  const tip::TxContext ctx(now);
  const tip::Element upto = Window(*tip::Chronon::Parse("1800-01-01"), now);
  Rows model = e.rows;
  ClinicStream stream(spec, 5, 0);
  for (int i = 0; i < 100; ++i) {
    const ClinicOp op = stream.Next();
    if (!op.write) continue;
    tip::client::Statement ins = e.conn->Prepare(kInsertSql);
    ins.BindString("doctor", op.insert.doctor)
        .BindString("patient", op.insert.patient)
        .BindChronon("dob", op.insert.patient_dob)
        .BindString("drug", op.insert.drug)
        .BindInt("dosage", op.insert.dosage)
        .BindSpan("freq", op.insert.frequency)
        .BindElement("valid", op.insert.valid);
    CHECK(ins.Execute().ok());
    tip::client::Statement close = e.conn->Prepare(kCloseSql);
    close.BindString("p", op.close_patient)
        .BindElement("upto", upto)
        .BindChronon("now", now);
    CHECK(close.Execute().ok());
    model.push_back(op.insert);
    CloseRunning(&model, op.close_patient, upto, ctx);
  }
  Keys want;
  for (const auto& row : model) want.push_back(RowKey(row));
  std::sort(want.begin(), want.end());
  tip::Result<tip::client::ResultSet> all =
      e.conn->Execute("SELECT doctor, patient, drug, dosage, valid FROM rx");
  CHECK(all.ok() && ResultKeys(*all) == want);
  CHECK(ResultKeys(*all) != ResultKeys(*e.conn->Execute(
                                "SELECT doctor, patient, drug, dosage, valid "
                                "FROM rx WHERE dosage > 1")));
}

/// Every workload end to end at a small size: set-up, a short loop and
/// the final checks pass with no failed operation.
void TestWorkloadsEndToEnd() {
  for (const char* name : {"browse", "clinic", "report"}) {
    const Spec spec = SmallSpec(name, 3, 600);
    const std::string dir = std::string("tipbench_test_run/") + name;
    double setup_s = 0;
    tip::Result<std::unique_ptr<Workload>> w =
        Workload::SetUp(spec, 3, dir, &setup_s);
    CHECK(w.ok());
    if (!w.ok()) continue;
    const LoopResult loop = (*w)->Run(0.5, true);
    CHECK(setup_s > 0);
    CHECK(!loop.read_ms.empty());
    CHECK(loop.attempted > 0 && loop.failed == 0);
    CHECK(loop.mismatches.empty());
    CHECK(!loop.spans[0]->spans().empty());
    std::vector<std::string> mismatches;
    CHECK((*w)->FinalCheck(&mismatches) > 0);
    CHECK(mismatches.empty());
    for (const std::string& m : mismatches) {
      std::fprintf(stderr, "  %s: %s\n", name, m.c_str());
    }
    if (spec.kind == Kind::kClinic) CHECK(!loop.write_ms.empty());
  }
  std::error_code ec;
  std::filesystem::remove_all("tipbench_test_run", ec);
}

}  // namespace

int main() {
  TestPercentileNeedsTenBeyond();
  TestWindowedFigures();
  TestTrafficIsDeterministic();
  TestBrowseOracle();
  TestReportOracles();
  TestClinicModel();
  TestWorkloadsEndToEnd();
  if (failures == 0) std::printf("tipbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
