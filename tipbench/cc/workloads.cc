#include "workloads.h"

#include <chrono>
#include <thread>

#include "browser/timeline.h"
#include "layered/layered.h"

namespace tipbench {

using Clock = std::chrono::steady_clock;
using tip::Chronon;
using tip::TxContext;
using tip::client::RemoteConnection;
using tip::client::RemoteStatement;
using tip::client::ResultSet;

namespace {

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

Chronon Upto() { return *Chronon::Parse("1800-01-01"); }

/// One in this many answers is kept for an oracle check.
constexpr uint64_t kBrowseSampleEvery = 32;
constexpr uint64_t kClinicSampleEvery = 8;
constexpr uint64_t kReportSampleEvery = 8;
constexpr int kTimelineWidth = 64;
constexpr size_t kMaxMismatches = 5;
/// Sampled answers kept per session for the checks after the loop; a
/// cap, so the benchmark's own memory does not grow with run length.
constexpr size_t kMaxStoredSamples = 48;
constexpr int kMaxWriteAttempts = 10;

/// The server's refusal of a second concurrent upgrade from a shared
/// transaction; the client is told to roll back and retry.
bool IsUpgradeRefusal(const tip::Status& st) {
  return st.code() == tip::StatusCode::kInvalidArgument &&
         st.message().find("upgrade would deadlock") != std::string::npos;
}

void Mismatch(std::vector<std::string>* out, std::string what) {
  if (out->size() < kMaxMismatches) out->push_back(std::move(what));
}

}  // namespace

struct Workload::Session {
  int index = 0;
  std::unique_ptr<RemoteConnection> conn;
  std::optional<RemoteStatement> read, insert, close;
  std::optional<BrowseCursor> browse;
  std::optional<ClinicStream> clinic;
  std::optional<ReportStream> report;
  tip::Rng sample_rng{0};
  uint64_t commits = 0;

  struct BrowseSample {
    Move move;
    Keys keys;
  };
  std::vector<BrowseSample> browse_samples;
  struct ReportSample {
    ReportRound round;
    std::vector<ResultSet> results;  // Q1, Q2, Q3, slice
  };
  std::vector<ReportSample> report_samples;
};

Workload::Workload(Spec spec, uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {}

Workload::~Workload() {
  sessions_.clear();  // disconnect before the server drains
  fixture_.Stop();
}

tip::Result<std::unique_ptr<Workload>> Workload::SetUp(const Spec& spec,
                                                       uint64_t seed,
                                                       const std::string& dir,
                                                       double* setup_s) {
  std::unique_ptr<Workload> w(new Workload(spec, seed));
  w->rows_ = tip::workload::GeneratePrescriptions(w->spec_.data);
  const Clock::time_point t0 = Clock::now();
  TIP_RETURN_IF_ERROR(LoadAndRestart(w->rows_, dir, &w->fixture_));
  TIP_RETURN_IF_ERROR(w->ConnectSessions());
  w->Warm();
  *setup_s = MsSince(t0) / 1000.0;
  if (spec.kind == Kind::kClinic) {
    // Every patient gets its entry now: sessions then only look entries
    // up, so they never insert into the map concurrently.
    for (int p = 0; p < spec.data.num_patients; ++p) {
      w->model_[PatientName(p)];
    }
    for (const tip::workload::PrescriptionRow& row : w->rows_) {
      w->model_.at(row.patient).push_back(row);
    }
  }
  return w;
}

tip::Status Workload::ConnectSessions() {
  for (int i = 0; i < spec_.sessions; ++i) {
    auto s = std::make_unique<Session>();
    s->index = i;
    s->sample_rng = SessionRng(seed_ ^ 0x5A5A5A5Aull, i);
    TIP_ASSIGN_OR_RETURN(s->conn, Connect(fixture_));
    switch (spec_.kind) {
      case Kind::kBrowse:
        s->read.emplace(s->conn->Prepare(kBrowseSql));
        s->browse.emplace(spec_, seed_, i);
        break;
      case Kind::kClinic:
        TIP_RETURN_IF_ERROR(s->conn->SetNow(BaseNow(spec_)));
        s->read.emplace(s->conn->Prepare(kClinicReadSql));
        s->insert.emplace(s->conn->Prepare(kInsertSql));
        s->close.emplace(s->conn->Prepare(kCloseSql));
        s->clinic.emplace(spec_, seed_, i);
        break;
      case Kind::kReport:
        TIP_RETURN_IF_ERROR(s->conn->SetNow(BaseNow(spec_)));
        s->report.emplace(spec_, seed_, i);
        break;
    }
    for (auto* stmt : {&s->read, &s->insert, &s->close}) {
      if (stmt->has_value()) TIP_RETURN_IF_ERROR((*stmt)->status());
    }
    sessions_.push_back(std::move(s));
  }
  return tip::Status::OK();
}

void Workload::Warm() {
  // Warms plan caches, index segments and connections. Writes would
  // change the table, so clinic warms with reads of its own patients.
  const Chronon now = BaseNow(spec_);
  for (auto& s : sessions_) {
    LoopResult scratch;
    SpanLog off(false, s->index);
    switch (spec_.kind) {
      case Kind::kBrowse:
        for (int i = 0; i < 8; ++i) DoBrowse(s.get(), &scratch, &off);
        break;
      case Kind::kClinic:
        for (int i = 0; i < 8; ++i) {
          s->read->BindString("p", PatientName(s->index))
              .BindElement("today", Window(now, now));
          (void)s->read->Execute();
        }
        break;
      case Kind::kReport:
        DoReport(s.get(), &scratch, &off);
        break;
    }
  }
}

LoopResult Workload::Run(double seconds, bool trace) {
  const size_t n = sessions_.size();
  std::vector<LoopResult> local(n);
  LoopResult out;
  for (size_t i = 0; i < n; ++i) {
    out.spans.push_back(std::make_unique<SpanLog>(trace, static_cast<int>(i)));
  }
  const Clock::time_point start = Clock::now();
  loop_start_ = start;
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      RunSession(sessions_[i].get(), stop, &local[i], out.spans[i].get());
    });
  }
  for (std::thread& t : threads) t.join();
  out.elapsed_s = MsSince(start) / 1000.0;
  for (LoopResult& l : local) {
    out.read_ms.insert(out.read_ms.end(), l.read_ms.begin(), l.read_ms.end());
    out.read_done_s.insert(out.read_done_s.end(), l.read_done_s.begin(),
                           l.read_done_s.end());
    out.write_ms.insert(out.write_ms.end(), l.write_ms.begin(),
                        l.write_ms.end());
    for (size_t q = 0; q < 4; ++q) {
      out.query_ms[q].insert(out.query_ms[q].end(), l.query_ms[q].begin(),
                             l.query_ms[q].end());
    }
    out.attempted += l.attempted;
    out.failed += l.failed;
    out.statements += l.statements;
    out.statement_errors += l.statement_errors;
    out.retries += l.retries;
    out.rows_returned += l.rows_returned;
    out.checks += l.checks;
    for (std::string& m : l.mismatches) Mismatch(&out.mismatches, m);
  }
  return out;
}

void Workload::RunSession(Session* s, Clock::time_point stop, LoopResult* out,
                          SpanLog* log) {
  while (Clock::now() < stop) {
    log->NextStatement();
    switch (spec_.kind) {
      case Kind::kBrowse: DoBrowse(s, out, log); break;
      case Kind::kClinic: DoClinic(s, out, log); break;
      case Kind::kReport: DoReport(s, out, log); break;
    }
  }
}

void Workload::DoBrowse(Session* s, LoopResult* out, SpanLog* log) {
  const Move m = s->browse->Next();
  SpanLog::Scope op(log, "browse.move");
  if (m.now_changed) {
    SpanLog::Scope span(log, "client.set_now");
    ++out->statements;
    if (!s->conn->SetNow(m.now).ok()) {
      ++out->statement_errors;
      ++out->attempted;
      ++out->failed;
      return;
    }
  }
  const Clock::time_point t0 = Clock::now();
  s->read->BindElement("w", Window(m.start, m.end));
  tip::Result<ResultSet> rs = [&] {
    SpanLog::Scope span(log, "client.execute");
    return s->read->Execute();
  }();
  ++out->attempted;
  ++out->statements;
  if (!rs.ok()) {
    ++out->statement_errors;
    ++out->failed;
    return;
  }
  {
    SpanLog::Scope span(log, "browser.render");
    tip::Result<tip::browser::TimelineView> view =
        tip::browser::TimelineView::Create(*rs, "valid", TxContext(m.now));
    if (view.ok()) {
      const std::string text = view->Render({m.start, m.end}, kTimelineWidth);
      if (text.empty()) Mismatch(&out->mismatches, "empty timeline render");
    } else if (rs->row_count() > 0) {
      Mismatch(&out->mismatches, "timeline: " + view.status().ToString());
    }
  }
  out->read_ms.push_back(MsSince(t0));
  out->read_done_s.push_back(MsSince(loop_start_) / 1000);
  out->rows_returned += rs->row_count();
  if (s->sample_rng.Uniform(0, kBrowseSampleEvery - 1) == 0 &&
      s->browse_samples.size() < kMaxStoredSamples) {
    s->browse_samples.push_back({m, ResultKeys(*rs)});
  }
}

void Workload::DoClinic(Session* s, LoopResult* out, SpanLog* log) {
  const ClinicOp op = s->clinic->Next();
  const Chronon now = BaseNow(spec_);
  const TxContext ctx(now);
  if (!op.write) {
    SpanLog::Scope span(log, "clinic.read");
    const Clock::time_point t0 = Clock::now();
    s->read->BindString("p", op.read_patient)
        .BindElement("today", Window(now, now));
    tip::Result<ResultSet> rs = s->read->Execute();
    ++out->attempted;
    ++out->statements;
    if (!rs.ok()) {
      ++out->statement_errors;
      ++out->failed;
      return;
    }
    out->read_ms.push_back(MsSince(t0));
    out->read_done_s.push_back(MsSince(loop_start_) / 1000);
    out->rows_returned += rs->row_count();
    if (s->sample_rng.Uniform(0, kClinicSampleEvery - 1) == 0) {
      ++out->checks;
      if (ResultKeys(*rs) != PatientOverlapAnswer(model_.at(op.read_patient),
                                                  op.read_patient,
                                                  Window(now, now), ctx)) {
        Mismatch(&out->mismatches, "clinic read of " + op.read_patient);
      }
    }
    return;
  }

  SpanLog::Scope span(log, "clinic.write");
  const Clock::time_point t0 = Clock::now();
  ++out->attempted;
  auto step = [&](const char* name, auto&& call) {
    SpanLog::Scope inner(log, name);
    ++out->statements;
    tip::Status st = call();
    if (!st.ok()) ++out->statement_errors;
    return st;
  };
  bool ok = false;
  for (int attempt = 0; attempt < kMaxWriteAttempts && !ok; ++attempt) {
    tip::Status st = step("client.begin", [&] { return s->conn->Begin(); });
    if (st.ok()) {
      st = step("client.insert", [&] {
        BindRow(&*s->insert, op.insert);
        return s->insert->Execute().status();
      });
    }
    if (st.ok()) {
      st = step("client.update", [&] {
        s->close->BindString("p", op.close_patient)
            .BindElement("upto", Window(Upto(), now))
            .BindChronon("now", now);
        return s->close->Execute().status();
      });
    }
    if (st.ok()) {
      st = step("client.commit", [&] { return s->conn->Commit(); });
    }
    ok = st.ok();
    if (!ok && s->conn->in_transaction()) {
      (void)step("client.rollback", [&] { return s->conn->Rollback(); });
    }
    if (!ok && !IsUpgradeRefusal(st)) break;
    if (!ok) ++out->retries;
  }
  if (!ok) {
    ++out->failed;
    return;
  }
  out->write_ms.push_back(MsSince(t0));
  model_.at(op.insert.patient).push_back(op.insert);
  CloseRunning(&model_.at(op.close_patient), op.close_patient,
               Window(Upto(), now), ctx);
  ++s->commits;
  if (s->index == 0 && s->commits % spec_.checkpoint_every == 0) {
    SpanLog::Scope cp(log, "client.checkpoint");
    ++out->attempted;
    ++out->statements;
    if (!s->conn->Checkpoint().ok()) {
      ++out->statement_errors;
      ++out->failed;
    }
  }
}

void Workload::DoReport(Session* s, LoopResult* out, SpanLog* log) {
  ReportRound round = s->report->Next();
  SpanLog::Scope span(log, "report.round");
  static constexpr const char* kSpan[4] = {"report.select", "report.join",
                                           "report.coalesce", "report.slice"};
  const std::string* texts[4] = {&round.q_select, &round.q_join,
                                 &round.q_coalesce, &round.q_slice};
  std::vector<ResultSet> results;
  double total_ms = 0;
  ++out->attempted;
  for (int q = 0; q < 4; ++q) {
    SpanLog::Scope inner(log, kSpan[q]);
    const Clock::time_point t0 = Clock::now();
    tip::Result<ResultSet> rs = s->conn->Execute(*texts[q]);
    const double ms = MsSince(t0);
    ++out->statements;
    if (!rs.ok()) {
      ++out->statement_errors;
      ++out->failed;
      return;
    }
    out->query_ms[q].push_back(ms);
    total_ms += ms;
    out->rows_returned += rs->row_count();
    results.push_back(std::move(*rs));
  }
  out->read_ms.push_back(total_ms);
  out->read_done_s.push_back(MsSince(loop_start_) / 1000);
  if (s->sample_rng.Uniform(0, kReportSampleEvery - 1) == 0 &&
      s->report_samples.size() < kMaxStoredSamples) {
    s->report_samples.push_back({std::move(round), std::move(results)});
  }
}

uint64_t Workload::FinalCheck(std::vector<std::string>* mismatches) {
  uint64_t checks = 0;
  const TxContext report_ctx(BaseNow(spec_));
  if (spec_.kind == Kind::kBrowse) {
    for (auto& s : sessions_) {
      for (const Session::BrowseSample& b : s->browse_samples) {
        ++checks;
        if (b.keys != OverlapAnswer(rows_, Window(b.move.start, b.move.end),
                                    TxContext(b.move.now))) {
          Mismatch(mismatches, "browse window " + Describe(b.move));
        }
      }
    }
  }
  if (spec_.kind == Kind::kReport) {
    // The layered reference: the same rows flattened into a plain
    // schema, NOW grounded at load, queried with the textbook Q2.
    tip::engine::Database flat;
    tip::Status st =
        tip::layered::CreateFlatPrescriptionTable(&flat, "rx_flat");
    if (st.ok()) {
      st = tip::layered::LoadFlatPrescriptions(&flat, rows_, "rx_flat",
                                               report_ctx);
    }
    if (!st.ok()) Mismatch(mismatches, "layered load: " + st.ToString());
    for (auto& s : sessions_) {
      for (const Session::ReportSample& r : s->report_samples) {
        const ReportRound& q = r.round;
        checks += 4;
        Keys q1;
        for (size_t i = 0; i < r.results[0].row_count(); ++i) {
          q1.push_back(r.results[0].GetString(i, 0));
        }
        std::sort(q1.begin(), q1.end());
        if (q1 != SelectAnswer(rows_, q.select_drug, q.select_weeks,
                               report_ctx)) {
          Mismatch(mismatches, "Q1: " + q.q_select);
        }
        tip::Result<tip::engine::ResultSet> layered = flat.Execute(
            tip::layered::TemporalJoinSql("rx_flat", q.join_drug1,
                                          q.join_drug2));
        if (!layered.ok() || JoinByPatient(r.results[1], report_ctx) !=
                                 LayeredJoinByPatient(*layered)) {
          Mismatch(mismatches, "Q2 vs layered: " + q.q_join);
        }
        std::map<std::string, int64_t> q3;
        for (size_t i = 0; i < r.results[2].row_count(); ++i) {
          q3[r.results[2].GetString(i, 0)] =
              r.results[2].GetSpan(i, 1).seconds();
        }
        if (q3 != CoalesceAnswer(rows_, q.coalesce_min_patient, report_ctx)) {
          Mismatch(mismatches, "Q3: " + q.q_coalesce);
        }
        Keys slice;
        for (size_t i = 0; i < r.results[3].row_count(); ++i) {
          slice.push_back(r.results[3].GetString(i, 0) + "|" +
                          r.results[3].GetString(i, 1));
        }
        std::sort(slice.begin(), slice.end());
        if (slice != SliceAnswer(rows_, Window(q.slice_start, q.slice_end),
                                 report_ctx)) {
          Mismatch(mismatches, "slice: " + q.q_slice);
        }
      }
    }
  }
  if (spec_.kind == Kind::kClinic) {
    // Drain (final checkpoint), then a strict re-attach must hold the
    // initial rows plus every acknowledged write and nothing else.
    sessions_.clear();
    fixture_.Stop();
    tip::Result<std::unique_ptr<tip::client::Connection>> conn =
        tip::client::Connection::OpenDurable(fixture_.dir);
    if (!conn.ok()) {
      Mismatch(mismatches, "strict re-attach: " + conn.status().ToString());
      return checks;
    }
    Keys expected;
    for (const auto& [patient, rows] : model_) {
      for (const auto& row : rows) expected.push_back(RowKey(row));
    }
    std::sort(expected.begin(), expected.end());
    ++checks;
    tip::Result<ResultSet> all = (*conn)->Execute(
        "SELECT doctor, patient, drug, dosage, valid FROM rx");
    if (!all.ok() || ResultKeys(*all) != expected) {
      Mismatch(mismatches, "re-attached table differs from the model");
    }
    ++checks;
    tip::Result<ResultSet> check = (*conn)->Execute("CHECK DATABASE");
    bool clean = check.ok() && check->row_count() > 0;
    for (size_t i = 0; clean && i < check->row_count(); ++i) {
      clean = check->GetString(i, 1) == "ok";
    }
    if (!clean) Mismatch(mismatches, "CHECK DATABASE is not ok");
  }
  return checks;
}

uint64_t Workload::live_rows() const {
  if (fixture_.db == nullptr) return 0;
  tip::Result<tip::engine::Table*> t = fixture_.db->catalog().GetTable("rx");
  return t.ok() ? (*t)->heap().row_count() : 0;
}

Workload::Probe Workload::SampleRead() {
  Probe p;
  p.now = BaseNow(spec_);
  const tip::datablade::TipTypes& t = fixture_.types;
  switch (spec_.kind) {
    case Kind::kBrowse: {
      BrowseCursor cursor(spec_, seed_ + 1, 0);
      const Move m = cursor.Next();
      p.sql = std::string(kBrowseSql);
      p.params["w"] = tip::datablade::MakeElement(t, Window(m.start, m.end));
      p.now = m.now;
      break;
    }
    case Kind::kClinic:
      p.sql = std::string(kClinicReadSql);
      p.params["p"] = tip::engine::Datum::String(PatientName(1));
      p.params["today"] =
          tip::datablade::MakeElement(t, Window(p.now, p.now));
      break;
    case Kind::kReport: {
      // The timeslice window of a report round, as a bound parameter.
      ReportStream stream(spec_, seed_ + 1, 0);
      const ReportRound r = stream.Next();
      p.sql = std::string(kBrowseSql);
      p.params["w"] =
          tip::datablade::MakeElement(t, Window(r.slice_start, r.slice_end));
      break;
    }
  }
  return p;
}

}  // namespace tipbench
