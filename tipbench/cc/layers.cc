#include "layers.h"

#include <chrono>
#include <filesystem>
#include <functional>

#include "browser/timeline.h"
#include "engine/session_context.h"
#include "engine/sql/parser.h"
#include "layered/layered.h"
#include "stats.h"

namespace tipbench {

using Clock = std::chrono::steady_clock;
using tip::Chronon;
using tip::GroundedElement;
using tip::TxContext;
using tip::engine::Database;
using tip::engine::Params;
using tip::engine::SessionContext;

namespace {

double MsOf(const std::function<void()>& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Median of `reps` timed calls after one untimed warm-up call.
double WarmMedianMs(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(MsOf(fn));
  return Median(std::move(ms));
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }
double Per(uint64_t count, double den) {
  return Ratio(static_cast<double>(count), den);
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Keeps the results of timed Element operations observable, so the
/// compiler cannot drop the work.
volatile size_t g_sink = 0;

/// ns per call and per input period of `op` over consecutive pairs of
/// `elements`, repeated until at least 20 ms have been timed.
struct PairTiming {
  double ns_per_call = 0, ns_per_period = 0;
};
template <typename Op>  // size_t(const GroundedElement&, ...&), inlined
PairTiming TimePairs(const std::vector<GroundedElement>& elements, Op op) {
  if (elements.size() < 2) return {};
  uint64_t calls = 0, periods = 0;
  size_t sink = 0;
  double ms = 0;
  while (ms < 20) {
    ms += MsOf([&] {
      for (size_t i = 0; i + 1 < elements.size(); ++i) {
        sink += op(elements[i], elements[i + 1]);
        periods += elements[i].size() + elements[i + 1].size();
        ++calls;
      }
    });
  }
  g_sink = sink;
  return {ms * 1e6 / static_cast<double>(calls),
          ms * 1e6 / static_cast<double>(periods)};
}

/// An embedded, durable copy of the workload's table in `dir`, for the
/// warm per-class and storage probes.
struct ProbeDb {
  std::unique_ptr<Database> db;
  tip::datablade::TipTypes types;
  SessionContext session;
};

tip::Status OpenProbe(const std::string& dir, ProbeDb* p) {
  p->db = std::make_unique<Database>();
  TIP_RETURN_IF_ERROR(tip::datablade::Install(p->db.get()));
  TIP_ASSIGN_OR_RETURN(p->types, tip::datablade::TipTypes::Lookup(*p->db));
  return p->db->AttachDurableDir(dir);
}

}  // namespace

Counters ReadCounters(Workload& w) {
  Counters c;
  Database& db = *w.fixture().db;
  const tip::engine::ServerStatsCounters& s = db.server_stats();
  c.statements = s.statements_served.load();
  c.bytes_out = s.bytes_out.load();
  c.gate_wait_ms =
      s.gate_wait_shared_ms.load() + s.gate_wait_exclusive_ms.load();
  c.plan_hits = db.plan_cache_stats().hits.load();
  c.plan_misses = db.plan_cache_stats().misses.load();
  tip::Result<tip::engine::Table*> table = db.catalog().GetTable("rx");
  if (table.ok()) {
    if (auto ix = (*table)->IntervalIndexStats(6)) {
      c.absolute_builds = ix->absolute_builds;
      c.overlay_builds = ix->overlay_builds;
      c.probes = ix->probes;
      c.index_rows_returned = ix->rows_returned;
    }
  }
  const tip::engine::DurabilityStats d = db.durability_stats();
  c.fsyncs = d.wal.fsyncs;
  c.wal_bytes = d.wal.bytes_written;
  c.commits = d.txns_committed;
  return c;
}

Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
  d.statements = a.statements - b.statements;
  d.bytes_out = a.bytes_out - b.bytes_out;
  d.gate_wait_ms = a.gate_wait_ms - b.gate_wait_ms;
  d.plan_hits = a.plan_hits - b.plan_hits;
  d.plan_misses = a.plan_misses - b.plan_misses;
  d.absolute_builds = a.absolute_builds - b.absolute_builds;
  d.overlay_builds = a.overlay_builds - b.overlay_builds;
  d.probes = a.probes - b.probes;
  d.index_rows_returned = a.index_rows_returned - b.index_rows_returned;
  // A checkpoint rotates the WAL and restarts its counters; clamp.
  d.fsyncs = a.fsyncs >= b.fsyncs ? a.fsyncs - b.fsyncs : a.fsyncs;
  d.wal_bytes = a.wal_bytes >= b.wal_bytes ? a.wal_bytes - b.wal_bytes
                                           : a.wal_bytes;
  d.commits = a.commits - b.commits;
  return d;
}

namespace {

/// The same read remotely and embedded (same NOW and parameters),
/// interleaved, and the timeline build + render of its result.
struct ServerProbe {
  double wire_ms = 0, render_ms = 0;
};
ServerProbe ProbeServer(Workload& w) {
  Database& live = *w.fixture().db;
  const Workload::Probe read = w.SampleRead();
  std::vector<double> remote, embedded, render;
  tip::Result<std::unique_ptr<tip::client::RemoteConnection>> conn =
      Connect(w.fixture());
  SessionContext session;
  live.SetNowOverride(read.now, &session);
  tip::Result<std::shared_ptr<const tip::engine::PreparedPlan>> plan =
      live.Prepare(read.sql, &session);
  if (!conn.ok() || !plan.ok() || !(*conn)->SetNow(read.now).ok()) return {};
  for (int i = 0; i < 41; ++i) {
    tip::Result<tip::client::ResultSet> rs = tip::Status::OK();
    const double r =
        MsOf([&] { rs = (*conn)->Execute(read.sql, read.params); });
    tip::Result<tip::engine::ResultSet> local = tip::Status::OK();
    const double e = MsOf(
        [&] { local = live.ExecutePrepared(**plan, &read.params, &session); });
    if (i == 0 || !rs.ok() || !local.ok()) continue;  // i == 0 warms up
    remote.push_back(r);
    embedded.push_back(e);
    render.push_back(MsOf([&] {
      tip::Result<tip::browser::TimelineView> view =
          tip::browser::TimelineView::Create(*rs, "valid",
                                             TxContext(read.now));
      if (!view.ok()) return;
      tip::Result<tip::GroundedPeriod> extent = view->FullExtent();
      if (!extent.ok()) return;
      g_sink = view->Render({extent->start(), extent->end()}, 64).size();
    }));
  }
  return {Median(remote) - Median(embedded), Median(render)};
}

/// Warm embedded execution of every statement class, and the storage
/// timings, on a durable embedded copy of the workload's rows in `dir`.
struct ClassProbe {
  double window_ms = 0, point_ms = 0, select_ms = 0, join_ms = 0,
         coalesce_ms = 0, slice_ms = 0, write_ms = 0, commit_ms = 0,
         rebuild_ms = 0, checkpoint_ms = 0, recover_s = 0;
};
ClassProbe ProbeClasses(const Spec& spec, const Rows& rows,
                        const ReportRound& round, const std::string& dir) {
  ClassProbe out;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  ProbeDb p;
  tip::Status st = OpenProbe(dir, &p);
  if (st.ok()) st = tip::workload::CreatePrescriptionTable(p.db.get(), "rx");
  if (st.ok()) {
    st = tip::workload::LoadPrescriptions(p.db.get(), p.types, rows, "rx");
  }
  if (st.ok()) {
    st = p.db->Execute("CREATE INDEX rx_valid ON rx (valid) USING interval")
             .status();
  }
  if (st.ok()) st = p.db->Checkpoint();
  if (!st.ok()) return out;

  Database& db = *p.db;
  const Chronon now = BaseNow(spec);
  db.SetNowOverride(now, &p.session);
  auto timed = [&](std::string_view sql, const Params& params) {
    tip::Result<std::shared_ptr<const tip::engine::PreparedPlan>> plan =
        db.Prepare(sql, &p.session);
    if (!plan.ok()) return 0.0;
    return WarmMedianMs(
        5, [&] { (void)db.ExecutePrepared(**plan, &params, &p.session); });
  };
  auto element = [&](const tip::Element& e) {
    return tip::datablade::MakeElement(p.types, e);
  };
  BrowseCursor cursor(spec, 11, 0);
  const Move move = cursor.Next();
  const Params window{{"w", element(Window(move.start, move.end))}};
  const Params point{{"p", tip::engine::Datum::String(PatientName(1))},
                     {"today", element(Window(now, now))}};
  out.window_ms = timed(kBrowseSql, window);
  out.point_ms = timed(kClinicReadSql, point);
  out.select_ms = timed(round.q_select, {});
  out.join_ms = timed(round.q_join, {});
  out.coalesce_ms = timed(round.q_coalesce, {});
  out.slice_ms = timed(round.q_slice, {});

  // The clinic write transaction with its COMMIT timed alone, then a
  // read right after the write (index rebuild) against a warm read.
  ClinicStream writes(spec, 13, 0);
  std::vector<double> write, commit, rebuild;
  tip::Result<std::shared_ptr<const tip::engine::PreparedPlan>> read =
      db.Prepare(kClinicReadSql, &p.session);
  for (int i = 0; i < 10 && read.ok(); ++i) {
    ClinicOp op = writes.Next();
    while (!op.write) op = writes.Next();
    const tip::workload::PrescriptionRow& r = op.insert;
    const Params insert{
        {"doctor", tip::engine::Datum::String(r.doctor)},
        {"patient", tip::engine::Datum::String(r.patient)},
        {"dob", tip::datablade::MakeChronon(p.types, r.patient_dob)},
        {"drug", tip::engine::Datum::String(r.drug)},
        {"dosage", tip::engine::Datum::Int(r.dosage)},
        {"freq", tip::datablade::MakeSpan(p.types, r.frequency)},
        {"valid", element(r.valid)}};
    const Params close{
        {"p", tip::engine::Datum::String(op.close_patient)},
        {"upto", element(Window(*Chronon::Parse("1800-01-01"), now))},
        {"now", tip::datablade::MakeChronon(p.types, now)}};
    double commit_ms = 0;
    tip::Status ok = tip::Status::OK();
    const double write_ms = MsOf([&] {
      ok = db.BeginTransaction(&p.session);
      if (ok.ok()) ok = db.Execute(kInsertSql, &insert, &p.session).status();
      if (ok.ok()) ok = db.Execute(kCloseSql, &close, &p.session).status();
      if (ok.ok()) {
        commit_ms = MsOf([&] { ok = db.CommitTransaction(&p.session); });
      }
    });
    if (!ok.ok()) break;
    const double cold =
        MsOf([&] { (void)db.ExecutePrepared(**read, &point, &p.session); });
    const double warm =
        MsOf([&] { (void)db.ExecutePrepared(**read, &point, &p.session); });
    write.push_back(write_ms);
    commit.push_back(commit_ms);
    rebuild.push_back(cold - warm);
  }
  out.write_ms = Median(write);
  out.commit_ms = Median(commit);
  out.rebuild_ms = Median(rebuild);
  std::vector<double> checkpoints, recovers;
  for (int i = 0; i < 3; ++i) {
    checkpoints.push_back(MsOf([&] { (void)p.db->Checkpoint(); }));
  }
  for (int i = 0; i < 3; ++i) {
    p.db.reset();
    recovers.push_back(MsOf([&] { (void)OpenProbe(dir, &p); }) / 1000);
  }
  out.checkpoint_ms = Median(checkpoints);
  out.recover_s = Median(recovers);
  p.db.reset();
  std::filesystem::remove_all(dir, ec);
  return out;
}

/// Element operations on the workload's own elements, at row size and
/// at per-patient coalesced size (§3: ns per period should not grow
/// with the element).
void AddCoreMetrics(const Rows& rows, const TxContext& ctx, Metrics* m) {
  std::vector<GroundedElement> small;
  std::map<std::string, GroundedElement> by_patient;
  for (const auto& row : rows) {
    tip::Result<GroundedElement> g = row.valid.Ground(ctx);
    if (!g.ok()) continue;
    small.push_back(*g);
    GroundedElement& acc = by_patient[row.patient];
    acc = GroundedElement::Union(acc, *g);
  }
  std::vector<GroundedElement> large;
  for (auto& [patient, e] : by_patient) large.push_back(std::move(e));
  auto union_op = [](const GroundedElement& a, const GroundedElement& b) {
    return GroundedElement::Union(a, b).size();
  };
  auto intersect_op = [](const GroundedElement& a, const GroundedElement& b) {
    return GroundedElement::Intersect(a, b).size();
  };
  auto overlaps_op = [](const GroundedElement& a, const GroundedElement& b) {
    return static_cast<size_t>(a.Overlaps(b));
  };
  const double union_small = TimePairs(small, union_op).ns_per_period;
  const double union_large = TimePairs(large, union_op).ns_per_period;
  m->push_back({"core.union_ns_per_period", union_large, "ns"});
  m->push_back({"core.union_linear_ratio", Ratio(union_large, union_small),
                "ratio"});
  m->push_back({"core.intersect_ns_per_period",
                TimePairs(large, intersect_op).ns_per_period, "ns"});
  m->push_back({"core.overlaps_ns", TimePairs(small, overlaps_op).ns_per_call,
                "ns"});
}

/// The §5 reference: the textbook Q2 on the rows flattened into the
/// layered schema, NOW grounded at load.
double LayeredJoinMs(const Rows& rows, const TxContext& ctx,
                     const ReportRound& round) {
  Database flat;
  if (!tip::layered::CreateFlatPrescriptionTable(&flat, "rx_flat").ok() ||
      !tip::layered::LoadFlatPrescriptions(&flat, rows, "rx_flat", ctx).ok()) {
    return 0;
  }
  const std::string sql = tip::layered::TemporalJoinSql(
      "rx_flat", round.join_drug1, round.join_drug2);
  return WarmMedianMs(5, [&] { (void)flat.Execute(sql); });
}

}  // namespace

Metrics MeasureLayers(Workload& w, const LoopResult& untraced,
                      const LoopResult& traced, const Counters& delta,
                      const std::string& probe_dir) {
  Metrics m;
  const Spec& spec = w.spec();
  const TxContext ctx(BaseNow(spec));
  const double reads = static_cast<double>(traced.read_ms.size());
  const double writes = static_cast<double>(traced.write_ms.size());
  std::vector<const SpanLog*> logs;
  for (const auto& l : traced.spans) logs.push_back(l.get());

  const ServerProbe server = ProbeServer(w);
  m.push_back({"server.wire_ms", server.wire_ms, "ms"});
  const double statement_ms = Sum(traced.read_ms) + Sum(traced.write_ms);
  m.push_back({"server.gate_wait_frac", Per(delta.gate_wait_ms, statement_ms),
               "fraction"});
  m.push_back({"server.bytes_out_per_read", Per(delta.bytes_out, reads),
               "bytes"});
  m.push_back({"browser.render_ms",
               spec.kind == Kind::kBrowse
                   ? MedianSpanMs(logs, "browser.render")
                   : server.render_ms,
               "ms"});

  // Parse and prepare of this workload's own statement texts.
  ReportStream report(spec, 7, 0);
  const ReportRound round = report.Next();
  std::vector<std::string> texts;
  switch (spec.kind) {
    case Kind::kBrowse:
      texts = {std::string(kBrowseSql)};
      break;
    case Kind::kClinic:
      texts = {std::string(kClinicReadSql), std::string(kInsertSql),
               std::string(kCloseSql), "BEGIN", "COMMIT"};
      break;
    case Kind::kReport:
      texts = {round.q_select, round.q_join, round.q_coalesce, round.q_slice};
      break;
  }
  std::vector<double> parse_us, prepare_ms;
  for (int rep = 0; rep < 200; ++rep) {
    for (const std::string& t : texts) {
      parse_us.push_back(
          1000 * MsOf([&] { (void)tip::engine::ParseStatement(t); }));
    }
  }
  for (int i = 0; i < 50; ++i) {
    // A fresh text each time: the primary read with a new literal.
    const std::string fresh =
        texts[0] + " AND dosage < " + std::to_string(1000000 + i);
    prepare_ms.push_back(MsOf([&] { (void)w.fixture().db->Prepare(fresh); }));
  }
  m.push_back({"sql.parse_us", Median(parse_us), "us"});
  m.push_back({"exec.prepare_ms", Median(prepare_ms), "ms"});
  const double plans = static_cast<double>(delta.plan_hits + delta.plan_misses);
  m.push_back({"exec.plan_hit_rate", Per(delta.plan_hits, plans), "fraction"});

  const ClassProbe c = ProbeClasses(spec, w.initial_rows(), round, probe_dir);
  m.push_back({"exec.window_ms", c.window_ms, "ms"});
  m.push_back({"exec.point_ms", c.point_ms, "ms"});
  m.push_back({"exec.select_ms", c.select_ms, "ms"});
  m.push_back({"exec.join_ms", c.join_ms, "ms"});
  m.push_back({"exec.coalesce_ms", c.coalesce_ms, "ms"});
  m.push_back({"exec.slice_ms", c.slice_ms, "ms"});
  m.push_back({"exec.write_ms", c.write_ms, "ms"});

  // Index and storage counters over the traced half.
  m.push_back({"index.probes_per_read", Per(delta.probes, reads), "count"});
  m.push_back({"index.scanned_per_returned",
               Per(delta.index_rows_returned,
                   static_cast<double>(traced.rows_returned)),
               "ratio"});
  m.push_back({"index.absolute_builds_per_write",
               Per(delta.absolute_builds, writes), "count"});
  m.push_back({"index.overlay_builds_per_read",
               Per(delta.overlay_builds, reads), "count"});
  m.push_back({"index.rebuild_ms", c.rebuild_ms, "ms"});
  m.push_back({"storage.fsyncs_per_commit",
               Per(delta.fsyncs, static_cast<double>(delta.commits)),
               "count"});
  m.push_back({"storage.wal_bytes_per_write", Per(delta.wal_bytes, writes),
               "bytes"});
  m.push_back({"storage.commit_ms", c.commit_ms, "ms"});
  m.push_back({"storage.checkpoint_ms", c.checkpoint_ms, "ms"});
  m.push_back({"storage.recover_s", c.recover_s, "s"});

  AddCoreMetrics(w.initial_rows(), ctx, &m);

  const double layered_ms = LayeredJoinMs(w.initial_rows(), ctx, round);
  m.push_back({"layered.join_ms", layered_ms, "ms"});
  m.push_back({"layered.join_ratio", Ratio(c.join_ms, layered_ms), "ratio"});

  const double untraced_rate = untraced.read_ms.size() / untraced.elapsed_s;
  const double traced_rate = traced.read_ms.size() / traced.elapsed_s;
  m.push_back({"trace.overhead_pct",
               100 * Ratio(untraced_rate - traced_rate, untraced_rate), "%"});
  return m;
}

}  // namespace tipbench
