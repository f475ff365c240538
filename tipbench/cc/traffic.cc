#include "traffic.h"

#include "common/string_util.h"
#include "core/period.h"

namespace tipbench {

using tip::Chronon;
using tip::Element;

namespace {

constexpr int64_t kDay = 86400;

Chronon Date(const char* text) { return *Chronon::Parse(text); }

Chronon At(int64_t secs) { return *Chronon::FromSeconds(secs); }

std::string Name(const char* prefix, int64_t i) {
  return tip::StringPrintf("%s%04lld", prefix, static_cast<long long>(i));
}

std::string Quote(std::string_view s) {
  std::string out(1, '\'');
  out.append(s);
  out.push_back('\'');
  return out;
}

}  // namespace

tip::Result<Spec> SpecFor(std::string_view name, uint64_t seed) {
  Spec spec;
  spec.name = std::string(name);
  spec.data.seed = seed;
  if (name == "browse" || name == "clinic") {
    // 20k prescriptions spread over 80 years of history (starts in the
    // first 40), periods of one week to two months, 1% still running:
    // a 14-day window then holds about 1% of the table.
    spec.kind = name == "browse" ? Kind::kBrowse : Kind::kClinic;
    spec.data.rows = 20000;
    spec.data.num_doctors = 50;
    spec.data.num_patients = 2000;
    spec.data.num_drugs = 50;
    spec.data.history_start = "1900-01-01";
    spec.data.history_days = 29200;
    spec.data.min_period_days = 7;
    spec.data.max_period_days = 60;
    spec.data.now_relative_fraction = 0.01;
    spec.sessions = 3;
  } else if (name == "report") {
    // The paper's demo shape (ten years, 10% running prescriptions),
    // sized so the interval-index plan of Q2 stays in the tens of ms.
    spec.kind = Kind::kReport;
    spec.data.rows = 1000;
    spec.data.num_patients = 101;
    spec.data.num_drugs = 12;
    spec.sessions = 1;
  } else {
    return tip::Status::InvalidArgument("unknown workload '" +
                                        std::string(name) +
                                        "' (browse, clinic, report)");
  }
  return spec;
}

tip::Rng SessionRng(uint64_t seed, int session) {
  return tip::Rng(seed * 0x9E3779B97F4A7C15ull + 1000003ull *
                  static_cast<uint64_t>(session + 1));
}

Chronon BaseNow(const Spec& spec) {
  return spec.kind == Kind::kReport ? Date("1999-11-15")
                                    : Date("1940-01-01");
}

std::string PatientName(int64_t i) { return Name("patient", i); }

Element Window(Chronon start, Chronon end) {
  return Element::Of(*tip::Period::Make(tip::Instant::Absolute(start),
                                        tip::Instant::Absolute(end)));
}

BrowseCursor::BrowseCursor(const Spec& spec, uint64_t seed, int session)
    : spec_(spec), rng_(SessionRng(seed, session)) {
  lo_secs_ = Date(spec.data.history_start.c_str()).seconds();
  hi_secs_ = BaseNow(spec).seconds() + 365 * kDay;
  pos_secs_ = lo_secs_ + rng_.Uniform(0, (hi_secs_ - lo_secs_) / kDay) * kDay;
  now_ = BaseNow(spec);
}

Move BrowseCursor::Next() {
  Move m;
  if (moves_ % spec_.moves_per_now == 0) {
    // A what-if NOW somewhere in the year after BaseNow, to the second.
    now_ = At(BaseNow(spec_).seconds() + rng_.Uniform(0, 365 * kDay));
    m.now_changed = true;
  }
  ++moves_;
  pos_secs_ += spec_.step_days * kDay;
  if (pos_secs_ > hi_secs_) pos_secs_ = lo_secs_ + (pos_secs_ - hi_secs_);
  m.start = At(pos_secs_);
  m.end = At(pos_secs_ + spec_.window_days * kDay - 1);
  m.now = now_;
  return m;
}

ClinicStream::ClinicStream(const Spec& spec, uint64_t seed, int session)
    : spec_(spec), rng_(SessionRng(seed, session)), session_(session) {}

std::string ClinicStream::Patient() {
  const int64_t per_session =
      (spec_.data.num_patients - session_ + spec_.sessions - 1) /
      spec_.sessions;
  return PatientName(rng_.Uniform(0, per_session - 1) * spec_.sessions +
                     session_);
}

ClinicOp ClinicStream::Next() {
  ClinicOp op;
  op.write = ops_ % (spec_.reads_per_write + 1) == spec_.reads_per_write;
  ++ops_;
  if (!op.write) {
    op.read_patient = Patient();
    return op;
  }
  tip::workload::PrescriptionRow& row = op.insert;
  row.doctor = Name("doctor", rng_.Uniform(0, spec_.data.num_doctors - 1));
  row.patient = Patient();
  row.patient_dob = Date("1890-01-01");
  row.drug = Name("drug", rng_.Uniform(0, spec_.data.num_drugs - 1));
  row.dosage = rng_.Uniform(1, 4);
  row.frequency = tip::Span::FromSeconds(rng_.Uniform(4, 24) * 3600);
  // Started 1 to 60 days before NOW and still running.
  const Chronon start =
      At(BaseNow(spec_).seconds() - rng_.Uniform(1, 60) * kDay);
  row.valid = Element::Of(
      tip::Period(tip::Instant::Absolute(start), tip::Instant::Now()));
  op.close_patient = Patient();
  return op;
}

ReportStream::ReportStream(const Spec& spec, uint64_t seed, int session)
    : spec_(spec), rng_(SessionRng(seed, session)) {}

std::string ReportStream::Drug() {
  return Name("drug", rng_.Uniform(0, spec_.data.num_drugs - 1));
}

ReportRound ReportStream::Next() {
  ReportRound r;
  ++rounds_;
  // Every text carries a fresh always-true bound on dosage (1..4), so
  // no two rounds repeat a text and the 64-entry plan cache never hits.
  auto fresh = [&] { return std::to_string(rng_.Uniform(5, 999999999)); };

  r.select_drug = Drug();
  r.select_weeks = rng_.Uniform(200, 2000);
  r.q_select = "SELECT patient FROM rx WHERE drug = " + Quote(r.select_drug) +
               " AND start(valid) - patientdob < '7 00:00:00'::Span * " +
               std::to_string(r.select_weeks) + " AND dosage < " + fresh();

  r.join_drug1 = Drug();
  do {
    r.join_drug2 = Drug();
  } while (r.join_drug2 == r.join_drug1);
  r.q_join =
      "SELECT p1.patient, intersect(p1.valid, p2.valid) FROM rx p1, rx p2 "
      "WHERE p1.drug = " + Quote(r.join_drug1) + " AND p2.drug = " +
      Quote(r.join_drug2) + " AND p1.patient = p2.patient "
      "AND overlaps(p1.valid, p2.valid) AND p1.dosage < " + fresh();

  r.coalesce_min_patient =
      PatientName(rng_.Uniform(0, spec_.data.num_patients / 4));
  r.q_coalesce = "SELECT patient, length(group_union(valid)) FROM rx "
                 "WHERE patient >= " + Quote(r.coalesce_min_patient) +
                 " AND dosage < " + fresh() + " GROUP BY patient";

  const int64_t lo = Date(spec_.data.history_start.c_str()).seconds();
  const int64_t start =
      lo + rng_.Uniform(0, spec_.data.history_days * kDay - 30 * kDay);
  r.slice_start = At(start);
  r.slice_end = At(start + 30 * kDay);
  r.q_slice = "SELECT patient, drug FROM rx WHERE overlaps(valid, '{[" +
              r.slice_start.ToString() + ", " + r.slice_end.ToString() +
              "]}'::Element)";
  return r;
}

std::string Describe(const Move& m) {
  return m.start.ToString() + ".." + m.end.ToString() + "@" +
         m.now.ToString() + (m.now_changed ? "*" : "");
}

std::string Describe(const ClinicOp& op) {
  if (!op.write) return "read " + op.read_patient;
  return "write " + op.insert.patient + " " + op.insert.drug + " " +
         op.insert.valid.ToString() + " close " + op.close_patient;
}

std::string Describe(const ReportRound& r) {
  return r.q_select + ";" + r.q_join + ";" + r.q_coalesce + ";" + r.q_slice;
}

}  // namespace tipbench
