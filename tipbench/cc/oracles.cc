#include "oracles.h"

#include <algorithm>

namespace tipbench {

using tip::Element;
using tip::GroundedElement;
using tip::TxContext;
using tip::workload::PrescriptionRow;

namespace {

std::string Key(const std::string& doctor, const std::string& patient,
                const std::string& drug, int64_t dosage,
                const Element& valid) {
  return doctor + "|" + patient + "|" + drug + "|" + std::to_string(dosage) +
         "|" + valid.ToString();
}

bool Overlaps(const Element& a, const Element& b, const TxContext& ctx) {
  tip::Result<bool> r = tip::ElementOverlaps(a, b, ctx);
  return r.ok() && *r;
}

Keys Sorted(Keys keys) {
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

std::string RowKey(const PrescriptionRow& row) {
  return Key(row.doctor, row.patient, row.drug, row.dosage, row.valid);
}

std::string RowKey(const tip::client::ResultSet& rs, size_t row) {
  return Key(rs.GetString(row, 0), rs.GetString(row, 1), rs.GetString(row, 2),
             rs.GetInt(row, 3), rs.GetElement(row, 4));
}

Keys ResultKeys(const tip::client::ResultSet& rs) {
  Keys keys;
  keys.reserve(rs.row_count());
  for (size_t r = 0; r < rs.row_count(); ++r) keys.push_back(RowKey(rs, r));
  return Sorted(std::move(keys));
}

Keys OverlapAnswer(const Rows& rows, const Element& window,
                   const TxContext& ctx) {
  Keys keys;
  for (const PrescriptionRow& row : rows) {
    if (Overlaps(row.valid, window, ctx)) keys.push_back(RowKey(row));
  }
  return Sorted(std::move(keys));
}

Keys PatientOverlapAnswer(const Rows& rows, const std::string& patient,
                          const Element& window, const TxContext& ctx) {
  Keys keys;
  for (const PrescriptionRow& row : rows) {
    if (row.patient == patient && Overlaps(row.valid, window, ctx)) {
      keys.push_back(RowKey(row));
    }
  }
  return Sorted(std::move(keys));
}

Keys SelectAnswer(const Rows& rows, const std::string& drug, int64_t weeks,
                  const TxContext& ctx) {
  Keys keys;
  for (const PrescriptionRow& row : rows) {
    if (row.drug != drug) continue;
    tip::Result<tip::Chronon> start = tip::ElementStart(row.valid, ctx);
    if (!start.ok()) continue;
    if (start->seconds() - row.patient_dob.seconds() <
        weeks * 7 * 86400) {
      keys.push_back(row.patient);
    }
  }
  return Sorted(std::move(keys));
}

Keys SliceAnswer(const Rows& rows, const Element& window,
                 const TxContext& ctx) {
  Keys keys;
  for (const PrescriptionRow& row : rows) {
    if (Overlaps(row.valid, window, ctx)) {
      keys.push_back(row.patient + "|" + row.drug);
    }
  }
  return Sorted(std::move(keys));
}

std::map<std::string, int64_t> CoalesceAnswer(const Rows& rows,
                                              const std::string& min_patient,
                                              const TxContext& ctx) {
  std::map<std::string, GroundedElement> by_patient;
  for (const PrescriptionRow& row : rows) {
    if (row.patient < min_patient) continue;
    tip::Result<GroundedElement> g = row.valid.Ground(ctx);
    if (!g.ok()) continue;
    GroundedElement& acc = by_patient[row.patient];
    acc = GroundedElement::Union(acc, *g);
  }
  std::map<std::string, int64_t> out;
  for (const auto& [patient, element] : by_patient) {
    out[patient] = element.TotalDuration().seconds();
  }
  return out;
}

std::map<std::string, GroundedElement> JoinByPatient(
    const tip::client::ResultSet& tip_q2, const TxContext& ctx) {
  std::map<std::string, GroundedElement> out;
  for (size_t r = 0; r < tip_q2.row_count(); ++r) {
    tip::Result<GroundedElement> g = tip_q2.GetElement(r, 1).Ground(ctx);
    if (!g.ok()) continue;
    GroundedElement& acc = out[tip_q2.GetString(r, 0)];
    acc = GroundedElement::Union(acc, *g);
  }
  return out;
}

std::map<std::string, GroundedElement> LayeredJoinByPatient(
    const tip::engine::ResultSet& layered_q2) {
  std::map<std::string, GroundedElement> out;
  for (const tip::engine::Row& row : layered_q2.rows) {
    tip::Result<tip::Chronon> s = tip::Chronon::FromSeconds(row[1].int_value());
    tip::Result<tip::Chronon> e = tip::Chronon::FromSeconds(row[2].int_value());
    if (!s.ok() || !e.ok()) continue;
    tip::Result<tip::GroundedPeriod> p = tip::GroundedPeriod::Make(*s, *e);
    if (!p.ok()) continue;
    GroundedElement& acc = out[row[0].string_value()];
    acc = GroundedElement::Union(acc, GroundedElement::Of(*p));
  }
  return out;
}

void CloseRunning(Rows* rows, const std::string& patient, const Element& upto,
                  const TxContext& ctx) {
  for (PrescriptionRow& row : *rows) {
    if (row.patient != patient) continue;
    tip::Result<tip::Chronon> end = tip::ElementEnd(row.valid, ctx);
    if (!end.ok() || *end != ctx.now) continue;
    tip::Result<Element> closed = tip::ElementIntersect(row.valid, upto, ctx);
    if (closed.ok()) row.valid = *closed;
  }
}

}  // namespace tipbench
