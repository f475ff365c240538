#ifndef TIPBENCH_ORACLES_H_
#define TIPBENCH_ORACLES_H_

// Brute-force answers computed from the generated rows with the core
// Element operations, and the canonical forms results are compared in.
// Every comparison is on sorted multisets of row keys, so plan order
// never matters.

#include <map>
#include <string>
#include <vector>

#include "client/connection.h"
#include "core/element.h"
#include "core/tx_context.h"
#include "workload/medical.h"

namespace tipbench {

using Rows = std::vector<tip::workload::PrescriptionRow>;
using Keys = std::vector<std::string>;

/// "doctor|patient|drug|dosage|valid" — the identity a row is compared by.
std::string RowKey(const tip::workload::PrescriptionRow& row);
/// The same key for a result row with columns (doctor, patient, drug,
/// dosage, valid) starting at column 0.
std::string RowKey(const tip::client::ResultSet& rs, size_t row);
/// Sorted keys of every result row.
Keys ResultKeys(const tip::client::ResultSet& rs);

/// Sorted keys of the rows whose validity overlaps `window` under `ctx`.
Keys OverlapAnswer(const Rows& rows, const tip::Element& window,
                   const tip::TxContext& ctx);
/// The same restricted to one patient (the clinic read).
Keys PatientOverlapAnswer(const Rows& rows, const std::string& patient,
                          const tip::Element& window,
                          const tip::TxContext& ctx);

/// Q1: sorted patients of `drug` rows whose start lies less than
/// `weeks` weeks after the patient's birth.
Keys SelectAnswer(const Rows& rows, const std::string& drug, int64_t weeks,
                  const tip::TxContext& ctx);
/// Timeslice: sorted "patient|drug" of rows overlapping the window.
Keys SliceAnswer(const Rows& rows, const tip::Element& window,
                 const tip::TxContext& ctx);
/// Q3: per patient >= `min_patient`, the length in seconds of the
/// coalesced union of its validities.
std::map<std::string, int64_t> CoalesceAnswer(const Rows& rows,
                                              const std::string& min_patient,
                                              const tip::TxContext& ctx);
/// Q2 results compared per patient as the coalesced union of the
/// returned intersections: TIP returns one Element per row pair, the
/// layered translation one [start, end] second range per period pair.
std::map<std::string, tip::GroundedElement> JoinByPatient(
    const tip::client::ResultSet& tip_q2, const tip::TxContext& ctx);
std::map<std::string, tip::GroundedElement> LayeredJoinByPatient(
    const tip::engine::ResultSet& layered_q2);

/// The clinic UPDATE applied to a model: every row of `patient` still
/// running at `ctx.now` (its grounded end is NOW) becomes its
/// intersection with `upto`, which ends at NOW.
void CloseRunning(Rows* rows, const std::string& patient,
                  const tip::Element& upto, const tip::TxContext& ctx);

}  // namespace tipbench

#endif  // TIPBENCH_ORACLES_H_
