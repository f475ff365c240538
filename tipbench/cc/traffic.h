#ifndef TIPBENCH_TRAFFIC_H_
#define TIPBENCH_TRAFFIC_H_

// The benchmark's inputs: per-workload sizes and the seeded generators
// of every statement a session sends. Everything here is a pure
// function of the seed, so two runs with one seed send the same
// traffic (up to how far each session gets before the deadline).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/chronon.h"
#include "core/element.h"
#include "workload/medical.h"

namespace tipbench {

enum class Kind { kBrowse, kClinic, kReport };

/// One workload's shape. See README.md for why each value is what it is.
struct Spec {
  Kind kind = Kind::kBrowse;
  std::string name;
  tip::workload::MedicalConfig data;
  int sessions = 1;
  /// browse: window width, step between moves, and how many moves a
  /// session makes before it moves its what-if NOW.
  int64_t window_days = 14;
  int64_t step_days = 7;
  int moves_per_now = 4;
  /// clinic: reads per write transaction and the checkpoint cadence of
  /// session 0 (in its own commits).
  int reads_per_write = 4;
  int checkpoint_every = 100;
};

/// The spec of workload `name` (browse, clinic or report) for `seed`;
/// InvalidArgument for an unknown name.
tip::Result<Spec> SpecFor(std::string_view name, uint64_t seed);

/// The Rng of one session: independent streams per (seed, session).
tip::Rng SessionRng(uint64_t seed, int session);

/// The what-if NOW every browse and clinic session starts from, and the
/// fixed NOW of the report session.
tip::Chronon BaseNow(const Spec& spec);

/// "patient0042": the name the generator gives patient `i`.
std::string PatientName(int64_t i);

/// An absolute one-period Element covering [start, end].
tip::Element Window(tip::Chronon start, tip::Chronon end);

// -- browse ------------------------------------------------------------------

/// One window move of a browse session.
struct Move {
  tip::Chronon start, end;  // the window, inclusive
  tip::Chronon now;         // the session's what-if NOW for this move
  bool now_changed = false; // the session must SET NOW before the query
};

/// A browse session's slider: starts at a seeded position, slides right
/// by `step_days` per move (wrapping at the end of the history), and
/// draws a new what-if NOW every `moves_per_now` moves.
class BrowseCursor {
 public:
  BrowseCursor(const Spec& spec, uint64_t seed, int session);
  Move Next();

 private:
  Spec spec_;
  tip::Rng rng_;
  int64_t lo_secs_, hi_secs_, pos_secs_;
  int64_t moves_ = 0;
  tip::Chronon now_;
};

// -- clinic ------------------------------------------------------------------

/// One clinic operation: a read of `read_patient`'s current
/// prescriptions, or a write transaction that inserts `insert` and then
/// closes `close_patient`'s open-ended prescriptions at NOW.
struct ClinicOp {
  bool write = false;
  std::string read_patient;
  tip::workload::PrescriptionRow insert;
  std::string close_patient;
};

/// A clinic session's operation stream: `reads_per_write` reads, then a
/// write, repeated. Patients are partitioned by session (patient id mod
/// sessions), so no two sessions touch the same patient and the final
/// table is independent of how the sessions interleave.
class ClinicStream {
 public:
  ClinicStream(const Spec& spec, uint64_t seed, int session);
  ClinicOp Next();

 private:
  std::string Patient();

  Spec spec_;
  tip::Rng rng_;
  int session_;
  int64_t ops_ = 0;
};

// -- report ------------------------------------------------------------------

/// One round of the analyst's report: Q1, Q2, Q3 and a timeslice, each
/// an ad-hoc text with fresh literals.
struct ReportRound {
  std::string q_select, q_join, q_coalesce, q_slice;
  // The literals, for the oracles.
  std::string select_drug;
  int64_t select_weeks = 0;
  std::string join_drug1, join_drug2;
  std::string coalesce_min_patient;
  tip::Chronon slice_start, slice_end;
};

class ReportStream {
 public:
  ReportStream(const Spec& spec, uint64_t seed, int session);
  ReportRound Next();

 private:
  std::string Drug();

  Spec spec_;
  tip::Rng rng_;
  int64_t rounds_ = 0;
};

/// The statement texts the prepared sessions use.
inline constexpr std::string_view kBrowseSql =
    "SELECT doctor, patient, drug, dosage, valid FROM rx "
    "WHERE overlaps(valid, :w)";
inline constexpr std::string_view kClinicReadSql =
    "SELECT doctor, patient, drug, dosage, valid FROM rx "
    "WHERE patient = :p AND overlaps(valid, :today)";
inline constexpr std::string_view kInsertSql =
    "INSERT INTO rx VALUES (:doctor, :patient, :dob, :drug, :dosage, "
    ":freq, :valid)";
inline constexpr std::string_view kCloseSql =
    "UPDATE rx SET valid = intersect(valid, :upto) "
    "WHERE patient = :p AND end(valid) = :now";

/// A stable text rendering of any traffic item, for determinism checks.
std::string Describe(const Move& m);
std::string Describe(const ClinicOp& op);
std::string Describe(const ReportRound& r);

}  // namespace tipbench

#endif  // TIPBENCH_TRAFFIC_H_
