#ifndef TIPBENCH_WORKLOADS_H_
#define TIPBENCH_WORKLOADS_H_

// The three closed-loop workloads (README.md): each session sends its
// next statement only after the previous one answered.

#include <array>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/remote_connection.h"
#include "fixture.h"
#include "oracles.h"
#include "trace.h"
#include "traffic.h"

namespace tipbench {

/// What one timed loop measured, summed over sessions.
struct LoopResult {
  double elapsed_s = 0;
  /// browse: window move (query + timeline build + render); clinic:
  /// patient read; report: one report (its four queries in a row).
  std::vector<double> read_ms;
  /// When each read completed, in seconds since the loop started.
  std::vector<double> read_done_s;
  /// clinic: BEGIN to COMMIT acknowledgement.
  std::vector<double> write_ms;
  /// report: Q1 selection, Q2 join, Q3 coalesce, timeslice.
  std::array<std::vector<double>, 4> query_ms;
  /// Operations (a move, a read, a write transaction, a report) begun
  /// and given up on. A write transaction refused with "upgrade would
  /// deadlock" is rolled back and retried, as the server asks; it fails
  /// only if a retry fails another way.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Statements sent, and those that errored or were refused.
  uint64_t statements = 0;
  uint64_t statement_errors = 0;
  uint64_t retries = 0;        // write transactions restarted
  uint64_t rows_returned = 0;  // rows of every read answer
  uint64_t checks = 0;         // answers compared against an oracle
  std::vector<std::string> mismatches;
  std::vector<std::unique_ptr<SpanLog>> spans;
};

class Workload {
 public:
  /// Builds the workload's inputs from `seed` and runs one set-up into
  /// `dir` (see LoadAndRestart), then connects and prepares the
  /// sessions and warms them up. `setup_s` receives the wall time of
  /// all of that.
  static tip::Result<std::unique_ptr<Workload>> SetUp(const Spec& spec,
                                                      uint64_t seed,
                                                      const std::string& dir,
                                                      double* setup_s);
  ~Workload();

  /// Runs every session for `seconds`, recording spans when `trace`.
  LoopResult Run(double seconds, bool trace);

  /// Checks what can only be checked after the loops, appending to
  /// `mismatches`: browse and report compare their sampled answers with
  /// the oracles; clinic drains the server, re-attaches the dir
  /// strictly and compares every row with the model, then runs CHECK
  /// DATABASE. Returns the number of answers compared.
  uint64_t FinalCheck(std::vector<std::string>* mismatches);

  const Spec& spec() const { return spec_; }
  Fixture& fixture() { return fixture_; }
  const Rows& initial_rows() const { return rows_; }
  /// Live rows in the table now.
  uint64_t live_rows() const;
  /// One representative read of this workload and the NOW it runs at:
  /// the SQL, its parameters, for embedded and remote probes.
  struct Probe {
    std::string sql;
    tip::engine::Params params;
    tip::Chronon now;
  };
  Probe SampleRead();

 private:
  struct Session;
  Workload(Spec spec, uint64_t seed);
  tip::Status ConnectSessions();
  void Warm();
  void RunSession(Session* s, std::chrono::steady_clock::time_point stop,
                  LoopResult* out, SpanLog* log);
  void DoBrowse(Session* s, LoopResult* out, SpanLog* log);
  void DoClinic(Session* s, LoopResult* out, SpanLog* log);
  void DoReport(Session* s, LoopResult* out, SpanLog* log);

  Spec spec_;
  uint64_t seed_;
  Rows rows_;
  Fixture fixture_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::chrono::steady_clock::time_point loop_start_;
  /// clinic: the expected rows per patient. Sessions own disjoint
  /// patients, so each touches only its own entries.
  std::map<std::string, Rows> model_;
};

}  // namespace tipbench

#endif  // TIPBENCH_WORKLOADS_H_
