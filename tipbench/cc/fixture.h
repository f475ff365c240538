#ifndef TIPBENCH_FIXTURE_H_
#define TIPBENCH_FIXTURE_H_

// The system under test: one durable engine::Database served by an
// in-process server::Server on loopback, and the benchmark's set-up of
// it (everything `setup_s` times).

#include <memory>
#include <string>
#include <vector>

#include "client/remote_connection.h"
#include "datablade/datablade.h"
#include "engine/database.h"
#include "server/server.h"
#include "traffic.h"

namespace tipbench {

struct Fixture {
  std::string dir;
  std::unique_ptr<tip::engine::Database> db;
  tip::datablade::TipTypes types;
  std::unique_ptr<tip::server::Server> server;

  /// Drains the server (final checkpoint) and closes the database.
  void Stop();
  ~Fixture() { Stop(); }
};

/// Opens `dir` (created if absent) with strict recovery and serves it.
tip::Status OpenFixture(const std::string& dir, Fixture* out);

/// A fresh client session on the fixture's server.
tip::Result<std::unique_ptr<tip::client::RemoteConnection>> Connect(
    const Fixture& f);

/// Binds one prescription row to the parameters of kInsertSql.
void BindRow(tip::client::RemoteStatement* stmt,
             const tip::workload::PrescriptionRow& row);

/// Set-up up to the timed loop: empty `dir`, serve it, load `rows`
/// through one client session (prepared INSERTs, 1000 per
/// transaction), build the interval index on `valid`, checkpoint, then
/// drain and restart the server on the same dir with strict recovery.
tip::Status LoadAndRestart(
    const std::vector<tip::workload::PrescriptionRow>& rows,
    const std::string& dir, Fixture* out);

/// Sum of the sizes of the regular files in `dir`.
uint64_t DirBytes(const std::string& dir);

}  // namespace tipbench

#endif  // TIPBENCH_FIXTURE_H_
