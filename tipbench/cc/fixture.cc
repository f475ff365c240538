#include "fixture.h"

#include <filesystem>

namespace tipbench {

namespace fs = std::filesystem;
using tip::Status;

void Fixture::Stop() {
  if (server != nullptr) server->Shutdown();
  server.reset();
  db.reset();
}

Status OpenFixture(const std::string& dir, Fixture* out) {
  out->Stop();
  out->dir = dir;
  out->db = std::make_unique<tip::engine::Database>();
  TIP_RETURN_IF_ERROR(tip::datablade::Install(out->db.get()));
  TIP_ASSIGN_OR_RETURN(out->types, tip::datablade::TipTypes::Lookup(*out->db));
  TIP_RETURN_IF_ERROR(out->db->AttachDurableDir(
      dir, nullptr, tip::engine::RecoveryMode::kStrict));
  TIP_ASSIGN_OR_RETURN(out->server,
                       tip::server::Server::Start(out->db.get(), {}));
  return Status::OK();
}

tip::Result<std::unique_ptr<tip::client::RemoteConnection>> Connect(
    const Fixture& f) {
  return tip::client::RemoteConnection::Connect("127.0.0.1",
                                                f.server->port());
}

void BindRow(tip::client::RemoteStatement* stmt,
             const tip::workload::PrescriptionRow& row) {
  stmt->BindString("doctor", row.doctor)
      .BindString("patient", row.patient)
      .BindChronon("dob", row.patient_dob)
      .BindString("drug", row.drug)
      .BindInt("dosage", row.dosage)
      .BindSpan("freq", row.frequency)
      .BindElement("valid", row.valid);
}

Status LoadAndRestart(const std::vector<tip::workload::PrescriptionRow>& rows,
                      const std::string& dir, Fixture* out) {
  out->Stop();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::Internal("cannot create " + dir + ": " + ec.message());
  TIP_RETURN_IF_ERROR(OpenFixture(dir, out));
  {
    TIP_ASSIGN_OR_RETURN(std::unique_ptr<tip::client::RemoteConnection> conn,
                         Connect(*out));
    TIP_RETURN_IF_ERROR(
        conn->Execute("CREATE TABLE rx (doctor CHAR(20), patient CHAR(20), "
                      "patientdob Chronon, drug CHAR(20), dosage INT, "
                      "frequency Span, valid Element)")
            .status());
    tip::client::RemoteStatement insert = conn->Prepare(kInsertSql);
    TIP_RETURN_IF_ERROR(insert.status());
    constexpr size_t kPerTxn = 1000;
    for (size_t i = 0; i < rows.size(); i += kPerTxn) {
      TIP_RETURN_IF_ERROR(conn->Begin());
      for (size_t j = i; j < std::min(rows.size(), i + kPerTxn); ++j) {
        BindRow(&insert, rows[j]);
        TIP_RETURN_IF_ERROR(insert.Execute().status());
      }
      TIP_RETURN_IF_ERROR(conn->Commit());
    }
    TIP_RETURN_IF_ERROR(
        conn->Execute("CREATE INDEX rx_valid ON rx (valid) USING interval")
            .status());
    TIP_RETURN_IF_ERROR(conn->Checkpoint());
  }
  out->Stop();
  return OpenFixture(dir, out);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

}  // namespace tipbench
