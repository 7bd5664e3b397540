// Workload interface of the repository benchmark (see README.md).
//
// A workload owns its database definition, its seeded input stream and the
// tallies its output checks compare against. The harness (perfbench.cc)
// opens the database, runs the closed loop and calls back here; the program
// under test only ever sees the generated requests.

#ifndef REACTDB_PERFBENCH_WORKLOAD_H_
#define REACTDB_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/runtime/reactdb.h"

namespace reactdb {
namespace perfbench {

/// Output checks. Every expectation passes through Expected(), so a run
/// with `--perturb <name>` shifts exactly that expectation by one unit and
/// must then fail.
class Checks {
 public:
  explicit Checks(std::string perturb) : perturb_(std::move(perturb)) {}

  double Expected(const char* name, double value) const {
    return perturb_ == name ? value + 1 : value;
  }
  void Fail(const char* name, const std::string& detail);
  bool ok() const { return failures_ == 0; }

 private:
  std::string perturb_;
  uint64_t failures_ = 0;
};

/// One generated transaction request.
struct Request {
  ReactorId reactor;
  ProcId proc;
  Row args;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Transactions the closed loop keeps in flight.
  virtual size_t window() const = 0;
  /// Session settings (window, retry, durability gating).
  virtual client::SessionOptions session_options() const;
  /// Uses a data_dir and wait_durable sessions.
  virtual bool durable() const { return false; }
  /// Measured transactions of one round of a count-based workload, which
  /// runs identical rounds on fresh databases; 0 = one time-based phase.
  virtual uint64_t txns_per_round() const { return 0; }
  /// Names accepted by --perturb, one per output check.
  virtual std::vector<std::string> check_names() const = 0;

  virtual const ReactorDatabaseDef* def() const = 0;
  /// Bulk load and client handle resolution on a freshly opened database.
  virtual Status Load(client::Database& db) = 0;
  /// Called once on the database the timed loop will use, before it runs.
  virtual Status Begin(client::Database& db) {
    (void)db;
    return Status::OK();
  }

  /// Next request of the seeded stream. Requests complete in FIFO order.
  virtual Request Next() = 0;
  /// Outcome of the oldest outstanding request. Returns false when the
  /// operation failed (an outcome the workload does not expect).
  virtual bool Complete(const client::TxnOutcome& out, Checks& checks) = 0;

  /// Read-only point transaction for the window-1 round-trip probe, and the
  /// check of its result (no loop transaction is in flight meanwhile).
  virtual Request Probe() = 0;
  virtual bool ProbeDone(const ProcResult& result, Checks& checks) = 0;
  /// One direct (runtime-bypassing) read and rewrite of a random point
  /// record, leaving every value unchanged.
  virtual Status DirectPointTxn(client::Database& db) = 0;

  /// Output checks once every request completed. For durable workloads
  /// `db` is a reopened (recovered) database.
  virtual void Check(client::Database& db, Checks& checks) = 0;
};

/// The four workloads; null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);
std::vector<std::string> WorkloadNames();

}  // namespace perfbench
}  // namespace reactdb

#endif  // REACTDB_PERFBENCH_WORKLOAD_H_
