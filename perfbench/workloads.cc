// The benchmark's four workloads: sb_point, sb_fanout, sb_durable and
// tpcc_local (README.md says why each was chosen). Each keeps its own
// tallies of what committed and checks the database against them.

#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "perfbench/workload.h"
#include "src/util/rng.h"
#include "src/workloads/smallbank/smallbank.h"
#include "src/workloads/tpcc/tpcc.h"

namespace reactdb {
namespace perfbench {

void Checks::Fail(const char* name, const std::string& detail) {
  if (++failures_ <= 5) {
    std::fprintf(stderr, "check %s failed: %s\n", name, detail.c_str());
  }
}

client::SessionOptions Workload::session_options() const {
  client::SessionOptions o;
  o.max_outstanding = window();
  o.retry.max_attempts = 16;
  return o;
}

namespace {

// Seeds of the input streams: one per workload, so equal --seed values give
// unrelated streams across workloads.
uint64_t StreamSeed(uint64_t seed, uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ULL + salt;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Smallbank: shared loading, reading and probes.

constexpr double kInitSavings = 10000;
constexpr double kInitChecking = 10000;

class SmallbankWorkload : public Workload {
 public:
  SmallbankWorkload(int64_t customers, uint64_t seed)
      : customers_(customers), rng_(seed) {
    smallbank::BuildDef(&def_, customers);
  }

  const ReactorDatabaseDef* def() const override { return &def_; }

  Status Load(client::Database& db) override {
    REACTDB_RETURN_IF_ERROR(smallbank::Load(db.runtime(), customers_,
                                            kInitSavings, kInitChecking));
    handles_ = smallbank::ResolveHandles(db.runtime(), customers_);
    return Status::OK();
  }

  Request Probe() override {
    probe_customer_ = rng_.NextInt(0, customers_ - 1);
    return {Customer(probe_customer_), smallbank::kBalanceProc, {}};
  }

  bool ProbeDone(const ProcResult& result, Checks& checks) override {
    if (!result.ok()) return false;
    double want = checks.Expected(
        "probe", kInitSavings + kInitChecking + Net(probe_customer_));
    if (result->AsNumeric() != want) {
      checks.Fail("probe", "balance " + Num(result->AsNumeric()) + " != " +
                               Num(want));
    }
    return true;
  }

  Status DirectPointTxn(client::Database& db) override {
    int64_t c = rng_.NextInt(0, customers_ - 1);
    Reactor* r = db.runtime()->FindReactor(Customer(c));
    Table* checking = r->FindTable(smallbank::kCheckingSlot);
    uint32_t container = r->container_id();
    return db.RunDirect([&](SiloTxn& txn) -> Status {
      Row key{Value(int64_t{1})};
      REACTDB_ASSIGN_OR_RETURN(Row row, txn.Get(checking, key, container));
      return txn.Update(checking, key, row, container);
    });
  }

 protected:
  ReactorId Customer(int64_t c) const {
    return handles_.customers[static_cast<size_t>(c)];
  }
  /// Net change of customer c's savings+checking committed so far.
  virtual double Net(int64_t c) const = 0;

  /// Reads (savings, checking) of every customer.
  Status ReadAll(client::Database& db, std::vector<double>* savings,
                 std::vector<double>* checking) {
    savings->assign(static_cast<size_t>(customers_), 0);
    checking->assign(static_cast<size_t>(customers_), 0);
    return db.RunDirect([&](SiloTxn& txn) -> Status {
      Row key{Value(int64_t{1})};
      for (int64_t c = 0; c < customers_; ++c) {
        Reactor* r = db.runtime()->FindReactor(Customer(c));
        uint32_t container = r->container_id();
        REACTDB_ASSIGN_OR_RETURN(
            Row s, txn.Get(r->FindTable(smallbank::kSavingsSlot), key,
                           container));
        REACTDB_ASSIGN_OR_RETURN(
            Row k, txn.Get(r->FindTable(smallbank::kCheckingSlot), key,
                           container));
        (*savings)[static_cast<size_t>(c)] = s[1].AsNumeric();
        (*checking)[static_cast<size_t>(c)] = k[1].AsNumeric();
      }
      return Status::OK();
    });
  }

  const int64_t customers_;
  Rng rng_;
  ReactorDatabaseDef def_;
  smallbank::Handles handles_;
  int64_t probe_customer_ = 0;
};

// sb_point / sb_durable: deposit_checking (and, for sb_point, balance) on
// uniformly random customers. A customer with a request in flight is never
// drawn again until it completes, so no two requests conflict and every
// result is exactly predictable from the tallies.
class DepositWorkload : public SmallbankWorkload {
 public:
  DepositWorkload(int64_t customers, size_t window, double deposit_share,
                  bool durable, uint64_t seed)
      : SmallbankWorkload(customers, seed),
        window_(window),
        deposit_share_(deposit_share),
        durable_(durable),
        deposited_(static_cast<size_t>(customers), 0),
        busy_(static_cast<size_t>(customers), 0) {}

  size_t window() const override { return window_; }
  bool durable() const override { return durable_; }
  client::SessionOptions session_options() const override {
    client::SessionOptions o = Workload::session_options();
    o.wait_durable = durable_;
    return o;
  }
  std::vector<std::string> check_names() const override {
    if (durable_) return {"deposit", "recovered", "log_bytes", "probe"};
    return {"deposit", "balance", "readback", "probe"};
  }

  Request Next() override {
    int64_t c;
    do {
      c = rng_.NextInt(0, customers_ - 1);
    } while (busy_[static_cast<size_t>(c)] != 0);
    busy_[static_cast<size_t>(c)] = 1;
    Pending p;
    p.customer = c;
    p.deposit = deposit_share_ >= 1 || rng_.NextBool(deposit_share_);
    if (p.deposit) {
      p.amount = rng_.NextInt(1, 100);
      pending_.push_back(p);
      return {Customer(c), smallbank::kDepositCheckingProc,
              {Value(static_cast<double>(p.amount))}};
    }
    // No deposit on c is in flight, so the balance is exactly the tally.
    p.amount = 0;
    pending_.push_back(p);
    return {Customer(c), smallbank::kBalanceProc, {}};
  }

  bool Complete(const client::TxnOutcome& out, Checks& checks) override {
    Pending p = pending_.front();
    pending_.pop_front();
    size_t c = static_cast<size_t>(p.customer);
    busy_[c] = 0;
    if (!out.ok()) return false;
    double got = out.result->AsNumeric();
    if (p.deposit) {
      deposited_[c] += p.amount;
      double want = checks.Expected(
          "deposit", kInitChecking + static_cast<double>(deposited_[c]));
      if (got != want) {
        checks.Fail("deposit", "checking " + Num(got) + " != " + Num(want));
      }
    } else {
      double want = checks.Expected("balance", kInitSavings + kInitChecking +
                                                   Net(p.customer));
      if (got != want) {
        checks.Fail("balance", "balance " + Num(got) + " != " + Num(want));
      }
    }
    return true;
  }

  void Check(client::Database& db, Checks& checks) override {
    const char* name = durable_ ? "recovered" : "readback";
    std::vector<double> savings, checking;
    Status s = ReadAll(db, &savings, &checking);
    if (!s.ok()) {
      checks.Fail(name, s.ToString());
      return;
    }
    for (int64_t c = 0; c < customers_; ++c) {
      size_t i = static_cast<size_t>(c);
      double want = checks.Expected(
          name, kInitChecking + static_cast<double>(deposited_[i]));
      if (checking[i] != want || savings[i] != kInitSavings) {
        checks.Fail(name, "customer " + std::to_string(c) + " checking " +
                              Num(checking[i]) + " != " + Num(want));
      }
    }
  }

 protected:
  double Net(int64_t c) const override {
    return static_cast<double>(deposited_[static_cast<size_t>(c)]);
  }

 private:
  struct Pending {
    int64_t customer = 0;
    bool deposit = false;
    int64_t amount = 0;
  };

  const size_t window_;
  const double deposit_share_;
  const bool durable_;
  std::vector<int64_t> deposited_;  // committed deposits per customer
  std::vector<uint8_t> busy_;       // request in flight per customer
  std::deque<Pending> pending_;
};

// sb_fanout: multi_transfer_fully_async from a random source to four
// distinct random destinations over both containers. Requests may conflict;
// the session retries CC aborts.
class FanoutWorkload : public SmallbankWorkload {
 public:
  static constexpr int kFanout = 4;

  FanoutWorkload(int64_t customers, uint64_t seed)
      : SmallbankWorkload(customers, seed),
        shadow_(static_cast<size_t>(customers), 0) {}

  size_t window() const override { return 16; }
  std::vector<std::string> check_names() const override {
    return {"result", "shadow", "total", "probe"};
  }

  Request Next() override {
    Pending p;
    p.src = rng_.NextInt(0, customers_ - 1);
    std::vector<ReactorId> dsts;
    for (int i = 0; i < kFanout; ++i) {
      int64_t d;
      bool fresh;
      do {
        d = rng_.NextInt(0, customers_ - 1);
        fresh = d != p.src;
        for (int j = 0; j < i; ++j) fresh = fresh && d != p.dsts[j];
      } while (!fresh);
      p.dsts[i] = d;
      dsts.push_back(Customer(d));
    }
    p.amount = rng_.NextInt(1, 10);
    pending_.push_back(p);
    smallbank::MultiTransferCall call = smallbank::MakeMultiTransfer(
        smallbank::Formulation::kFullyAsync, static_cast<double>(p.amount),
        dsts);
    return {Customer(p.src), call.proc_id, std::move(call.args)};
  }

  bool Complete(const client::TxnOutcome& out, Checks& checks) override {
    Pending p = pending_.front();
    pending_.pop_front();
    if (!out.ok()) return false;
    double want = checks.Expected("result", kFanout);
    if (static_cast<double>(out.result->AsInt64()) != want) {
      checks.Fail("result", "transfer count " +
                                std::to_string(out.result->AsInt64()));
    }
    shadow_[static_cast<size_t>(p.src)] -= kFanout * p.amount;
    for (int64_t d : p.dsts) shadow_[static_cast<size_t>(d)] += p.amount;
    return true;
  }

  void Check(client::Database& db, Checks& checks) override {
    std::vector<double> savings, checking;
    Status s = ReadAll(db, &savings, &checking);
    if (!s.ok()) {
      checks.Fail("shadow", s.ToString());
      return;
    }
    double total = 0;
    for (int64_t c = 0; c < customers_; ++c) {
      size_t i = static_cast<size_t>(c);
      double want = checks.Expected(
          "shadow", kInitSavings + static_cast<double>(shadow_[i]));
      if (savings[i] != want || checking[i] != kInitChecking) {
        checks.Fail("shadow", "customer " + std::to_string(c) + " savings " +
                                  Num(savings[i]) + " != " + Num(want));
      }
      total += savings[i] + checking[i];
    }
    double want_total = checks.Expected(
        "total",
        static_cast<double>(customers_) * (kInitSavings + kInitChecking));
    if (total != want_total) {
      checks.Fail("total", Num(total) + " != " + Num(want_total));
    }
  }

 protected:
  double Net(int64_t c) const override {
    return static_cast<double>(shadow_[static_cast<size_t>(c)]);
  }

 private:
  struct Pending {
    int64_t src = 0;
    int64_t dsts[kFanout] = {};
    int64_t amount = 0;
  };

  std::vector<int64_t> shadow_;  // committed savings change per customer
  std::deque<Pending> pending_;
};

// ---------------------------------------------------------------------------
// tpcc_local: the standard mix on two warehouses, one per container, with
// every item and paying customer local to the home warehouse.

class TpccWorkload : public Workload {
 public:
  static constexpr int64_t kWarehouses = 2;

  explicit TpccWorkload(uint64_t seed)
      : gen_(Options(), StreamSeed(seed, 4)),
        rng_(StreamSeed(seed, 5)),
        load_seed_(StreamSeed(seed, 6)) {
    tpcc::BuildDef(&def_, kWarehouses);
  }

  size_t window() const override { return 8; }
  uint64_t txns_per_round() const override { return 20000; }
  std::vector<std::string> check_names() const override {
    return {"consistency", "next_o_id", "w_ytd", "rollbacks", "probe"};
  }
  const ReactorDatabaseDef* def() const override { return &def_; }

  Status Load(client::Database& db) override {
    REACTDB_RETURN_IF_ERROR(tpcc::Load(db.runtime(), kWarehouses, load_seed_));
    handles_ = tpcc::ResolveHandles(db.runtime(), kWarehouses);
    gen_.BindHandles(&handles_);
    return Status::OK();
  }

  Status Begin(client::Database& db) override {
    return ReadTotals(db, &next_o_id_start_, ytd_start_);
  }

  Request Next() override {
    int64_t w = rng_.NextInt(1, kWarehouses);
    tpcc::TxnRequest req = gen_.Next(w);
    Pending p;
    p.proc = req.proc_id;
    p.warehouse = w;
    if (p.proc == tpcc::kNewOrderProc) {
      // The generator marks the spec's 1% rollbacks with item id -1 on the
      // last order line.
      int64_t items = req.args[5].AsInt64();
      p.invalid = req.args[static_cast<size_t>(6 + (items - 1) * 3)]
                      .AsInt64() < 0;
      invalid_generated_ += p.invalid ? 1 : 0;
    } else if (p.proc == tpcc::kPaymentProc) {
      p.cents = std::llround(req.args[1].AsNumeric() * 100);
    }
    pending_.push_back(p);
    return {req.reactor_id, req.proc_id, std::move(req.args)};
  }

  bool Complete(const client::TxnOutcome& out, Checks& checks) override {
    (void)checks;
    Pending p = pending_.front();
    pending_.pop_front();
    if (p.proc == tpcc::kNewOrderProc) {
      if (out.ok()) {
        ++new_orders_;
        return true;
      }
      if (out.status().IsUserAbort()) {
        ++rollbacks_;
        return true;
      }
      return false;
    }
    if (!out.ok()) return false;
    if (p.proc == tpcc::kPaymentProc) {
      ytd_cents_[p.warehouse - 1] += p.cents;
    }
    return true;
  }

  Request Probe() override {
    tpcc::TxnRequest req = gen_.MakeOrderStatus(rng_.NextInt(1, kWarehouses));
    return {req.reactor_id, req.proc_id, std::move(req.args)};
  }

  // order_status returns the line count of the customer's latest order:
  // 0 for a customer without orders, else 5..15 (clause 2.4.1.3).
  bool ProbeDone(const ProcResult& result, Checks& checks) override {
    if (!result.ok()) return false;
    int64_t lines = result->AsInt64();
    double min_lines = checks.Expected("probe", 5);
    if (lines != 0 && (static_cast<double>(lines) < min_lines || lines > 15)) {
      checks.Fail("probe", "order_status saw " + std::to_string(lines) +
                               " order lines");
    }
    return true;
  }

  Status DirectPointTxn(client::Database& db) override {
    Reactor* r = db.runtime()->FindReactor(
        tpcc::WarehouseName(rng_.NextInt(1, kWarehouses)));
    Table* stock = r->FindTable(tpcc::kStockSlot);
    uint32_t container = r->container_id();
    Row key{Value(rng_.NextInt(1, tpcc::kNumItems))};
    return db.RunDirect([&](SiloTxn& txn) -> Status {
      REACTDB_ASSIGN_OR_RETURN(Row row, txn.Get(stock, key, container));
      return txn.Update(stock, key, row, container);
    });
  }

  void Check(client::Database& db, Checks& checks) override {
    if (checks.Expected("consistency", 0) != 0) {
      // Perturbed: one district's YTD drifts from its warehouse's, which
      // the A1 clause must catch.
      Status s = BumpDistrictYtd(db);
      if (!s.ok()) checks.Fail("consistency", s.ToString());
    }
    Status s = tpcc::CheckConsistency(db.runtime(), kWarehouses);
    if (!s.ok()) checks.Fail("consistency", s.ToString());

    int64_t next_o_id = 0;
    double ytd[kWarehouses] = {};
    s = ReadTotals(db, &next_o_id, ytd);
    if (!s.ok()) {
      checks.Fail("next_o_id", s.ToString());
      return;
    }
    double advance = static_cast<double>(next_o_id - next_o_id_start_);
    double want = checks.Expected("next_o_id", static_cast<double>(new_orders_));
    if (advance != want) {
      checks.Fail("next_o_id", "D_NEXT_O_ID advanced " + Num(advance) +
                                   ", committed new-orders " + Num(want));
    }
    for (int64_t w = 0; w < kWarehouses; ++w) {
      double growth_cents = (ytd[w] - ytd_start_[w]) * 100;
      double want_cents = checks.Expected(
          "w_ytd", static_cast<double>(ytd_cents_[w]));
      if (std::abs(growth_cents - want_cents) >= 0.5) {
        checks.Fail("w_ytd", "warehouse " + std::to_string(w + 1) +
                                 " W_YTD grew " + Num(growth_cents) +
                                 " cents, payments " + Num(want_cents));
      }
    }
    double want_rollbacks = checks.Expected(
        "rollbacks", static_cast<double>(invalid_generated_));
    if (static_cast<double>(rollbacks_) != want_rollbacks) {
      checks.Fail("rollbacks", std::to_string(rollbacks_) +
                                   " rollbacks, generated invalid items " +
                                   Num(want_rollbacks));
    }
  }

 private:
  struct Pending {
    ProcId proc;
    int64_t warehouse = 1;
    bool invalid = false;
    int64_t cents = 0;
  };

  static tpcc::GeneratorOptions Options() {
    tpcc::GeneratorOptions o;
    o.num_warehouses = kWarehouses;
    o.remote_item_prob = 0;
    o.remote_payment_prob = 0;
    return o;
  }

  /// Sum of D_NEXT_O_ID over all districts, and W_YTD per warehouse.
  Status ReadTotals(client::Database& db, int64_t* next_o_id, double* ytd) {
    *next_o_id = 0;
    return db.RunDirect([&](SiloTxn& txn) -> Status {
      for (int64_t w = 1; w <= kWarehouses; ++w) {
        Reactor* r = db.runtime()->FindReactor(tpcc::WarehouseName(w));
        uint32_t c = r->container_id();
        REACTDB_ASSIGN_OR_RETURN(
            Row wrow, txn.Get(r->FindTable(tpcc::kWarehouseSlot),
                              {Value(int64_t{0})}, c));
        ytd[w - 1] = wrow[3].AsNumeric();
        REACTDB_RETURN_IF_ERROR(txn.Scan(
            r->FindTable(tpcc::kDistrictSlot), {}, {}, -1,
            [&](const Row& row) {
              *next_o_id += row[4].AsInt64();
              return true;
            },
            c));
      }
      return Status::OK();
    });
  }

  Status BumpDistrictYtd(client::Database& db) {
    Reactor* r = db.runtime()->FindReactor(tpcc::WarehouseName(1));
    Table* district = r->FindTable(tpcc::kDistrictSlot);
    uint32_t c = r->container_id();
    return db.RunDirect([&](SiloTxn& txn) -> Status {
      Row key{Value(int64_t{1})};
      REACTDB_ASSIGN_OR_RETURN(Row row, txn.Get(district, key, c));
      row[3] = Value(row[3].AsNumeric() + 1);
      return txn.Update(district, key, row, c);
    });
  }

  tpcc::Generator gen_;
  Rng rng_;
  const uint64_t load_seed_;
  ReactorDatabaseDef def_;
  tpcc::Handles handles_;
  std::deque<Pending> pending_;
  int64_t next_o_id_start_ = 0;
  double ytd_start_[kWarehouses] = {};
  int64_t new_orders_ = 0;         // committed
  int64_t rollbacks_ = 0;          // new-orders ended by a user abort
  int64_t invalid_generated_ = 0;  // new-orders generated with an unused item
  int64_t ytd_cents_[kWarehouses] = {};  // committed payment amounts
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"sb_point", "sb_fanout", "tpcc_local", "sb_durable"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "sb_point") {
    return std::make_unique<DepositWorkload>(50000, 4, 0.5, false,
                                             StreamSeed(seed, 1));
  }
  if (name == "sb_fanout") {
    return std::make_unique<FanoutWorkload>(50000, StreamSeed(seed, 2));
  }
  if (name == "sb_durable") {
    return std::make_unique<DepositWorkload>(20000, 256, 1.0, true,
                                             StreamSeed(seed, 3));
  }
  if (name == "tpcc_local") return std::make_unique<TpccWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
}  // namespace reactdb
