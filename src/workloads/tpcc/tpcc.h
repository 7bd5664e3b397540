// TPC-C in the reactor programming model (paper Sections 4.1.3 and 4.3).
//
// Each warehouse is a reactor encapsulating the full TPC-C schema fragment
// for that warehouse (district, customer, stock, orders, ... plus a local
// replica of the read-only item relation, as in H-Store-style designs).
// Remote stock updates in new-order and remote customer payments are
// expressed as asynchronous cross-reactor calls; everything else is local
// declarative logic. Sub-transactions to the same remote warehouse are
// batched into one call so that each reactor receives at most one
// sub-transaction per root transaction (the Section 2.2.4 safety
// condition).
//
// Scale-down relative to the spec (the workload *shape* per transaction is
// unchanged):
//   items / stock per warehouse   10,000  (spec: 100,000)
//   customers per district         1,000  (spec: 3,000)
//   initial orders per district      300  (spec: 3,000)

#ifndef REACTDB_WORKLOADS_TPCC_TPCC_H_
#define REACTDB_WORKLOADS_TPCC_TPCC_H_

#include <string>
#include <vector>

#include "src/runtime/runtime_base.h"
#include "src/util/rng.h"

namespace reactdb {
namespace tpcc {

inline constexpr int kNumDistricts = 10;
inline constexpr int kCustomersPerDistrict = 1000;
inline constexpr int kNumItems = 10000;
inline constexpr int kInitialOrdersPerDistrict = 300;

/// Interned handles of the Warehouse type, fixed by the registration order
/// in BuildDef (verified there with checks). Procedures and loaders index
/// tables by slot; clients submit by ProcId.
inline constexpr TableSlot kWarehouseSlot{0};
inline constexpr TableSlot kDistrictSlot{1};
inline constexpr TableSlot kCustomerSlot{2};
inline constexpr TableSlot kHistorySlot{3};
inline constexpr TableSlot kNewOrderSlot{4};
inline constexpr TableSlot kOorderSlot{5};
inline constexpr TableSlot kOrderLineSlot{6};
inline constexpr TableSlot kStockSlot{7};
inline constexpr TableSlot kItemSlot{8};
inline constexpr ProcId kNewOrderProc{0};
inline constexpr ProcId kStockUpdateBatchProc{1};
inline constexpr ProcId kPaymentProc{2};
inline constexpr ProcId kPaymentCustomerProc{3};
inline constexpr ProcId kOrderStatusProc{4};
inline constexpr ProcId kDeliveryProc{5};
inline constexpr ProcId kStockLevelProc{6};

/// Reactor name of warehouse `w` (1-based, zero-padded).
std::string WarehouseName(int64_t w);

/// Defines the Warehouse reactor type and declares `num_warehouses`
/// reactors (the benchmark's scale factor).
void BuildDef(ReactorDatabaseDef* def, int64_t num_warehouses);

/// Populates all warehouses per the (scaled) TPC-C population rules.
Status Load(RuntimeBase* rt, int64_t num_warehouses, uint64_t seed = 42);

/// TPC-C consistency checks (ported from the spec's A-clauses):
///  * W_YTD == sum of D_YTD of its districts
///  * D_NEXT_O_ID - 1 == max(O_ID) == max(NO_O_ID) per district
///  * order ol_cnt == number of order lines per order
Status CheckConsistency(RuntimeBase* rt, int64_t num_warehouses);

/// One generated client request. When the generator holds pre-resolved
/// Handles, `reactor_id`/`proc_id` are filled and drivers submit by handle.
struct TxnRequest {
  std::string reactor;  // home warehouse
  std::string proc;
  Row args;
  ReactorId reactor_id;
  ProcId proc_id;
};

/// Client-side handles, resolved once after Bootstrap: warehouse w (1-based)
/// is `warehouses[w - 1]`.
struct Handles {
  std::vector<ReactorId> warehouses;
};
Handles ResolveHandles(const RuntimeBase* rt, int64_t num_warehouses);

/// Workload generator options covering all the paper's TPC-C variants.
struct GeneratorOptions {
  int64_t num_warehouses = 1;
  /// Standard mix weights (percent): new-order, payment, order-status,
  /// delivery, stock-level.
  int mix_new_order = 45;
  int mix_payment = 43;
  int mix_order_status = 4;
  int mix_delivery = 4;
  int mix_stock_level = 4;
  /// Probability that any given new-order item is supplied by a remote
  /// warehouse (spec: 0.01).
  double remote_item_prob = 0.01;
  /// If >= 0: instead of per-item draws, with this probability exactly one
  /// item of the transaction is remote (the Appendix E cross-reactor
  /// sweep); -1 disables.
  double single_remote_item_prob = -1;
  /// Probability the paying customer belongs to a remote warehouse
  /// (spec: 0.15).
  double remote_payment_prob = 0.15;
  /// Await each remote stock update immediately (shared-nothing-sync
  /// programs, Section 3.3); default overlaps them asynchronously.
  bool sync_subtxns = false;
  /// Extra stock-replenishment computation per stock update, in
  /// microseconds, uniform in [delay_min_us, delay_max_us] (the
  /// new-order-delay variant of Section 4.3.2; 0 disables).
  double delay_min_us = 0;
  double delay_max_us = 0;
};

class Generator {
 public:
  Generator(GeneratorOptions options, uint64_t seed);

  /// Attaches pre-resolved handles (must outlive the generator); generated
  /// requests then carry reactor/proc handles for string-free submission.
  void BindHandles(const Handles* handles) { handles_ = handles; }

  /// Generates one request for a client with affinity to `home_warehouse`
  /// (1-based).
  TxnRequest Next(int64_t home_warehouse);

  TxnRequest MakeNewOrder(int64_t w);
  TxnRequest MakePayment(int64_t w);
  TxnRequest MakeOrderStatus(int64_t w);
  TxnRequest MakeDelivery(int64_t w);
  TxnRequest MakeStockLevel(int64_t w);

  Rng& rng() { return rng_; }

 private:
  /// Stamps the home warehouse + procedure identity onto `req`: handles
  /// when bound, name strings otherwise.
  TxnRequest& Stamp(TxnRequest& req, int64_t w, ProcId proc,
                    const char* proc_name);

  GeneratorOptions options_;
  Rng rng_;
  const Handles* handles_ = nullptr;
};

/// Last-name generation per the spec's syllable table.
std::string LastName(int64_t num);

}  // namespace tpcc
}  // namespace reactdb

#endif  // REACTDB_WORKLOADS_TPCC_TPCC_H_
