// Shared helpers for the paper-reproduction benchmarks.
//
// Every bench binary regenerates one table or figure of the paper on the
// simulated multi-core substrate (src/runtime/sim_runtime.h), prints the
// same series the paper reports, and notes the paper's qualitative
// expectation next to it, so paper and measured shapes can be compared.

#ifndef REACTDB_BENCH_BENCH_COMMON_H_
#define REACTDB_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/harness/sim_driver.h"
#include "src/util/logging.h"
#include "src/runtime/reactdb.h"
#include "src/util/rng.h"
#include "src/workloads/smallbank/smallbank.h"
#include "src/workloads/tpcc/tpcc.h"

namespace reactdb {
namespace bench {

/// Cost parameters calibrated to the paper's 3.6 GHz Xeon E3-1276
/// (Sections 4.2, Appendices B/C: latency-control experiments; fast cores,
/// cheap client boundary).
inline CostParams XeonParams() {
  CostParams p;
  p.cs_us = 1.0;
  p.cr_us = 3.5;
  p.point_read_us = 0.45;
  p.scan_row_us = 0.15;
  p.scan_leaf_us = 0.3;
  p.write_us = 0.55;
  p.insert_us = 0.85;
  p.non_affine_penalty = 0.4;
  p.commit_base_us = 1.5;
  p.commit_per_write_us = 0.2;
  p.twopc_per_container_us = 2.0;
  p.client_submit_us = 3.0;
  p.client_notify_us = 2.0;
  p.input_gen_us = 1.5;
  return p;
}

/// Cost parameters calibrated to the paper's 2.1 GHz Opteron 6274
/// (Section 4.3, Appendices D-G: slower cores, accentuated cross-core
/// costs, ~22us containerization overhead per invocation round trip).
inline CostParams OpteronParams() { return CostParams(); }

inline void PrintHeader(const std::string& title,
                        const std::string& expectation) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper expectation: %s\n", expectation.c_str());
  std::printf("==============================================================\n");
}

/// Smallbank deployment of Sections 4.2 / Appendix B: 7 database containers
/// with one executor each, 1000 customer reactors per container; the worker
/// generates multi-transfers whose source account lives on container 0.
struct SmallbankRig {
  static constexpr int kContainers = 7;
  static constexpr int64_t kPerContainer = 1000;
  static constexpr int64_t kCustomers = kContainers * kPerContainer;

  std::unique_ptr<ReactorDatabaseDef> def;
  std::unique_ptr<SimRuntime> rt;
  /// Client handles, resolved once at load time; requests submit by handle.
  smallbank::Handles handles;

  static SmallbankRig Create(CostParams params = XeonParams()) {
    SmallbankRig rig;
    rig.def = std::make_unique<ReactorDatabaseDef>();
    smallbank::BuildDef(rig.def.get(), kCustomers);
    rig.rt = std::make_unique<SimRuntime>(params);
    DeploymentConfig dc = DeploymentConfig::SharedNothing(kContainers);
    Status s = rig.rt->Bootstrap(rig.def.get(), dc);
    REACTDB_CHECK(s.ok());
    REACTDB_CHECK_OK(smallbank::Load(rig.rt.get(), kCustomers));
    rig.handles = smallbank::ResolveHandles(rig.rt.get(), kCustomers);
    return rig;
  }

  /// The fixed source account (container 0).
  std::string Source() const { return smallbank::CustomerName(0); }
  ReactorId SourceId() const { return handles.customers[0]; }

  /// A fresh (per-call distinct) customer on `container`.
  std::string CustomerOn(int container, int64_t slot) const {
    return smallbank::CustomerName(container * kPerContainer +
                                   1 + (slot % (kPerContainer - 1)));
  }
  /// Same customer as a pre-resolved handle (destination cells built from
  /// these dispatch without any per-call string hash).
  ReactorId CustomerIdOn(int container, int64_t slot) const {
    return handles.customers[static_cast<size_t>(
        container * kPerContainer + 1 + (slot % (kPerContainer - 1)))];
  }

  /// A handle-resolved request invoking `call` on the source account (the
  /// name strings stay empty — the driver submits by handle).
  harness::Request SourceRequest(smallbank::MultiTransferCall call) const {
    harness::Request req;
    req.args = std::move(call.args);
    req.reactor_id = SourceId();
    req.proc_id = call.proc_id;
    return req;
  }
};

/// Runs a single-worker latency experiment: a closed loop issuing the
/// request returned by `gen`, measured over epochs (paper Section 4.1.2).
inline harness::DriverResult MeasureLatency(SimRuntime* rt,
                                            const harness::RequestGen& gen,
                                            int num_epochs = 25,
                                            double epoch_us = 20000) {
  harness::DriverOptions options;
  options.num_workers = 1;
  options.num_epochs = num_epochs;
  options.epoch_us = epoch_us;
  options.warmup_us = epoch_us;
  return harness::RunClosedLoop(rt, options, gen);
}

/// A bootstrapped TPC-C database on the simulated Opteron substrate.
struct TpccRig {
  std::unique_ptr<ReactorDatabaseDef> def;
  std::unique_ptr<SimRuntime> rt;
  /// Warehouse handles, resolved once at load time.
  tpcc::Handles handles;

  static TpccRig Create(int64_t warehouses, const DeploymentConfig& dc,
                        CostParams params = OpteronParams()) {
    TpccRig rig;
    rig.def = std::make_unique<ReactorDatabaseDef>();
    tpcc::BuildDef(rig.def.get(), warehouses);
    rig.rt = std::make_unique<SimRuntime>(params);
    REACTDB_CHECK_OK(rig.rt->Bootstrap(rig.def.get(), dc));
    REACTDB_CHECK_OK(tpcc::Load(rig.rt.get(), warehouses));
    rig.handles = tpcc::ResolveHandles(rig.rt.get(), warehouses);
    return rig;
  }
};

/// Maps a generated TPC-C request (already handle-stamped by a generator
/// with bound Handles) onto a driver request.
inline harness::Request ToRequest(tpcc::TxnRequest req) {
  harness::Request out;
  out.reactor = std::move(req.reactor);
  out.proc = std::move(req.proc);
  out.args = std::move(req.args);
  out.reactor_id = req.reactor_id;
  out.proc_id = req.proc_id;
  return out;
}

/// Runs a TPC-C closed loop: `workers` clients, each with affinity to
/// warehouse (worker % warehouses) + 1 (paper Section 4.1.3).
inline harness::DriverResult RunTpcc(SimRuntime* rt,
                                     const tpcc::GeneratorOptions& gen_options,
                                     int workers, uint64_t seed,
                                     int num_epochs = 15,
                                     double epoch_us = 20000,
                                     const tpcc::Handles* handles = nullptr) {
  auto gen = std::make_shared<tpcc::Generator>(gen_options, seed);
  // Pre-resolve warehouse handles once; every generated request then
  // submits by handle (no string lookup per transaction).
  auto owned = std::make_shared<tpcc::Handles>(
      handles != nullptr
          ? *handles
          : tpcc::ResolveHandles(rt, gen_options.num_warehouses));
  gen->BindHandles(owned.get());
  int64_t num_warehouses = gen_options.num_warehouses;
  harness::DriverOptions options;
  options.num_workers = workers;
  options.num_epochs = num_epochs;
  options.epoch_us = epoch_us;
  options.warmup_us = epoch_us;
  auto request_gen = [gen, owned, num_warehouses](int worker) {
    return ToRequest(gen->Next(worker % num_warehouses + 1));
  };
  return harness::RunClosedLoop(rt, options, request_gen);
}

/// Deployment factory by strategy name used across the TPC-C benches.
inline DeploymentConfig MakeDeployment(const std::string& strategy,
                                       int executors) {
  if (strategy == "shared-everything-without-affinity") {
    return DeploymentConfig::SharedEverythingWithoutAffinity(executors);
  }
  if (strategy == "shared-everything-with-affinity") {
    return DeploymentConfig::SharedEverythingWithAffinity(executors);
  }
  return DeploymentConfig::SharedNothing(executors);
}

}  // namespace bench
}  // namespace reactdb

#endif  // REACTDB_BENCH_BENCH_COMMON_H_
