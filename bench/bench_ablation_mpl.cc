// Ablation (beyond the paper): effect of the
// per-executor multiprogramming level on the asynchronicity workload of
// Figures 9/10. MPL 1 serializes each executor (no cooperative
// multitasking); higher MPL lets executors overlap parked transactions.
#include "bench/bench_common.h"

namespace reactdb {
namespace bench {
namespace {

constexpr int64_t kScaleFactor = 4;

void Run() {
  PrintHeader(
      "Ablation: multiprogramming level (shared-nothing-async, new-order "
      "with delay, all items remote, 4 warehouses, 4 workers)",
      "MPL 1 wastes executor time while transactions wait on remote stock "
      "updates; throughput grows with MPL until executors saturate");

  std::printf("%-8s %-12s %-14s %-10s\n", "mpl", "tps", "latency[us]",
              "abort[%]");
  for (int mpl : {1, 2, 4, 8, 16, 0}) {
    DeploymentConfig dc = DeploymentConfig::SharedNothing(kScaleFactor, mpl);
    TpccRig rig = TpccRig::Create(kScaleFactor, dc);
    tpcc::GeneratorOptions gen_options;
    gen_options.num_warehouses = kScaleFactor;
    gen_options.mix_new_order = 100;
    gen_options.mix_payment = 0;
    gen_options.mix_order_status = 0;
    gen_options.mix_delivery = 0;
    gen_options.mix_stock_level = 0;
    gen_options.remote_item_prob = 1.0;
    gen_options.delay_min_us = 300;
    gen_options.delay_max_us = 400;
    // All clients target warehouse 1: its executor has nothing to do while
    // a transaction is parked on remote stock updates, so admission beyond
    // MPL 1 is what keeps it utilized.
    auto gen = std::make_shared<tpcc::Generator>(gen_options, 900 + mpl);
    auto handles = std::make_shared<tpcc::Handles>(rig.handles);
    gen->BindHandles(handles.get());
    auto request_gen = [gen, handles](int) {
      return ToRequest(gen->Next(1));
    };
    harness::DriverOptions options;
    options.num_workers = 8;
    options.num_epochs = 10;
    options.epoch_us = 60000;
    options.warmup_us = 60000;
    harness::DriverResult r =
        harness::RunClosedLoop(rig.rt.get(), options, request_gen);
    std::printf("%-8d %-12.0f %-14.1f %-10.2f\n", mpl, r.ThroughputTps(),
                r.mean_latency_us, 100 * r.abort_rate);
  }
}

}  // namespace
}  // namespace bench
}  // namespace reactdb

int main(int argc, char** argv) {
  reactdb::harness::ParseDriverFlags(argc, argv);
  reactdb::bench::Run();
  return 0;
}
