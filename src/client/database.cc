#include "src/client/database.h"

#include <chrono>
#include <cstdio>

#include "src/util/logging.h"

namespace reactdb {
namespace client {

namespace {

audit::OnlineAuditorOptions AuditOptionsFor(const Database::Options& options,
                                            bool background_thread) {
  audit::OnlineAuditorOptions a;
  a.window_epochs = options.audit_window_epochs;
  a.background_thread = background_thread;
  return a;
}

}  // namespace

Status Database::Open(const ReactorDatabaseDef* def,
                      const DeploymentConfig& dc, Options options) {
  if (rt_ != nullptr) return Status::Internal("database already open");
  if (options.audit && options.data_dir.empty()) {
    return Status::InvalidArgument(
        "Options::audit requires a data_dir (the auditor reads the log)");
  }
  closed_ = false;
  recovery_ = log::RecoveryResult{};
  if (options.mode == Mode::kSim) {
    auto sim = std::make_unique<SimRuntime>(options.sim_params);
    sim_ = sim.get();
    rt_ = std::move(sim);
    InstallFaults(options);  // before Bootstrap: the link wrap happens there
    REACTDB_RETURN_IF_ERROR(sim_->Bootstrap(def, dc));
    if (!options.data_dir.empty()) {
      REACTDB_RETURN_IF_ERROR(OpenDurable(options));
      if (options.audit) {
        // Single-threaded runtime: the auditor drains inline in the
        // durable-epoch listener, keeping the virtual-time run
        // deterministic.
        REACTDB_RETURN_IF_ERROR(rt_->EnableAudit(
            AuditOptionsFor(options, /*background_thread=*/false)));
      }
      REACTDB_RETURN_IF_ERROR(RecoveryCheckpoint());
    }
    // After durability, so the durable-epoch listener can attach.
    if (options.trace.enabled) {
      REACTDB_RETURN_IF_ERROR(rt_->EnableTracing(options.trace));
    }
    if (options.exporter_port != 0) {
      REACTDB_LOG(kWarn) << "Options::exporter_port ignored under kSim "
                            "(no wall clock to serve on)";
    }
    if (options.monitor.enabled) {
      REACTDB_RETURN_IF_ERROR(rt_->EnableMonitoring(options.monitor));
      InstallDumpSink(options);
      // The sampler driver is the event queue's virtual-time ticker: ticks
      // fire between events, never enqueue, and exist only when monitoring
      // is on — so RunAll still terminates and the calibrated traces of
      // unmonitored runs are untouched.
      RuntimeBase* rt = rt_.get();
      sim_->events().SetTicker(
          static_cast<double>(options.monitor.sample_interval_us),
          [rt](double) { rt->MonitorTick(); });
    }
    return Status::OK();
  }
  auto threads = std::make_unique<ThreadRuntime>();
  threads_ = threads.get();
  rt_ = std::move(threads);
  InstallFaults(options);  // before Bootstrap: the link wrap happens there
  REACTDB_RETURN_IF_ERROR(threads_->Bootstrap(def, dc));
  // Durability opens (and recovers) before the executors start: recovery
  // replays into the tables single-threaded, and the first transaction can
  // only run against fully recovered state. The recovery checkpoint runs
  // after Start because its durability fence needs the writer threads.
  if (!options.data_dir.empty()) {
    REACTDB_RETURN_IF_ERROR(OpenDurable(options));
    if (options.audit) {
      // Before StartWriters: the frame tee must not be installed
      // concurrently with flushes.
      REACTDB_RETURN_IF_ERROR(rt_->EnableAudit(
          AuditOptionsFor(options, /*background_thread=*/true)));
    }
  }
  if (options.trace.enabled) {
    REACTDB_RETURN_IF_ERROR(rt_->EnableTracing(options.trace));
  }
  // Before Start: monitoring swaps observability wiring (flight ring
  // capacity) that must not race live executors.
  if (options.monitor.enabled) {
    REACTDB_RETURN_IF_ERROR(rt_->EnableMonitoring(options.monitor));
    InstallDumpSink(options);
  }
  REACTDB_RETURN_IF_ERROR(threads_->Start(options.epoch_tick_ms));
  if (rt_->durability() != nullptr) {
    rt_->durability()->StartWriters();
    REACTDB_RETURN_IF_ERROR(RecoveryCheckpoint());
  }
  if (options.monitor.enabled) {
    StartSampler(options.monitor.sample_interval_us);
  }
  if (options.exporter_port != 0) {
    REACTDB_RETURN_IF_ERROR(StartExporter(options.exporter_port));
  }
  return Status::OK();
}

void Database::InstallDumpSink(const Options& options) {
  if (options.data_dir.empty()) return;  // default sink logs the dump
  std::string dir = options.data_dir;
  rt_->flight()->set_dump_sink(
      [dir](const char* reason, const std::string& json) {
        std::string path = dir + "/flight_" + reason + ".json";
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
          REACTDB_LOG(kError)
              << "flight auto-dump (" << reason << "): cannot open " << path;
          return;
        }
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        REACTDB_LOG(kWarn) << "flight recorder auto-dump (" << reason
                           << ") -> " << path;
      });
}

void Database::StartSampler(uint64_t interval_us) {
  sampler_stop_ = false;
  sampler_thread_ = std::thread([this, interval_us] {
    std::unique_lock<std::mutex> lock(sampler_mu_);
    while (!sampler_stop_) {
      if (sampler_cv_.wait_for(lock, std::chrono::microseconds(interval_us),
                               [this] { return sampler_stop_; })) {
        break;
      }
      lock.unlock();
      rt_->MonitorTick();
      lock.lock();
    }
  });
}

void Database::StopSampler() {
  if (!sampler_thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(sampler_mu_);
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  sampler_thread_.join();
}

Status Database::StartExporter(uint16_t port) {
  exporter_ = std::make_unique<obs::HttpExporter>();
  exporter_->Handle("/metrics", [this] {
    obs::HttpExporter::Response r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = Stats().ToPrometheus();
    return r;
  });
  exporter_->Handle("/healthz", [this] {
    obs::HttpExporter::Response r;
    obs::HealthReport h = Health();
    r.status = h.state == obs::HealthState::kOk ? 200 : 503;
    r.content_type = "application/json";
    r.body = h.ToJson();
    return r;
  });
  exporter_->Handle("/vars", [this] {
    obs::HttpExporter::Response r;
    r.content_type = "application/json";
    r.body = Stats().ToJson();
    return r;
  });
  exporter_->Handle("/series", [this] {
    obs::HttpExporter::Response r;
    r.content_type = "application/json";
    r.body = Series();
    return r;
  });
  exporter_->Handle("/traces", [this] {
    obs::HttpExporter::Response r;
    r.content_type = "application/json";
    r.body = DumpTraces();
    return r;
  });
  exporter_->Handle("/flight", [this] {
    obs::HttpExporter::Response r;
    r.content_type = "application/json";
    r.body = DumpFlight();
    return r;
  });
  return exporter_->Start(port);
}

std::string Database::Series() const {
  auto* s = rt_ == nullptr ? nullptr : rt_->series();
  return s == nullptr ? std::string("{}\n") : s->ToJson();
}

obs::HealthReport Database::Health() const {
  auto* h = rt_ == nullptr ? nullptr : rt_->health();
  return h == nullptr ? obs::HealthReport{} : h->last();
}

void Database::InstallFaults(const Options& options) {
  if (!options.fault.enabled) return;
  fault_options_ = options.fault;
  injector_ = std::make_unique<fault::FaultInjector>(options.fault.seed);
  fault::ArmFromOptions(injector_.get(), fault_options_);
  rt_->InstallFaultInjector(injector_.get(),
                            fault_options_.any_link_fault(),
                            fault_options_.retransmit_delay_us,
                            fault_options_.max_delay_us);
}

Status Database::OpenDurable(const Options& options) {
  log::DurabilityOptions dopts;
  dopts.data_dir = options.data_dir;
  dopts.flush_interval_us = options.log_flush_interval_us;
  dopts.auto_flush = options.log_auto_flush;
  if (injector_ != nullptr) {
    dopts.file_fault_hook =
        fault::MakeFileFaultHook(injector_.get(), fault_options_);
  }
  REACTDB_RETURN_IF_ERROR(rt_->EnableDurability(dopts));
  REACTDB_RETURN_IF_ERROR(
      log::Recover(rt_.get(), rt_->durability(), &recovery_));
  // Fresh segments only after replay, so recovered files are never
  // appended to.
  return rt_->durability()->StartActiveSegments();
}

Status Database::RecoveryCheckpoint() {
  // Recovery dropped records beyond the durable epoch for atomicity, but
  // those bytes are still sitting in the retained segments — and new seals
  // will move past their epochs, so a *later* crash would replay them and
  // resurrect half-transactions. A checkpoint of the recovered state
  // supersedes (and truncates) every old segment, purging the dropped
  // tails for good. Fresh databases skip it — there is nothing to purge.
  if (!recovery_.recovered) return Status::OK();
  return log::WriteCheckpoint(rt_.get(), rt_->durability(), nullptr);
}

audit::AuditorStatus Database::AuditStatus() const {
  auto* a = rt_ == nullptr ? nullptr : rt_->auditor();
  return a == nullptr ? audit::AuditorStatus{} : a->status();
}

uint64_t Database::WaitDurable(uint64_t epoch) {
  if (rt_ == nullptr || rt_->durability() == nullptr) return 0;
  if (epoch == 0) epoch = rt_->durability()->max_appended_epoch();
  return rt_->WaitDurable(epoch);
}

Status Database::Checkpoint(log::CheckpointResult* result) {
  if (rt_ == nullptr || rt_->durability() == nullptr) {
    return Status::InvalidArgument("durability is off (no data_dir)");
  }
  rt_->flight()->RecordShared(obs::FlightEventKind::kCheckpointBegin,
                              rt_->durability()->durable_epoch());
  log::CheckpointResult local;
  if (result == nullptr) result = &local;
  Status s = log::WriteCheckpoint(rt_.get(), rt_->durability(), result);
  if (s.ok()) {
    rt_->flight()->RecordShared(obs::FlightEventKind::kCheckpointCommit,
                                result->ckpt_epoch, result->rows);
  }
  return s;
}

void Database::CrashForTest() {
  if (rt_ != nullptr && rt_->durability() != nullptr) {
    rt_->durability()->Abandon();
  }
  Shutdown();
}

void Database::Shutdown() {
  if (rt_ == nullptr || closed_) return;
  closed_ = true;
  // Operational plane first: no scrape or sampler tick may observe (or
  // race) a half-torn-down runtime.
  if (exporter_ != nullptr) exporter_->Stop();
  StopSampler();
  if (threads_ != nullptr) {
    threads_->Stop();  // drains outstanding roots, then joins executors
  } else if (sim_ != nullptr) {
    sim_->RunAll();        // quiesce: every submitted root finalizes
    sim_->StopAccepting();  // post-shutdown submissions fail fast
  }
  if (rt_->durability() != nullptr) {
    // Stop the writers even when halted: they call back into the runtime,
    // which must not be mid-destruction while one is still running.
    rt_->durability()->StopWriters();
    // Clean shutdown makes everything durable: drain the shards to disk so
    // a reopen recovers the complete history.
    if (!rt_->durability()->halted()) {
      Status s = rt_->durability()->FinalFlush();
      if (!s.ok()) {
        REACTDB_LOG(kError) << "final log flush failed: " << s;
      }
    }
  }
  if (rt_->auditor() != nullptr) {
    // After the final flush: the tail frames and the last durable advance
    // were teed, so Stop's final drain audits the complete history.
    rt_->auditor()->Stop();
  }
  // The runtime object intentionally survives until ~Database: sessions
  // created from it may still be drained and their retained results
  // consumed; new submissions fail fast with Unavailable.
}

}  // namespace client
}  // namespace reactdb
