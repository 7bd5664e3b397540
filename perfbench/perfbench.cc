// perfbench: the repository benchmark (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--data-root <dir>] [--perturb <check>] [--list-checks]
//
// Drives ThreadRuntime through the public client API only (Database,
// Session): one client thread running a closed loop at the workload's
// window against two shared-nothing containers of one executor each.
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// reports the per-layer metrics: an untraced run (public-call timings and
// Database::Stats() counter deltas, plus window-1 and direct-storage probe
// phases) and then a second run on a fresh database with per-transaction
// tracing on, whose spans are folded into per-layer medians. Every run ends
// with the workload's output checks; a failed check fails the run.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/workload.h"

namespace reactdb {
namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Set-ups before the first measured phase of an end-to-end run (later
// rounds of a count-based workload add one each); setup_s is their median.
constexpr int kSetupRepeats = 9;
// CPUs the process runs on: two for the client thread and the two executors.
constexpr int kCpus = 2;
// Durable workloads run on one CPU. They use a third of it, and on two CPUs
// every commit's durability kick could wake a log writer on the other CPU:
// whether the kicks coalesced or ping-ponged changed from run to run and
// doubled CPU per transaction (README.md, "CPU placement").
constexpr int kDurableCpus = 1;
// Slices of a time-based measured phase; every figure is a median over them.
constexpr int kSlices = 20;
// Rounds of a count-based workload per --seconds of run length.
constexpr double kSecondsPerRound = 2;
// Group-commit interval of durable workloads: 10 ms rather than the 2 ms
// default, since at 2 ms the fsync and timer-wakeup jitter of a shared disk
// and VM are a large share of each cycle (README.md, "Workloads").
constexpr double kGroupCommitUs = 10000;
// Untimed warm-up before each measured phase.
constexpr double kWarmupSeconds = 1.0;
constexpr uint64_t kWarmupTxns = 4000;  // count-based workloads
// Window-1 round trips and direct point transactions per probe phase (the
// first tenth warms up and is not reported).
constexpr int kProbeOps = 5000;
// Traces retained in the traced run (the most recent ones are kept).
constexpr size_t kRetainedTraces = 1 << 16;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_root = ".";
  std::string perturb;
  bool list_checks = false;
};

// ThreadRuntime's session clock (steady clock in microseconds), so client
// timestamps compare directly with trace spans.
double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Nearest-rank quantile; 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Confines the process, and so every thread it starts later, to the last
/// `n` CPUs it may run on (README.md, "CPU placement": with a vCPU per busy
/// thread, idle vCPUs halt and every cross-thread wakeup pays the
/// hypervisor's wakeup path, which swung throughput 2x between runs).
void PinToCpus(int n) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t use;
  CPU_ZERO(&use);
  for (int c = CPU_SETSIZE - 1, picked = 0; c >= 0 && picked < n; --c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &use);
      ++picked;
    }
  }
  sched_setaffinity(0, sizeof use, &use);
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------------------
// Database lifecycle.

class Bench {
 public:
  Bench(const Args& args, Workload* wl) : args_(args), wl_(wl) {}

  /// Opens a database for the workload (fresh data_dir when durable), loads
  /// it and resolves handles. Returns the set-up time in seconds.
  double Setup(std::unique_ptr<client::Database>* db, bool traced) {
    db->reset();
    client::Database::Options o = Options(traced);
    if (wl_->durable()) {
      fs::remove_all(o.data_dir);
      fs::create_directories(o.data_dir);
    }
    double t0 = NowUs();
    *db = std::make_unique<client::Database>();
    Status s = (*db)->Open(wl_->def(), Deployment(), o);
    if (s.ok()) s = wl_->Load(**db);
    double setup_s = (NowUs() - t0) * 1e-6;
    if (!s.ok()) Die("setup: " + s.ToString());
    return setup_s;
  }

  /// Output checks after the loop drained. Durable workloads first shut
  /// down, cross-check the log volume against the segments on disk, and
  /// reopen the data_dir so the checks read recovered state.
  void Finish(std::unique_ptr<client::Database>* db, bool traced,
              Checks& checks) {
    if (wl_->durable()) {
      (*db)->Shutdown();
      double logged = (*db)->Stats().Value("reactdb_log_bytes_written_total");
      double on_disk = SegmentBytes(Options(traced).data_dir);
      if (logged != checks.Expected("log_bytes", on_disk)) {
        checks.Fail("log_bytes", std::to_string(logged) + " bytes logged, " +
                                     std::to_string(on_disk) + " on disk");
      }
      db->reset();
      *db = std::make_unique<client::Database>();
      Status s = (*db)->Open(wl_->def(), Deployment(), Options(traced));
      if (!s.ok()) Die("reopen: " + s.ToString());
      if (!(*db)->recovered()) checks.Fail("recovered", "nothing recovered");
    }
    wl_->Check(**db, checks);
    (*db)->Shutdown();
    if (wl_->durable()) fs::remove_all(Options(traced).data_dir);
  }

 private:
  static DeploymentConfig Deployment() {
    DeploymentConfig dc = DeploymentConfig::SharedNothing(2);
    dc.executors_per_container = 1;
    return dc;
  }

  client::Database::Options Options(bool traced) const {
    client::Database::Options o;
    if (wl_->durable()) {
      o.log_flush_interval_us = kGroupCommitUs;
      o.data_dir = (fs::path(args_.data_root) /
                    ("perfbench-data-" + std::to_string(getpid()) +
                     (traced ? "-traced" : "")))
                       .string();
    }
    if (traced) {
      o.trace.enabled = true;
      o.trace.slow_threshold_us = 0;  // retain every trace
      o.trace.max_retained = kRetainedTraces;
    }
    return o;
  }

  static double SegmentBytes(const std::string& data_dir) {
    double bytes = 0;
    for (const auto& e : fs::recursive_directory_iterator(
             fs::path(data_dir) / "log")) {
      if (e.is_regular_file()) bytes += static_cast<double>(e.file_size());
    }
    return bytes;
  }

  const Args& args_;
  Workload* wl_;
};

// ---------------------------------------------------------------------------
// The closed loop.

struct LoopSpec {
  double measure_s = 0;    // time-based measured phase
  uint64_t measure_n = 0;  // count-based measured phase (when > 0)
  int slices = 1;          // slices of the measured phase
  bool keep_samples = false;
  /// Called at the measured phase's start and end.
  std::function<void()> on_begin, on_end;
};

/// Client-side timestamps of one measured committed transaction.
struct ClientSample {
  double submit_begin = 0;  // before Session::Submit
  double submit_end = 0;    // Submit returned
  double done = 0;          // the Wait that handed over the result returned
  bool first_attempt = true;
};

/// One slice of the measured phase, by time or by count.
struct Slice {
  double elapsed_s = 0;
  double cpu_s = 0;
  std::vector<double> latency_us;  // committed transactions
};

struct LoopResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t committed = 0;  // measured committed transactions
  std::vector<Slice> slices;
  std::vector<double> submit_us;
  std::vector<ClientSample> samples;

};

LoopResult RunLoop(Workload& wl, client::Session& session, Checks& checks,
                   const LoopSpec& spec) {
  struct InFlight {
    client::SessionFuture future;
    uint64_t seq;
    double submit_begin;
    double submit_end;
  };
  const bool by_count = spec.measure_n > 0;
  const uint64_t warm_n = by_count ? kWarmupTxns : 0;
  const uint64_t end_n = warm_n + spec.measure_n;
  const double start = NowUs();
  std::deque<InFlight> inflight;
  LoopResult r;
  uint64_t seq = 0;
  double t_begin = -1;  // measured phase start; < 0 while warming up
  double slice_t = 0, slice_cpu = 0;
  bool submitting = true;

  auto open_slice = [&](double now) {
    r.slices.emplace_back();
    slice_t = now;
    slice_cpu = CpuSeconds();
  };
  auto close_slice = [&](double now) {
    r.slices.back().elapsed_s = (now - slice_t) * 1e-6;
    r.slices.back().cpu_s = CpuSeconds() - slice_cpu;
  };
  auto begin_measure = [&](double now) {
    if (spec.on_begin) spec.on_begin();
    t_begin = now;
    open_slice(now);
  };
  auto end_measure = [&](double now) {
    close_slice(now);
    if (spec.on_end) spec.on_end();
  };
  // Time-based slices close at fixed offsets into the phase.
  auto slice_deadline = [&] {
    return t_begin + spec.measure_s * 1e6 *
                         static_cast<double>(r.slices.size()) / spec.slices;
  };

  while (submitting || !inflight.empty()) {
    if (submitting && inflight.size() < wl.window()) {
      double now = NowUs();
      if (by_count) {
        if (seq == warm_n) begin_measure(now);
        submitting = seq < end_n;
      } else if (t_begin < 0) {
        if (now - start >= kWarmupSeconds * 1e6) begin_measure(now);
      } else if (now >= slice_deadline()) {
        if (r.slices.size() == static_cast<size_t>(spec.slices)) {
          end_measure(now);
          submitting = false;
        } else {
          close_slice(now);
          open_slice(now);
        }
      }
      if (!submitting) continue;
      Request req = wl.Next();
      double t0 = NowUs();
      client::SessionFuture f =
          session.Submit(req.reactor, req.proc, std::move(req.args));
      double t1 = NowUs();
      inflight.push_back({f, seq++, t0, t1});
      ++r.attempted;
      continue;
    }
    InFlight x = inflight.front();
    inflight.pop_front();
    client::TxnOutcome out = x.future.Wait();
    double done = NowUs();
    if (!wl.Complete(out, checks)) {
      ++r.failed;
      if (r.failed <= 5) {
        std::fprintf(stderr, "failed: %s\n", out.status().ToString().c_str());
      }
    }
    bool measured = by_count ? x.seq >= warm_n && x.seq < end_n
                             : t_begin >= 0 && submitting;
    if (measured && out.ok()) {
      ++r.committed;
      r.slices.back().latency_us.push_back(done - x.submit_begin);
      r.submit_us.push_back(x.submit_end - x.submit_begin);
      if (spec.keep_samples) {
        r.samples.push_back(
            {x.submit_begin, x.submit_end, done, out.attempts == 1});
      }
    }
    if (by_count && x.seq >= warm_n) {
      uint64_t k = x.seq + 1 - warm_n;  // measured completions so far
      if (k == spec.measure_n) {
        end_measure(done);
      } else if (k % std::max<uint64_t>(spec.measure_n / spec.slices, 1) == 0) {
        close_slice(done);
        open_slice(done);
      }
    }
  }
  session.Drain();
  return r;
}

/// Median over slices of a per-slice statistic.
double SliceMedian(const std::vector<Slice>& slices,
                   const std::function<double(const Slice&)>& stat) {
  std::vector<double> v;
  for (const Slice& c : slices) {
    if (!c.latency_us.empty()) v.push_back(stat(c));
  }
  return Median(v);
}

double Tps(const Slice& c) {
  return static_cast<double>(c.latency_us.size()) / c.elapsed_s;
}

/// One line per slice: throughput, p50 and CPU per transaction.
void PrintSlices(const std::vector<Slice>& slices) {
  for (size_t i = 0; i < slices.size(); ++i) {
    const Slice& c = slices[i];
    std::printf("slice %2zu %10.1f tps %9.2f us p50 %8.2f us cpu/txn\n", i,
                Tps(c), Quantile(c.latency_us, 0.5),
                c.cpu_s * 1e6 / static_cast<double>(c.latency_us.size()));
  }
}

// ---------------------------------------------------------------------------
// Metrics output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void Print(const Checks& checks, uint64_t attempted, uint64_t failed,
           const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-30s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %llu failed %llu checks %s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              checks.ok() ? "passed" : "FAILED");
  std::string json = "{\"correct\": ";
  json += checks.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

LoopSpec MeasuredPhase(const Workload& wl, double seconds) {
  LoopSpec spec;
  spec.measure_s = seconds;
  spec.measure_n = wl.txns_per_round();
  spec.slices = spec.measure_n > 0 ? 1 : kSlices;
  return spec;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics of an untraced run.

int RunEndToEnd(const Args& args, Checks& checks) {
  // A time-based workload runs once. A count-based one repeats identical
  // rounds (same inputs, fresh database), one set-up and one slice each, so
  // every slice sees the same table growth. The first round sets up
  // kSetupRepeats times and measures on the last database, for setup_s.
  std::vector<Slice> slices;
  std::vector<double> setups;
  uint64_t attempted = 0, failed = 0, committed = 0;
  for (int round = 0;; ++round) {
    std::unique_ptr<Workload> wl = MakeWorkload(args.workload, args.seed);
    const bool by_count = wl->txns_per_round() > 0;
    const int rounds =
        by_count ? std::max(1, static_cast<int>(args.seconds / kSecondsPerRound))
                 : 1;
    Bench bench(args, wl.get());
    std::unique_ptr<client::Database> db;
    for (int i = 0; i < (round == 0 ? kSetupRepeats : 1); ++i) {
      setups.push_back(bench.Setup(&db, false));
    }
    Status s = wl->Begin(*db);
    if (!s.ok()) Die("begin: " + s.ToString());
    auto session = db->CreateSession(wl->session_options());
    LoopResult r = RunLoop(*wl, *session, checks, MeasuredPhase(*wl, args.seconds));
    session.reset();
    bench.Finish(&db, false, checks);
    attempted += r.attempted;
    failed += r.failed;
    committed += r.committed;
    for (Slice& c : r.slices) slices.push_back(std::move(c));
    if (round + 1 >= rounds) break;
  }

  // Each metric is the median of its per-slice values, which keeps a burst
  // of interference in a few slices of the run from moving the result.
  std::vector<Metric> metrics = {
      {"throughput_tps", SliceMedian(slices, Tps), "1/s"},
      {"latency_p50_us",
       SliceMedian(slices,
                   [](const Slice& c) { return Quantile(c.latency_us, 0.50); }),
       "us"},
      {"cpu_us_per_txn",
       SliceMedian(slices,
                   [](const Slice& c) {
                     return c.cpu_s * 1e6 /
                            static_cast<double>(c.latency_us.size());
                   }),
       "us"},
      {"setup_s", Median(setups), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  std::printf("%s: %llu measured commits in %zu slices\n",
              args.workload.c_str(), static_cast<unsigned long long>(committed),
              slices.size());
  PrintSlices(slices);
  std::printf("set-ups (s):");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  Print(checks, attempted, failed, metrics);
  return checks.ok() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.

/// Spans of one traced root, parsed back from DumpTraces().
struct TracedRoot {
  bool committed = false;
  double submit = -1, dispatch = -1, validate = -1, install = -1,
         finalize = -1;
  std::vector<std::pair<uint32_t, double>> call_send, call_done;
};

/// Parses the retained section of TraceStore::DumpJson().
std::vector<TracedRoot> ParseTraces(const std::string& dump) {
  std::vector<TracedRoot> roots;
  const char* p = dump.c_str();
  const char* end = std::strstr(p, "\"recent\"");
  if (end == nullptr) end = p + dump.size();
  while ((p = std::strstr(p, "{\"root_id\":")) != nullptr && p < end) {
    TracedRoot t;
    const char* c = std::strstr(p, "\"committed\":");
    t.committed = c != nullptr && std::strncmp(c + 12, "true", 4) == 0;
    const char* spans_end = std::strstr(p, "]}");
    const char* s = std::strstr(p, "\"spans\":[");
    while (s != nullptr && (s = std::strstr(s, "{\"span\":\"")) != nullptr &&
           s < spans_end) {
      s += 9;
      const char* q = std::strchr(s, '"');
      std::string kind(s, static_cast<size_t>(q - s));
      const char* tp = std::strstr(q, "\"t_us\":");
      double t_us = std::strtod(tp + 7, nullptr);
      const char* dp = std::strstr(q, "\"detail\":");
      auto detail = static_cast<uint32_t>(std::strtoul(dp + 9, nullptr, 10));
      if (kind == "submit") t.submit = t_us;
      else if (kind == "dispatch") t.dispatch = t_us;
      else if (kind == "validate") t.validate = t_us;
      else if (kind == "install") t.install = t_us;
      else if (kind == "finalize") t.finalize = t_us;
      else if (kind == "call_send") t.call_send.emplace_back(detail, t_us);
      else if (kind == "call_done") t.call_done.emplace_back(detail, t_us);
      s = dp;
    }
    roots.push_back(std::move(t));
    p = spans_end;
  }
  return roots;
}

/// Per-layer medians of the traced run.
struct TraceFold {
  double submit_to_dispatch = 0, proc_body = 0, commit = 0, finalize = 0,
         call_roundtrip = 0, delivery = 0, residual = 0;
  size_t roots = 0, matched = 0;
};

TraceFold FoldTraces(std::vector<TracedRoot> roots,
                     const std::vector<ClientSample>& samples) {
  std::vector<double> s2d, body, commit, fin, call, delivery, observed;
  for (const TracedRoot& t : roots) {
    for (const auto& [id, sent] : t.call_send) {
      for (const auto& [done_id, done] : t.call_done) {
        if (done_id == id) call.push_back(done - sent);
      }
    }
    if (!t.committed || t.submit < 0 || t.dispatch < 0 || t.validate < 0 ||
        t.install < 0 || t.finalize < 0) {
      continue;
    }
    s2d.push_back(t.dispatch - t.submit);
    body.push_back(t.validate - t.dispatch);
    commit.push_back(t.install - t.validate);
    fin.push_back(t.finalize - t.install);
  }
  // A client sample owns the root whose submit stamp falls inside its
  // Submit call; the single client thread makes those intervals disjoint.
  // Retried transactions (several roots) are left out.
  std::sort(roots.begin(), roots.end(),
            [](const TracedRoot& a, const TracedRoot& b) {
              return a.submit < b.submit;
            });
  size_t j = 0;
  for (const ClientSample& c : samples) {
    while (j < roots.size() && roots[j].submit < c.submit_begin) ++j;
    size_t k = j;
    while (k < roots.size() && roots[k].submit <= c.submit_end) ++k;
    if (k != j + 1 || !c.first_attempt || !roots[j].committed ||
        roots[j].finalize < 0) {
      continue;
    }
    delivery.push_back(c.done - roots[j].finalize);
    observed.push_back(c.done - c.submit_begin);
  }
  TraceFold f;
  f.roots = roots.size();
  f.matched = delivery.size();
  f.submit_to_dispatch = Median(s2d);
  f.proc_body = Median(body);
  f.commit = Median(commit);
  f.finalize = Median(fin);
  f.call_roundtrip = Median(call);
  f.delivery = Median(delivery);
  f.residual = Median(observed) - (f.submit_to_dispatch + f.proc_body +
                                   f.commit + f.finalize + f.delivery);
  return f;
}

/// Sum of every series named `name` (all label sets).
double Total(const obs::StatsSnapshot& snap, const char* name) {
  double sum = 0;
  for (const obs::MetricSample& m : snap.samples) {
    if (m.name == name) sum += m.value;
  }
  return sum;
}

double Max(const obs::StatsSnapshot& snap, const char* name) {
  double hw = 0;
  for (const obs::MetricSample& m : snap.samples) {
    if (m.name == name) hw = std::max(hw, m.value);
  }
  return hw;
}

/// Median of the samples added to `after` since `before`.
double DeltaMedian(const Histogram& before, const Histogram& after) {
  Histogram delta;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    delta.AccumulateBucket(i, after.bucket_count(i) - before.bucket_count(i));
  }
  return delta.Median();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int RunLayers(const Args& args, Checks& checks) {
  std::unique_ptr<Workload> owned = MakeWorkload(args.workload, args.seed);
  Workload& wl = *owned;
  const double half = args.seconds / 2;
  uint64_t attempted = 0, failed = 0;

  // Untraced run: call timings, counter deltas, probes.
  Bench bench(args, &wl);
  std::unique_ptr<client::Database> db;
  bench.Setup(&db, false);
  Status s = wl.Begin(*db);
  if (!s.ok()) Die("begin: " + s.ToString());
  auto session = db->CreateSession(wl.session_options());
  obs::StatsSnapshot snap0, snap1;
  client::SessionStats sess0, sess1;
  LoopSpec spec = MeasuredPhase(wl, half);
  spec.on_begin = [&] {
    snap0 = db->Stats();
    sess0 = session->stats();
  };
  spec.on_end = [&] {
    snap1 = db->Stats();
    sess1 = session->stats();
  };
  LoopResult r = RunLoop(wl, *session, checks, spec);
  session.reset();
  attempted += r.attempted;
  failed += r.failed;
  double untraced_tps = SliceMedian(r.slices, Tps);

  auto delta = [&](const char* name) {
    return Total(snap1, name) - Total(snap0, name);
  };
  double committed = delta("reactdb_txn_committed_total");
  double aborted = delta("reactdb_txn_aborted_total");
  double sent = delta("reactdb_transport_sent_total");

  // Window-1 round trips of the workload's read-only point transaction.
  std::vector<double> w1;
  {
    client::SessionOptions o;
    o.max_outstanding = 1;
    auto probe = db->CreateSession(o);
    for (int i = 0; i < kProbeOps; ++i) {
      Request req = wl.Probe();
      double t0 = NowUs();
      client::TxnOutcome out =
          probe->Submit(req.reactor, req.proc, std::move(req.args)).Wait();
      double t1 = NowUs();
      ++attempted;
      if (!wl.ProbeDone(out.result, checks)) ++failed;
      if (i >= kProbeOps / 10) w1.push_back(t1 - t0);
    }
  }
  // Direct point transactions: storage and txn layers, no runtime.
  std::vector<double> direct;
  for (int i = 0; i < kProbeOps; ++i) {
    double t0 = NowUs();
    Status st = wl.DirectPointTxn(*db);
    double t1 = NowUs();
    ++attempted;
    if (!st.ok()) ++failed;
    if (i >= kProbeOps / 10) direct.push_back(t1 - t0);
  }
  bench.Finish(&db, false, checks);
  db.reset();

  // Traced run: a fresh database and the same input stream from its start.
  std::unique_ptr<Workload> twl = MakeWorkload(args.workload, args.seed);
  Bench tbench(args, twl.get());
  tbench.Setup(&db, true);
  s = twl->Begin(*db);
  if (!s.ok()) Die("begin: " + s.ToString());
  session = db->CreateSession(twl->session_options());
  LoopSpec tspec = MeasuredPhase(*twl, half);
  tspec.keep_samples = true;
  LoopResult tr = RunLoop(*twl, *session, checks, tspec);
  session.reset();
  attempted += tr.attempted;
  failed += tr.failed;
  TraceFold fold = FoldTraces(ParseTraces(db->DumpTraces()), tr.samples);
  tbench.Finish(&db, true, checks);
  db.reset();
  double traced_tps = SliceMedian(tr.slices, Tps);

  std::printf("%s: %zu traced roots, %zu matched to client samples\n",
              args.workload.c_str(), fold.roots, fold.matched);
  std::vector<Metric> metrics = {
      {"client.submit_call_us", Median(r.submit_us), "us"},
      {"client.delivery_us", fold.delivery, "us"},
      {"client.roundtrip_w1_us", Median(w1), "us"},
      {"client.retries_per_txn",
       Ratio(static_cast<double>(sess1.retried - sess0.retried),
             static_cast<double>(sess1.committed - sess0.committed)),
       "1"},
      {"runtime.submit_to_dispatch_us", fold.submit_to_dispatch, "us"},
      {"runtime.finalize_us", fold.finalize, "us"},
      {"reactor.proc_body_us", fold.proc_body, "us"},
      {"reactor.call_roundtrip_us", fold.call_roundtrip, "us"},
      {"transport.msgs_per_txn", Ratio(sent, committed), "1"},
      {"transport.msgs_per_batch",
       Ratio(sent, delta("reactdb_transport_batches_total")), "1"},
      {"transport.wire_bytes_per_txn",
       Ratio(delta("reactdb_transport_wire_bytes_total"), committed), "B"},
      {"transport.mailbox_depth_hw", Max(snap1, "reactdb_mailbox_depth_hw"),
       "1"},
      {"txn.commit_us", fold.commit, "us"},
      {"txn.commit_ratio", Ratio(committed, committed + aborted), "1"},
      {"txn.multi_container_per_txn",
       Ratio(delta("reactdb_txn_multi_container_total"), committed), "1"},
      {"txn.arena_used_hw_bytes", Max(snap1, "reactdb_arena_used_bytes_hw"),
       "B"},
      {"storage.direct_point_txn_us", Median(direct), "us"},
      {"log.bytes_per_txn",
       Ratio(delta("reactdb_log_bytes_written_total"), committed), "B"},
      {"log.txns_per_fsync",
       Ratio(committed, delta("reactdb_log_fsyncs_total")), "1"},
      {"log.durable_lag_us",
       DeltaMedian(sess0.durable_lag_us, sess1.durable_lag_us), "us"},
      {"obs.residual_us", fold.residual, "us"},
      {"obs.trace_overhead_ratio", Ratio(traced_tps, untraced_tps), "1"},
  };
  Print(checks, attempted, failed, metrics);
  return checks.ok() ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--data-root <dir>] [--perturb <check>] "
               "[--list-checks]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench
}  // namespace reactdb

int main(int argc, char** argv) {
  using namespace reactdb::perfbench;  // NOLINT(build/namespaces)
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--list-checks") {
      args.list_checks = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--data-root") {
      args.data_root = value;
    } else if (flag == "--perturb") {
      args.perturb = value;
    } else {
      return Usage();
    }
  }
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload, args.seed);
  if (wl == nullptr || !(args.seconds > 0)) return Usage();
  std::vector<std::string> names = wl->check_names();
  const int cpus = wl->durable() ? kDurableCpus : kCpus;
  if (args.list_checks) {
    for (const std::string& n : names) std::printf("%s\n", n.c_str());
    return 0;
  }
  if (!args.perturb.empty() &&
      std::find(names.begin(), names.end(), args.perturb) == names.end()) {
    std::fprintf(stderr, "unknown check %s\n", args.perturb.c_str());
    return 2;
  }
  wl.reset();
  Checks checks(args.perturb);
  PinToCpus(cpus);
  return args.trace ? RunLayers(args, checks) : RunEndToEnd(args, checks);
}
