#include "src/log/durability.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <system_error>

#include "src/util/logging.h"

namespace reactdb {
namespace log {

namespace fs = std::filesystem;

StatusOr<std::string> ReadFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return Status::IOError("read " + path + ": " + std::strerror(err));
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

namespace {

Status WriteAllRaw(int fd, std::string_view data, const std::string& what) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write " + what + ": " + std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

// The hooked variants behave exactly like a failing device: a non-OK hook
// result is the write/fsync error, and a short write lands its prefix on
// disk for real (the torn frame recovery later truncates).
Status WriteAll(int fd, std::string_view data, const std::string& what,
                const FileFaultHook& hook) {
  if (hook) {
    FileFault f{FileFault::Op::kWrite, what, data.size(), 0};
    Status s = hook(&f);
    if (!s.ok()) {
      if (f.allow_bytes > 0) {
        WriteAllRaw(fd, data.substr(0, std::min(f.allow_bytes, data.size())),
                    what);
      }
      return s;
    }
  }
  return WriteAllRaw(fd, data, what);
}

Status FsyncFd(int fd, const std::string& what, const FileFaultHook& hook) {
  if (hook) {
    FileFault f{FileFault::Op::kFsync, what, 0, 0};
    REACTDB_RETURN_IF_ERROR(hook(&f));
  }
  if (::fsync(fd) != 0) {
    return Status::IOError("fsync " + what + ": " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

Status WriteFileSync(const std::string& path, std::string_view data,
                     const FileFaultHook& hook) {
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  Status s = WriteAll(fd, data, path, hook);
  if (s.ok()) s = FsyncFd(fd, path, hook);
  ::close(fd);
  return s;
}

Status FsyncDir(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IOError("open dir " + path + ": " + std::strerror(errno));
  }
  Status s = FsyncFd(fd, path, {});
  ::close(fd);
  return s;
}

DurabilityManager::DurabilityManager(EpochManager* epochs, int num_containers,
                                     int executors_per_container,
                                     DurabilityOptions options)
    : epochs_(epochs),
      num_containers_(num_containers),
      executors_per_container_(executors_per_container),
      options_(std::move(options)) {
  REACTDB_CHECK(!options_.data_dir.empty());
  sweep_slot_ = epochs_->RegisterSlot();
  int total_executors = num_containers_ * executors_per_container_;
  for (int i = 0; i <= total_executors; ++i) {  // + trailing direct shard
    shards_.push_back(std::make_unique<LogShard>(options_.shard_buffer_bytes));
  }
  segments_.resize(static_cast<size_t>(num_containers_));
  for (int c = 0; c < num_containers_; ++c) {
    logs_.push_back(std::make_unique<ContainerLog>());
  }
}

DurabilityManager::~DurabilityManager() {
  StopWriters();
  for (auto& cl : logs_) {
    std::lock_guard<std::mutex> lock(cl->mu);
    CloseActiveSegmentLocked(cl.get());
  }
}

std::string DurabilityManager::log_dir() const {
  return options_.data_dir + "/log";
}

std::string DurabilityManager::SegmentPath(int container, uint64_t seq) const {
  char name[64];
  std::snprintf(name, sizeof(name), "c%d_%06llu.log", container,
                static_cast<unsigned long long>(seq));
  return log_dir() + "/" + name;
}

std::string DurabilityManager::NextCheckpointDir() const {
  return options_.data_dir + "/ckpt_" + std::to_string(next_checkpoint_seq_);
}

Status DurabilityManager::OpenStorage() {
  std::error_code ec;
  fs::create_directories(log_dir(), ec);
  if (ec) {
    return Status::IOError("create " + log_dir() + ": " + ec.message());
  }

  // --- Log segments: facts only (records replay later, filtered by the
  // recovered durable epoch). Every c*_*.log is scanned regardless of the
  // *current* container count: records address relations by
  // (ReactorId, TableSlot), so segments written under a different
  // DeploymentConfig replay fine — silently skipping them would drop
  // committed data on a re-deployment with fewer containers. Segments of
  // out-of-range containers are grouped under container 0 for truncation
  // bookkeeping; their seals still constrain the durable epoch under the
  // id they were written as.
  uint64_t any_records = 0;
  std::map<int, uint64_t> file_seals;  // writing-run container id -> seal
  for (const fs::directory_entry& entry : fs::directory_iterator(log_dir())) {
    int container = -1;
    unsigned long long seq = 0;
    const std::string name = entry.path().filename().string();
    if (std::sscanf(name.c_str(), "c%d_%llu.log", &container, &seq) != 2 ||
        container < 0) {
      continue;
    }
    REACTDB_ASSIGN_OR_RETURN(std::string data, ReadFile(entry.path().string()));
    StatusOr<logrec::ScanResult> scan = logrec::ScanFrames(data, nullptr);
    if (!scan.ok()) {
      return Status(scan.status().code(),
                    entry.path().string() + ": " + scan.status().message());
    }
    SegmentRef ref;
    ref.path = entry.path().string();
    ref.seq = seq;
    ref.max_record_epoch = scan->max_record_epoch;
    ref.max_seal_epoch = scan->max_seal_epoch;
    int group = container < num_containers_ ? container : 0;
    segments_[static_cast<size_t>(group)].push_back(std::move(ref));
    if (scan->frames > 0) {
      uint64_t& seal = file_seals[container];
      seal = std::max(seal, scan->max_seal_epoch);
    }
    any_records += scan->records;
    recovered_max_epoch_ =
        std::max(recovered_max_epoch_, scan->max_record_epoch);
  }
  for (auto& per_container : segments_) {
    std::sort(per_container.begin(), per_container.end(),
              [](const SegmentRef& a, const SegmentRef& b) {
                return a.seq < b.seq;
              });
  }
  // min over (writing-run) containers that ever sealed a frame: a
  // container with no frames provably flushed no records, so it
  // constrains nothing.
  uint64_t durable = ~0ULL;
  for (const auto& [container, seal] : file_seals) durable =
      std::min(durable, seal);
  recovered_durable_ = file_seals.empty() ? 0 : durable;

  // --- Checkpoints: pick the latest directory with a committed MANIFEST.
  for (const fs::directory_entry& entry :
       fs::directory_iterator(options_.data_dir)) {
    if (!entry.is_directory()) continue;
    unsigned long long seq = 0;
    const std::string name = entry.path().filename().string();
    if (std::sscanf(name.c_str(), "ckpt_%llu", &seq) != 1) continue;
    next_checkpoint_seq_ =
        std::max(next_checkpoint_seq_, static_cast<uint64_t>(seq) + 1);
    const std::string manifest_path = (entry.path() / "MANIFEST").string();
    if (!fs::exists(manifest_path)) continue;  // crashed mid-checkpoint
    REACTDB_ASSIGN_OR_RETURN(std::string manifest, ReadFile(manifest_path));
    uint64_t ckpt_epoch = 0;
    uint64_t ckpt_max_epoch = 0;
    uint32_t data_crc = 0;
    uint64_t data_bytes = 0;
    Status parsed = Status::OK();
    StatusOr<logrec::ScanResult> scan = logrec::ScanFrames(
        manifest, [&](const logrec::FrameInfo& frame) -> Status {
          wire::Reader r(frame.payload);
          REACTDB_ASSIGN_OR_RETURN(ckpt_epoch, r.ReadU64());
          REACTDB_ASSIGN_OR_RETURN(ckpt_max_epoch, r.ReadU64());
          REACTDB_ASSIGN_OR_RETURN(data_crc, r.ReadU32());
          REACTDB_ASSIGN_OR_RETURN(data_bytes, r.ReadU64());
          return Status::OK();
        });
    if (!scan.ok()) parsed = scan.status();
    if (parsed.ok() && scan->frames != 1) {
      parsed = Status::IOError("manifest without a complete frame");
    }
    if (!parsed.ok()) {
      return Status::IOError(manifest_path + ": " + parsed.message());
    }
    const std::string data_path = (entry.path() / "data.ckp").string();
    if (!fs::exists(data_path)) {
      // A crash mid-GC of a *superseded* checkpoint can unlink data.ckp
      // before its manifest (remove_all order is unspecified, even though
      // OnCheckpointCommitted unlinks the manifest first to shrink this
      // window): a manifest with no data at all is a deletion artifact,
      // not corruption — skip the directory, a newer checkpoint exists.
      continue;
    }
    REACTDB_ASSIGN_OR_RETURN(std::string data, ReadFile(data_path));
    if (data.size() != data_bytes || logrec::Crc32(data) != data_crc) {
      return Status::IOError(data_path +
                             ": checkpoint data does not match its manifest");
    }
    if (checkpoint_dir_.empty() || ckpt_epoch >= checkpoint_epoch_) {
      checkpoint_dir_ = entry.path().string();
      checkpoint_epoch_ = ckpt_epoch;
      recovered_max_epoch_ = std::max(recovered_max_epoch_, ckpt_max_epoch);
    }
  }

  found_state_ = !checkpoint_dir_.empty() || any_records > 0;
  return Status::OK();
}

void DurabilityManager::CloseActiveSegmentLocked(ContainerLog* cl) {
  if (cl->fd < 0) return;
  ::close(cl->fd);
  cl->fd = -1;
}

Status DurabilityManager::OpenActiveSegment(int c, uint64_t seq,
                                            uint64_t seed_seal) {
  ContainerLog* cl = logs_[static_cast<size_t>(c)].get();
  const std::string path = SegmentPath(c, seq);
  int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  // Seed frame: gives every opened container a frame so an idle one never
  // pins the durable watermark at recovery. The seal is the caller's:
  // min_active-1 at startup (the shards are provably empty, so the claim
  // is vacuous for this new file), but on a checkpoint roll only the
  // container's previous written seal — shards may hold uncollected
  // records of older epochs that will land in *this* file, and a fresher
  // seal would declare them durable while they are still only in memory.
  uint64_t seal_m1 = seed_seal;
  std::string frame;
  logrec::AppendFrame(&frame, "", 0, seal_m1, 0);
  Status s = WriteAll(fd, frame, path, options_.file_fault_hook);
  if (s.ok()) s = FsyncFd(fd, path, options_.file_fault_hook);
  // The new directory entry must survive power loss too — truncation may
  // delete predecessors whose seal this seed frame now carries.
  if (s.ok()) s = FsyncDir(log_dir());
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  cl->fd = fd;
  cl->active_seq = seq;
  cl->written_seal = seal_m1;
  cl->active_max_epoch = 0;
  cl->synced.store(std::max(cl->synced.load(std::memory_order_relaxed),
                            seal_m1),
                   std::memory_order_release);
  stats_.frames.fetch_add(1, std::memory_order_relaxed);
  stats_.fsyncs.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_written.fetch_add(frame.size(), std::memory_order_relaxed);
  return Status::OK();
}

Status DurabilityManager::StartActiveSegments() {
  for (int c = 0; c < num_containers_; ++c) {
    ContainerLog* cl = logs_[static_cast<size_t>(c)].get();
    std::lock_guard<std::mutex> lock(cl->mu);
    // Everything found by OpenStorage is closed from now on: recovery has
    // consumed it and new appends go to a fresh sequence number.
    cl->closed = std::move(segments_[static_cast<size_t>(c)]);
    uint64_t next_seq = 1;
    for (const SegmentRef& seg : cl->closed) {
      next_seq = std::max(next_seq, seg.seq + 1);
    }
    uint64_t seal = epochs_->min_active_epoch();
    REACTDB_RETURN_IF_ERROR(
        OpenActiveSegment(c, next_seq, seal == 0 ? 0 : seal - 1));
  }
  PublishDurable(ComputeDurable());
  return Status::OK();
}

uint64_t DurabilityManager::max_appended_epoch() const {
  uint64_t e = 0;
  for (const auto& shard : shards_) e = std::max(e, shard->max_epoch());
  return e;
}

Status DurabilityManager::io_status() const {
  std::lock_guard<std::mutex> lock(error_mu_);
  return io_error_;
}

void DurabilityManager::LatchError(const Status& s) {
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (io_error_.ok()) io_error_ = s;
  }
  halted_.store(true, std::memory_order_release);
  REACTDB_LOG(kError) << "durability halted: " << s;
  if (flight_ != nullptr) {
    flight_->RecordShared(obs::FlightEventKind::kIOError, durable_epoch(), 0,
                          s.message().c_str());
    flight_->TriggerAutoDump("io_error");
  }
  NotifyDurable(durable_epoch());  // release durable waiters
}

size_t DurabilityManager::AddListener(Listener listener) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  size_t id = next_listener_id_++;
  listeners_.emplace_back(id, std::move(listener));
  return id;
}

void DurabilityManager::RemoveListener(size_t id) {
  std::lock_guard<std::mutex> lock(listeners_mu_);
  for (size_t i = 0; i < listeners_.size(); ++i) {
    if (listeners_[i].first == id) {
      listeners_.erase(listeners_.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

void DurabilityManager::NotifyDurable(uint64_t durable) {
  {
    // Invoked while holding listeners_mu_ on purpose: RemoveListener then
    // doubles as a barrier — once it returns, the listener can never be
    // mid-flight (sessions unregister in their destructor). Listeners must
    // not call back into Add/RemoveListener.
    std::lock_guard<std::mutex> lock(listeners_mu_);
    for (const auto& [id, fn] : listeners_) fn(durable);
  }
  if (notify_progress_) notify_progress_();
}

void DurabilityManager::PublishDurable(uint64_t durable) {
  uint64_t cur = durable_epoch_.load(std::memory_order_acquire);
  bool advanced = false;
  while (durable > cur) {
    if (durable_epoch_.compare_exchange_weak(cur, durable,
                                             std::memory_order_acq_rel)) {
      advanced = true;
      break;
    }
  }
  if (advanced && flight_ != nullptr) {
    flight_->RecordShared(obs::FlightEventKind::kDurableAdvance,
                          durable_epoch());
  }
  if (advanced || halted()) NotifyDurable(durable_epoch());
}

uint64_t DurabilityManager::ComputeDurable() {
  uint64_t d = ~0ULL;
  for (const auto& cl : logs_) {
    d = std::min(d, cl->synced.load(std::memory_order_acquire));
  }
  return d == ~0ULL ? 0 : d;
}

Status DurabilityManager::FlushContainer(int c, uint64_t seal, uint64_t* bytes,
                                         uint32_t* fsyncs) {
  if (halted()) {
    Status s = io_status();
    return s.ok() ? Status::Unavailable("durability abandoned") : s;
  }
  ContainerLog* cl = logs_[static_cast<size_t>(c)].get();
  std::lock_guard<std::mutex> lock(cl->mu);
  if (cl->fd < 0) return Status::Internal("container log not open");
  uint64_t seal_m1 = seal == 0 ? 0 : seal - 1;

  cl->payload.clear();
  uint32_t records = 0;
  uint64_t frame_max = 0;
  auto collect = [&](LogShard* shard) {
    cl->spare.clear();
    LogShard::Collected got = shard->Collect(&cl->spare);
    if (!cl->spare.empty()) {
      cl->payload.append(cl->spare);
      records += got.records;
    }
    frame_max = std::max(frame_max, got.max_epoch);
  };
  for (int e = 0; e < executors_per_container_; ++e) {
    collect(shards_[static_cast<size_t>(c * executors_per_container_ + e)]
                .get());
  }
  if (c == 0) collect(direct_shard());

  // Watermark-only frames keep an idle container's seal moving (32 bytes
  // per epoch advance); with neither payload nor seal progress there is
  // nothing to make durable.
  if (cl->payload.empty() && seal_m1 <= cl->written_seal) return Status::OK();

  cl->spare.clear();
  logrec::AppendFrame(&cl->spare, cl->payload, records, seal_m1, frame_max);
  Status s = WriteAll(cl->fd, cl->spare, SegmentPath(c, cl->active_seq),
                      options_.file_fault_hook);
  if (s.ok()) s = FsyncFd(cl->fd, SegmentPath(c, cl->active_seq),
                          options_.file_fault_hook);
  if (!s.ok()) {
    LatchError(s);
    return s;
  }
  *bytes += cl->spare.size();
  *fsyncs += 1;
  cl->written_seal = std::max(cl->written_seal, seal_m1);
  cl->active_max_epoch = std::max(cl->active_max_epoch, frame_max);
  // Frame tee (trailing online auditor) before the synced release-store:
  // once ComputeDurable observes this container at seal_m1 — and a durable
  // listener consequently fires for some epoch <= seal_m1 — every teed
  // frame sealing up to it has been delivered. Teeing from memory rather
  // than tailing segment files keeps the auditor immune to checkpoint
  // truncation deleting segments underneath it.
  if (frame_tee_ != nullptr && !cl->payload.empty()) {
    frame_tee_(static_cast<uint32_t>(c), seal_m1, frame_max, cl->payload);
  }
  cl->synced.store(std::max(cl->synced.load(std::memory_order_relaxed),
                            seal_m1),
                   std::memory_order_release);
  stats_.frames.fetch_add(1, std::memory_order_relaxed);
  stats_.fsyncs.fetch_add(1, std::memory_order_relaxed);
  stats_.bytes_written.fetch_add(cl->spare.size(), std::memory_order_relaxed);
  stats_.records_logged.fetch_add(records, std::memory_order_relaxed);
  return Status::OK();
}

Status DurabilityManager::FlushRoundDeferred(uint64_t* pending_durable,
                                             uint64_t* bytes,
                                             uint32_t* fsyncs) {
  *bytes = 0;
  *fsyncs = 0;
  *pending_durable = durable_epoch();
  if (halted()) {
    Status s = io_status();
    return s.ok() ? Status::OK() : s;
  }
  stats_.flush_rounds.fetch_add(1, std::memory_order_relaxed);
  for (int attempt = 0; attempt < 2; ++attempt) {
    uint64_t seal = epochs_->min_active_epoch();
    for (int c = 0; c < num_containers_; ++c) {
      REACTDB_RETURN_IF_ERROR(FlushContainer(c, seal, bytes, fsyncs));
    }
    uint64_t durable = ComputeDurable();
    *pending_durable = durable;
    if (durable >= max_appended_epoch()) return Status::OK();
    // Commits are parked in the current epoch: force the group-commit
    // boundary so they seal on the retry.
    if (attempt == 0) epochs_->Advance();
  }
  return Status::OK();
}

Status DurabilityManager::FlushRound() {
  uint64_t pending = 0;
  uint64_t bytes = 0;
  uint32_t fsyncs = 0;
  Status s = FlushRoundDeferred(&pending, &bytes, &fsyncs);
  PublishDurable(pending);
  return s;
}

Status DurabilityManager::FinalFlush() {
  if (halted()) return io_status();
  // Each round can advance the epoch once; with no in-flight commits two
  // rounds normally suffice. Bounded for safety (a pinned executor slot
  // could stall min_active forever — callers quiesce first).
  for (int i = 0; i < 8; ++i) {
    REACTDB_RETURN_IF_ERROR(FlushRound());
    if (durable_epoch() >= max_appended_epoch()) return Status::OK();
  }
  return Status::Internal("final flush could not drain the log (epoch " +
                          std::to_string(durable_epoch()) + " < " +
                          std::to_string(max_appended_epoch()) + ")");
}

void DurabilityManager::StartWriters() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (writers_running_) return;
  writers_running_ = true;
  stop_writers_ = false;
  // One origin for every writer: round k of each container is due at
  // origin + k * interval, so a round's per-container seals land together.
  writer_origin_ = std::chrono::steady_clock::now();
  for (int c = 0; c < num_containers_; ++c) {
    logs_[static_cast<size_t>(c)]->thread =
        std::thread([this, c] { WriterLoop(c); });
  }
}

void DurabilityManager::StopWriters() {
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    if (!writers_running_) return;
    stop_writers_ = true;
  }
  for (auto& cl : logs_) cl->cv.notify_all();
  for (auto& cl : logs_) {
    if (cl->thread.joinable()) cl->thread.join();
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  writers_running_ = false;
}

void DurabilityManager::Kick(bool force) {
  // Writers wait for a flush request, a stop, or their flush timer; an
  // unforced kick satisfies none of these, so waking them would only cost
  // a context switch per commit per container.
  if (!force) return;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    flush_requested_ = true;
  }
  for (auto& cl : logs_) cl->cv.notify_all();
}

void DurabilityManager::WriterLoop(int c) {
  ContainerLog* cl = logs_[static_cast<size_t>(c)].get();
  auto interval = std::chrono::microseconds(
      static_cast<int64_t>(std::max(options_.flush_interval_us, 100.0)));
  std::chrono::steady_clock::time_point deadline = writer_origin_ + interval;
  for (;;) {
    // Once a slot has come due (whether a timer or a request woke the
    // round that served it), wait for the next one. A round whose work ran
    // past that one too skips to the first future slot: late rounds never
    // run back to back to catch up, and the schedule never shifts.
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      deadline += interval;
      if (now >= deadline) {
        stats_.round_overruns.fetch_add(1, std::memory_order_relaxed);
        deadline += (now - deadline) / interval * interval + interval;
      }
    }
    {
      std::unique_lock<std::mutex> lock(writer_mu_);
      cl->cv.wait_until(lock, deadline, [this] {
        return stop_writers_ || flush_requested_;
      });
      if (stop_writers_) return;
      // A halted manager seals nothing more and has released its durable
      // waiters; a request left standing would keep every writer spinning.
      if (halted()) flush_requested_ = false;
      if (!options_.auto_flush && !flush_requested_) continue;
    }
    if (halted()) continue;
    uint64_t seal = epochs_->min_active_epoch();
    uint64_t bytes = 0;
    uint32_t fsyncs = 0;
    if (!FlushContainer(c, seal, &bytes, &fsyncs).ok()) continue;
    stats_.flush_rounds.fetch_add(c == 0 ? 1 : 0, std::memory_order_relaxed);
    PublishDurable(ComputeDurable());
    // Group-commit boundary: when the watermark trails records parked in
    // the current epoch, force an advance so the next round seals them.
    // Container 0 drives this (N writers advancing would burn epochs N
    // times faster); under an explicit request the flag stays set until
    // the watermark caught up, so request rounds run back to back and a
    // WaitDurable caller converges even with auto_flush off.
    if (c == 0) {
      if (durable_epoch() < max_appended_epoch()) {
        epochs_->Advance();
      } else {
        std::lock_guard<std::mutex> lock(writer_mu_);
        flush_requested_ = false;
      }
    }
  }
}

void DurabilityManager::Abandon() {
  StopWriters();
  if (halted()) return;
  halted_.store(true, std::memory_order_release);
  std::string discard;
  for (auto& shard : shards_) {
    discard.clear();
    shard->Collect(&discard);  // unflushed bytes die here, as in a crash
  }
  for (auto& cl : logs_) {
    std::lock_guard<std::mutex> lock(cl->mu);
    CloseActiveSegmentLocked(cl.get());
  }
  NotifyDurable(durable_epoch());  // durable waiters stop waiting
}

Status DurabilityManager::OnCheckpointCommitted(uint64_t ckpt_epoch,
                                                const std::string& new_dir) {
  // Roll every container to a fresh segment so truncation only ever deletes
  // closed files, then drop segments fully covered by the checkpoint.
  if (flight_ != nullptr) {
    flight_->RecordShared(obs::FlightEventKind::kSegmentRoll, ckpt_epoch);
  }
  for (int c = 0; c < num_containers_; ++c) {
    ContainerLog* cl = logs_[static_cast<size_t>(c)].get();
    std::lock_guard<std::mutex> lock(cl->mu);
    SegmentRef closed;
    closed.path = SegmentPath(c, cl->active_seq);
    closed.seq = cl->active_seq;
    closed.max_record_epoch = cl->active_max_epoch;
    closed.max_seal_epoch = cl->written_seal;
    CloseActiveSegmentLocked(cl);
    uint64_t roll_seal = closed.max_seal_epoch;
    cl->closed.push_back(std::move(closed));
    // Seed with the *previous* seal: shards may still hold uncollected
    // records of epochs past it (a commit racing the checkpoint), destined
    // for this new segment — a min_active-based seal here would mark them
    // durable before they ever reach the disk.
    REACTDB_RETURN_IF_ERROR(
        OpenActiveSegment(c, cl->closed.back().seq + 1, roll_seal));
    std::vector<SegmentRef> keep;
    for (SegmentRef& seg : cl->closed) {
      if (seg.max_record_epoch <= ckpt_epoch) {
        std::error_code ec;
        fs::remove(seg.path, ec);  // best effort; a leftover is re-scanned
      } else {
        keep.push_back(std::move(seg));
      }
    }
    cl->closed = std::move(keep);
  }
  // Previous checkpoints (and manifest-less crash artifacts) are
  // superseded.
  for (const fs::directory_entry& entry :
       fs::directory_iterator(options_.data_dir)) {
    if (!entry.is_directory()) continue;
    unsigned long long seq = 0;
    if (std::sscanf(entry.path().filename().string().c_str(), "ckpt_%llu",
                    &seq) != 1) {
      continue;
    }
    if (entry.path().string() == new_dir) continue;
    std::error_code ec;
    // Manifest first: a crash mid-deletion then leaves a manifest-less
    // directory, which OpenStorage already ignores as a crash artifact.
    fs::remove(entry.path() / "MANIFEST", ec);
    fs::remove_all(entry.path(), ec);
  }
  // Persist the directory mutations (segment unlinks, checkpoint GC)
  // before reporting the checkpoint committed.
  REACTDB_RETURN_IF_ERROR(FsyncDir(log_dir()));
  REACTDB_RETURN_IF_ERROR(FsyncDir(options_.data_dir));
  checkpoint_dir_ = new_dir;
  checkpoint_epoch_ = ckpt_epoch;
  next_checkpoint_seq_++;
  return Status::OK();
}

}  // namespace log
}  // namespace reactdb
