// DurabilityManager: epoch group-commit logging and the durable-epoch
// watermark (the "log" third of ReactDB's Silo heritage).
//
// Layout on disk (under DurabilityOptions::data_dir):
//
//   log/c<container>_<seq>.log   append-only segment of epoch frames
//                                (src/log/log_record.h); the writer rolls
//                                to a new seq after every checkpoint
//   ckpt_<seq>/data.ckp          sweeping checkpoint (same frame format)
//   ckpt_<seq>/MANIFEST          written last — a checkpoint without a
//                                manifest is an ignored crash artifact
//
// Group-commit protocol. Redo records are appended to per-executor
// LogShards at Silo commit-install time, while the committing frame still
// pins its executor's epoch slot. A per-container LogWriter periodically
//
//   1. reads seal = EpochManager::min_active_epoch() — every record with
//      epoch < seal is already in some shard (the pin ordering above),
//   2. collects its container's shards, appends one checksummed frame
//      carrying seal-1, and fsyncs,
//   3. publishes synced[c] = seal-1; the global durable epoch is
//      min over containers of synced[c].
//
// A container with no traffic still writes (tiny) watermark-only frames
// while its seal trails the database's max appended epoch, so an idle
// container never pins the durable epoch — and at recovery the min over
// per-container seals is exactly the epoch up to which *every* container's
// records are complete, which is what makes cross-container transactions
// atomic under replay. When the watermark lags the max appended epoch
// (commits sitting in the current epoch), the writer forces an epoch
// advance — the group-commit boundary — so a wait_durable client converges
// without outside help.
//
// Drivers: ThreadRuntime starts one real writer thread per container
// (StartWriters/StopWriters) on a shared fixed-deadline schedule (see
// DurabilityOptions::flush_interval_us); SimRuntime schedules FlushRound as
// discrete events and charges CostParams::log_* virtual time before
// publishing the watermark (a simulated device — zero-cost by default).
//
// I/O failures latch a StatusCode::kIOError (io_status()) and halt the
// watermark instead of aborting the process; wait_durable delivery treats a
// halted manager as "stop waiting" so clients observe the error rather
// than hanging.

#ifndef REACTDB_LOG_DURABILITY_H_
#define REACTDB_LOG_DURABILITY_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/log/log_shard.h"
#include "src/obs/flight.h"
#include "src/txn/epoch.h"
#include "src/util/statusor.h"

namespace reactdb {
namespace log {

/// One fallible device operation, presented to the injectable file hook
/// before it runs (src/fault/ builds hooks from a seeded FaultInjector).
struct FileFault {
  enum class Op { kWrite, kFsync };
  Op op;
  /// Path (or label) of the target file.
  std::string what;
  /// Size of the write; 0 for fsync.
  size_t bytes = 0;
  /// A failing write hook may set this: bytes actually written before the
  /// "device" failed, leaving a torn frame on disk for recovery to
  /// truncate.
  size_t allow_bytes = 0;
};

/// Returns OK to let the real I/O proceed; a non-OK status is treated
/// exactly like a device failure (the durability manager latches it as
/// kIOError and halts the watermark).
using FileFaultHook = std::function<Status(FileFault*)>;

struct DurabilityOptions {
  /// Root of the persistent state; must be non-empty.
  std::string data_dir;
  /// Writer cadence: real microseconds between flush rounds on
  /// ThreadRuntime, virtual microseconds of kick-to-flush delay on
  /// SimRuntime (the group-commit window).
  ///
  /// On ThreadRuntime the rounds run on fixed deadlines shared by every
  /// writer: StartWriters takes one origin, and round k of each container
  /// is due at origin + k * interval (at least 100 us), however long a
  /// round takes. A round whose work (frame write, fsync, and — on the
  /// writer that advances the durable epoch — every durable listener,
  /// session deliveries included) runs past the next deadline skips to the
  /// first future slot instead of running late rounds back to back, and
  /// counts in DurabilityStats::round_overruns. A flush request (Kick with
  /// `force`, WaitDurable, final flush) wakes the writers early without
  /// moving the schedule.
  double flush_interval_us = 2000;
  /// Reserve of each per-executor shard buffer (steady-state appends never
  /// touch the allocator below this high-water mark).
  size_t shard_buffer_bytes = LogShard::kDefaultReserveBytes;
  /// Test hook: when false, writers flush only on request (Kick with
  /// flush_requested, WaitDurable, final flush) — lets the recovery tests
  /// place the crash point "before fsync" deterministically.
  bool auto_flush = true;
  /// Fault-injection hook consulted before every segment/checkpoint write
  /// and fsync; empty = no injection (zero overhead on the real path).
  FileFaultHook file_fault_hook;
};

struct DurabilityStats {
  std::atomic<uint64_t> flush_rounds{0};
  std::atomic<uint64_t> frames{0};
  std::atomic<uint64_t> fsyncs{0};
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> records_logged{0};
  /// Times a ThreadRuntime writer (any container) came back to wait with
  /// the next round's deadline already past and skipped to a later slot:
  /// its round's work (fsync plus durable listeners) no longer fits
  /// flush_interval_us, or the host stalled it.
  std::atomic<uint64_t> round_overruns{0};
};

/// One closed or active log segment file of a container.
struct SegmentRef {
  std::string path;
  uint64_t seq = 0;
  /// Upper bound on the epochs of records in the file (exact seal fields
  /// are inside the frames; this drives truncation).
  uint64_t max_record_epoch = 0;
  /// Max seal epoch of any complete frame (recovery watermark).
  uint64_t max_seal_epoch = 0;
};

class DurabilityManager {
 public:
  /// `epochs` must outlive the manager. `executors_per_container` shards
  /// per container are created, plus one "direct" shard (RunDirect bulk
  /// loads) collected with container 0.
  DurabilityManager(EpochManager* epochs, int num_containers,
                    int executors_per_container, DurabilityOptions options);
  ~DurabilityManager();

  DurabilityManager(const DurabilityManager&) = delete;
  DurabilityManager& operator=(const DurabilityManager&) = delete;

  // --- Startup (Database::Open orchestrates) --------------------------------

  /// Creates the directory tree if needed and scans existing segments and
  /// checkpoints (facts only; no records are applied). Corrupt frames in
  /// the middle of a segment surface as kIOError; torn tails are noted for
  /// truncation.
  Status OpenStorage();

  /// True when OpenStorage found a committed checkpoint or any log frame —
  /// i.e. recovery will reconstruct state and the caller must not bulk-load
  /// again.
  bool found_state() const { return found_state_; }
  /// min over containers of their recovered seal (the epoch recovery
  /// replays to). Containers that never wrote a frame contribute nothing —
  /// they provably hold no records.
  uint64_t recovered_durable_epoch() const { return recovered_durable_; }
  /// Upper bound of any record epoch on disk (TID re-seeding).
  uint64_t recovered_max_epoch() const { return recovered_max_epoch_; }
  const std::vector<std::vector<SegmentRef>>& segments() const {
    return segments_;
  }
  /// Latest committed checkpoint ("" when none) and its manifest epoch.
  const std::string& checkpoint_dir() const { return checkpoint_dir_; }
  uint64_t checkpoint_epoch() const { return checkpoint_epoch_; }

  /// Opens a fresh active segment per container (after recovery replay, so
  /// recovered segments are never appended to). Seeds the watermark from
  /// the recovered seals.
  Status StartActiveSegments();

  // --- Appender surface ------------------------------------------------------

  LogShard* shard(uint32_t executor) { return shards_[executor].get(); }
  /// Shard of RunDirect transactions (no executor); flushed with
  /// container 0.
  LogShard* direct_shard() { return shards_.back().get(); }

  // --- Watermark -------------------------------------------------------------

  uint64_t durable_epoch() const {
    return durable_epoch_.load(std::memory_order_acquire);
  }
  /// Max epoch of any record appended to any shard this run.
  uint64_t max_appended_epoch() const;
  /// True after CrashForTest/Abandon or a latched I/O error: the watermark
  /// will not advance again; durable waiters must stop waiting.
  bool halted() const { return halted_.load(std::memory_order_acquire); }
  Status io_status() const;

  /// Listeners run on the flushing context after every durable-epoch
  /// advance and once on halt: on ThreadRuntime, the thread of whichever
  /// writer published the advance (so their time, wait_durable session
  /// deliveries included, is part of that writer's round); on SimRuntime,
  /// the flush event.
  using Listener = std::function<void(uint64_t durable_epoch)>;
  size_t AddListener(Listener listener);
  void RemoveListener(size_t id);
  /// Hook into RuntimeBase::NotifyClientProgress (wakes ClientWait-ers).
  void set_notify_progress(std::function<void()> fn) {
    notify_progress_ = std::move(fn);
  }
  /// Flight recorder (may be null). The manager records kDurableAdvance on
  /// every watermark move, kSegmentRoll on checkpoint rolls, and kIOError —
  /// with an automatic dump — when an I/O error latches. Install before
  /// the writers start.
  void set_flight(obs::FlightRecorder* flight) { flight_ = flight; }

  /// In-memory frame tee (the trailing online auditor). Invoked on the
  /// flushing context for every frame that reached disk, under the
  /// container's log mutex, *before* the container's synced watermark
  /// advances — so when a durable-epoch listener fires for epoch E, every
  /// frame sealing <= E has already been teed. Must be set before
  /// StartWriters / the first flush, and must not call back into the
  /// manager. The payload view is only valid for the duration of the call.
  using FrameTee = std::function<void(uint32_t container, uint64_t seal_epoch,
                                      uint64_t max_epoch,
                                      std::string_view payload)>;
  void set_frame_tee(FrameTee tee) { frame_tee_ = std::move(tee); }

  // --- Flush drivers ---------------------------------------------------------

  /// Starts one writer thread per container (ThreadRuntime).
  void StartWriters();
  /// Stops and joins the writer threads. No final flush — callers that
  /// want one run FinalFlush() afterwards.
  void StopWriters();
  /// With `force`, requests a flush (even when auto_flush is off) and wakes
  /// the writer threads (thread mode). Without it this is a no-op: the
  /// writers flush on their own timer.
  void Kick(bool force = false);

  /// One synchronous flush round over every container, forcing an epoch
  /// advance (and one retry) when the watermark would lag the max appended
  /// epoch. Publishes the watermark inline. Not thread-safe against
  /// running writers — for SimRuntime, tests, and post-join flushing.
  Status FlushRound();
  /// FlushRound that defers watermark publication: `*pending_durable` is
  /// the watermark to publish and `*bytes`/`*fsyncs` the device work of the
  /// round, so the simulator can charge CostParams::log_* virtual time
  /// before calling PublishDurable.
  Status FlushRoundDeferred(uint64_t* pending_durable, uint64_t* bytes,
                            uint32_t* fsyncs);
  void PublishDurable(uint64_t durable);

  /// Loops FlushRound until every appended record is durable (clean
  /// shutdown). No-op when halted.
  Status FinalFlush();

  /// Simulates a crash: joins writers, drops unflushed shard bytes, closes
  /// files, halts the watermark, and releases blocked waiters. Idempotent.
  void Abandon();

  // --- Checkpoint support ----------------------------------------------------

  const DurabilityOptions& options() const { return options_; }
  std::string log_dir() const;
  /// Directory for the next checkpoint (ckpt_<seq>, not yet committed).
  std::string NextCheckpointDir() const;
  /// Epoch slot the sweeping checkpointer pins during table walks.
  size_t sweep_slot() const { return sweep_slot_; }
  /// After a checkpoint manifest at `ckpt_epoch` committed: rolls every
  /// container to a fresh segment, deletes closed segments whose records
  /// are all <= ckpt_epoch (covered by the checkpoint), and deletes
  /// superseded checkpoint directories.
  Status OnCheckpointCommitted(uint64_t ckpt_epoch,
                               const std::string& new_dir);

  const DurabilityStats& stats() const { return stats_; }
  int num_containers() const { return num_containers_; }

 private:
  struct ContainerLog {
    std::mutex mu;  // guards fd/segments/written_seal against roll/truncate
    int fd = -1;
    uint64_t active_seq = 0;
    /// Seal epoch of the last frame written to the active segment.
    uint64_t written_seal = 0;
    /// Upper bound of record epochs in the active segment.
    uint64_t active_max_epoch = 0;
    /// Closed + active segments, seq order (facts for truncation).
    std::vector<SegmentRef> closed;
    /// Writer-local recycled buffers (swap targets / frame payload).
    std::string spare;
    std::string payload;
    // Writer thread state.
    std::thread thread;
    std::condition_variable cv;
    std::atomic<uint64_t> synced{0};
  };

  std::string SegmentPath(int container, uint64_t seq) const;
  /// Collects `c`'s shards and writes + fsyncs one frame when there is
  /// payload or the seal advanced past data not yet covered. Updates
  /// synced[c]. Caller holds no locks.
  Status FlushContainer(int c, uint64_t seal, uint64_t* bytes,
                        uint32_t* fsyncs);
  /// Recomputes min over synced and returns it (does not publish).
  uint64_t ComputeDurable();
  void NotifyDurable(uint64_t durable);
  void WriterLoop(int c);
  void LatchError(const Status& s);
  Status OpenActiveSegment(int c, uint64_t seq, uint64_t seed_seal);
  void CloseActiveSegmentLocked(ContainerLog* cl);

  EpochManager* epochs_;
  const int num_containers_;
  const int executors_per_container_;
  DurabilityOptions options_;
  size_t sweep_slot_ = 0;

  /// One per executor, plus the trailing direct shard.
  std::vector<std::unique_ptr<LogShard>> shards_;
  std::vector<std::unique_ptr<ContainerLog>> logs_;

  std::atomic<uint64_t> durable_epoch_{0};
  std::atomic<bool> halted_{false};
  mutable std::mutex error_mu_;
  Status io_error_;

  mutable std::mutex writer_mu_;  // writer cv waits + stop/kick flags
  bool writers_running_ = false;
  bool stop_writers_ = false;
  bool flush_requested_ = false;
  /// Shared round schedule origin, set by StartWriters before the writer
  /// threads start.
  std::chrono::steady_clock::time_point writer_origin_;

  mutable std::mutex listeners_mu_;
  std::vector<std::pair<size_t, Listener>> listeners_;
  size_t next_listener_id_ = 1;
  std::function<void()> notify_progress_;
  FrameTee frame_tee_;
  obs::FlightRecorder* flight_ = nullptr;

  // OpenStorage facts.
  bool found_state_ = false;
  uint64_t recovered_durable_ = 0;
  uint64_t recovered_max_epoch_ = 0;
  std::vector<std::vector<SegmentRef>> segments_;
  std::string checkpoint_dir_;
  uint64_t checkpoint_epoch_ = 0;
  uint64_t next_checkpoint_seq_ = 1;

  DurabilityStats stats_;
};

// --- Small file helpers shared with checkpoint/recovery ----------------------

/// Reads a whole file; kIOError on failure.
StatusOr<std::string> ReadFile(const std::string& path);
/// Writes a whole file and fsyncs it; kIOError on failure. `hook` (may be
/// empty) is consulted before the write and the fsync, as for segment I/O.
Status WriteFileSync(const std::string& path, std::string_view data,
                     const FileFaultHook& hook = {});
/// fsyncs a directory so created/renamed/unlinked entries survive power
/// loss (file-content fsync alone does not persist the directory entry).
Status FsyncDir(const std::string& path);

}  // namespace log
}  // namespace reactdb

#endif  // REACTDB_LOG_DURABILITY_H_
