// Discrete-event simulation core: a virtual clock and an event queue.
//
// The simulated runtime (src/runtime/sim_runtime.h) models every
// transaction executor of the paper's evaluation machines as a virtual
// core. All application logic, storage operations, and concurrency control
// execute for real; only *time* is virtual, advanced by calibrated
// per-operation costs. This substitutes for the 8/32-hardware-thread
// machines of the paper's evaluation.

#ifndef REACTDB_SIM_EVENT_QUEUE_H_
#define REACTDB_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace reactdb {

/// Time-ordered event queue with FIFO tie-breaking.
class EventQueue {
 public:
  using EventFn = std::function<void()>;

  /// Schedules `fn` at absolute virtual time `time_us` (>= now()).
  void Schedule(double time_us, EventFn fn);
  /// Schedules `fn` `delay_us` after now.
  void ScheduleAfter(double delay_us, EventFn fn) {
    Schedule(now_ + delay_us, std::move(fn));
  }

  /// Pops and runs the earliest event, advancing the clock. Returns false
  /// when the queue is empty.
  bool RunNext();

  /// Runs events until the queue drains or the clock passes `until_us`.
  void RunUntil(double until_us);

  /// Runs until the queue is empty.
  void RunAll();

  /// Installs a periodic ticker: `fn(tick_time_us)` fires at every multiple
  /// of `interval_us` the clock crosses while real events are still being
  /// dispatched. Ticks never enqueue events of their own, so an empty queue
  /// fires no ticks and RunAll still terminates — the monitor sampler rides
  /// on this without perturbing calibrated traces (the ticker only advances
  /// `now` to tick times the clock was about to pass anyway). One ticker at
  /// a time; `interval_us <= 0` uninstalls.
  void SetTicker(double interval_us, std::function<void(double)> fn);

  double now() const { return now_; }
  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }
  uint64_t processed() const { return processed_; }

 private:
  struct Event {
    double time;
    uint64_t seq;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Fires the installed ticker for every tick time <= `time_us`.
  void FireTicksUpTo(double time_us);

  std::priority_queue<Event, std::vector<Event>, Later> events_;
  double now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
  double tick_interval_us_ = 0;  // 0 = no ticker installed
  double next_tick_us_ = 0;
  std::function<void(double)> ticker_;
};

}  // namespace reactdb

#endif  // REACTDB_SIM_EVENT_QUEUE_H_
