#include "src/txn/epoch.h"

#include <algorithm>
#include <chrono>

namespace reactdb {

EpochManager::EpochManager() { row_pool_.reserve(kRowPoolCap); }

EpochManager::~EpochManager() {
  StopTicker();
  DrainAll();
}

void EpochManager::Advance() {
  uint64_t fresh = global_epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (on_advance_) on_advance_(fresh);
  uint64_t min_active = MinActiveEpoch();
  std::lock_guard<std::mutex> lock(retire_mu_);
  CollectLocked(min_active);
}

void EpochManager::AdvanceTo(uint64_t epoch) {
  uint64_t cur = global_epoch_.load(std::memory_order_acquire);
  bool advanced = false;
  while (cur < epoch) {
    if (global_epoch_.compare_exchange_weak(cur, epoch,
                                            std::memory_order_acq_rel)) {
      advanced = true;
      break;
    }
  }
  if (advanced && on_advance_) on_advance_(epoch);
  uint64_t min_active = MinActiveEpoch();
  std::lock_guard<std::mutex> lock(retire_mu_);
  CollectLocked(min_active);
}

size_t EpochManager::RegisterSlot() {
  std::lock_guard<std::mutex> lock(slots_mu_);
  slots_.push_back(std::make_unique<std::atomic<uint64_t>>(kQuiescent));
  return slots_.size() - 1;
}

uint64_t EpochManager::EnterEpoch(size_t slot) {
  uint64_t e = current();
  slots_[slot]->store(e, std::memory_order_release);
  return e;
}

void EpochManager::LeaveEpoch(size_t slot) {
  slots_[slot]->store(kQuiescent, std::memory_order_release);
}

void EpochManager::Retire(const Row* row) {
  if (row == nullptr) return;
  std::lock_guard<std::mutex> lock(retire_mu_);
  retired_.push_back(current(), row);
  // Amortized collection to bound memory even without epoch ticks.
  if (retired_.size() % 4096 == 0) {
    CollectLocked(MinActiveEpoch());
  }
}

uint64_t EpochManager::MinActiveEpoch() const {
  std::lock_guard<std::mutex> lock(slots_mu_);
  uint64_t min_active = current();
  for (const auto& slot : slots_) {
    uint64_t e = slot->load(std::memory_order_acquire);
    min_active = std::min(min_active, e);
  }
  return min_active;
}

void EpochManager::CollectLocked(uint64_t min_active) {
  // A row retired in epoch e is safe to reuse when every executor is past
  // e + 1 (readers copy the epoch at transaction begin). Safe rows are
  // recycled into the install pool (keeping their element capacity warm)
  // rather than freed; the pool bound keeps a burst from pinning memory.
  while (!retired_.empty() && retired_.front().first + 1 < min_active) {
    const Row* row = retired_.front().second;
    if (row_pool_.size() < kRowPoolCap) {
      row_pool_.push_back(const_cast<Row*>(row));
    } else {
      delete row;
    }
    retired_.pop_front();
  }
  while (!retired_records_.empty() &&
         retired_records_.front().first + 1 < min_active) {
    delete retired_records_.front().second;
    retired_records_.pop_front();
  }
}

Row* EpochManager::ExchangeRow(const Row* replaced) {
  Row* fresh = nullptr;
  {
    std::lock_guard<std::mutex> lock(retire_mu_);
    if (replaced != nullptr) {
      retired_.push_back(current(), replaced);
      // Amortized collection to bound memory even without epoch ticks.
      if (retired_.size() % 4096 == 0) {
        CollectLocked(MinActiveEpoch());
      }
    }
    if (!row_pool_.empty()) {
      fresh = row_pool_.back();
      row_pool_.pop_back();
    }
  }
  return fresh != nullptr ? fresh : new Row();
}

void EpochManager::RetireRecord(Record* rec) {
  std::lock_guard<std::mutex> lock(retire_mu_);
  retired_records_.push_back(current(), rec);
}

size_t EpochManager::retired_record_count() const {
  std::lock_guard<std::mutex> lock(retire_mu_);
  return retired_records_.size();
}

size_t EpochManager::row_pool_size() const {
  std::lock_guard<std::mutex> lock(retire_mu_);
  return row_pool_.size();
}

void EpochManager::StartTicker(uint64_t interval_ms) {
  std::lock_guard<std::mutex> lock(ticker_mu_);
  if (ticker_running_) return;
  ticker_stop_ = false;
  ticker_running_ = true;
  ticker_ = std::thread([this, interval_ms] {
    std::unique_lock<std::mutex> lock(ticker_mu_);
    while (!ticker_stop_) {
      ticker_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms));
      if (ticker_stop_) break;
      lock.unlock();
      Advance();
      lock.lock();
    }
  });
}

void EpochManager::StopTicker() {
  {
    std::lock_guard<std::mutex> lock(ticker_mu_);
    if (!ticker_running_) return;
    ticker_stop_ = true;
  }
  ticker_cv_.notify_all();
  ticker_.join();
  std::lock_guard<std::mutex> lock(ticker_mu_);
  ticker_running_ = false;
}

void EpochManager::DrainAll() {
  std::lock_guard<std::mutex> lock(retire_mu_);
  while (!retired_.empty()) {
    delete retired_.front().second;
    retired_.pop_front();
  }
  while (!retired_records_.empty()) {
    delete retired_records_.front().second;
    retired_records_.pop_front();
  }
  for (Row* row : row_pool_) delete row;
  row_pool_.clear();
}

size_t EpochManager::retired_count() const {
  std::lock_guard<std::mutex> lock(retire_mu_);
  return retired_.size();
}

}  // namespace reactdb
