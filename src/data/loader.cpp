#include "data/loader.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>

#include "common/error.h"
#include "common/fault.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sf::data {
namespace {

std::chrono::microseconds to_us(double seconds) {
  return std::chrono::microseconds(
      static_cast<int64_t>(std::max(0.0, seconds) * 1e6));
}

/// Preparation-time histogram: Fig. 4's three-decade spread, log-spaced
/// from 100us to 100s.
obs::Histogram& prep_histogram() {
  static auto& h = obs::Registry::global().histogram(
      "loader.prep_seconds", 1e-4, 100.0, 24);
  return h;
}

}  // namespace

PrefetchLoader::PrefetchLoader(BatchFn make_batch, int64_t num_batches,
                               LoaderConfig config)
    : make_batch_(std::move(make_batch)),
      num_batches_(num_batches),
      config_(config) {
  SF_CHECK(num_batches_ >= 0);
  SF_CHECK(config_.num_workers > 0);
  SF_CHECK(config_.max_in_flight >= config_.num_workers)
      << "prefetch depth must cover all workers";
  SF_CHECK(config_.max_retries >= 0);
  SF_CHECK(config_.retry_backoff_seconds >= 0.0);
  // Watchdog wake-up period: fine-grained enough to catch a deadline
  // promptly, coarse enough to stay invisible when nothing is wrong.
  poll_ = config_.prep_timeout_seconds > 0
              ? std::clamp(to_us(config_.prep_timeout_seconds / 4),
                           std::chrono::microseconds(200),
                           std::chrono::microseconds(10'000))
              : std::chrono::microseconds(50'000);
  done_.assign(static_cast<size_t>(num_batches_), 0);
  workers_.reserve(config_.num_workers);
  for (int i = 0; i < config_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

PrefetchLoader::~PrefetchLoader() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_space_.notify_all();
  cv_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

bool PrefetchLoader::has_next() const {
  std::lock_guard<std::mutex> lock(mu_);
  return yielded_ < num_batches_;
}

LoaderStats PrefetchLoader::stats_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void PrefetchLoader::reclaim_expired_locked() {
  if (config_.prep_timeout_seconds <= 0 || in_progress_.empty()) return;
  const auto now = Clock::now();
  for (auto it = in_progress_.begin(); it != in_progress_.end();) {
    if (now >= it->second) {
      ++stats_.timeouts;
      obs::Registry::global().counter("loader.timeouts").add();
      obs::emit_instant("loader", "timeout", 0, it->first);
      requeue_.push_back(it->first);
      it = in_progress_.erase(it);
    } else {
      ++it;
    }
  }
}

void PrefetchLoader::worker_loop() {
  for (;;) {
    int64_t idx = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        if (stop_) return;
        reclaim_expired_locked();
        // A batch can complete (first attempt wins) while its requeue
        // entry waits; skip those.
        while (!requeue_.empty() && done_[requeue_.front()]) {
          requeue_.pop_front();
        }
        if (!requeue_.empty()) {
          idx = requeue_.front();
          requeue_.pop_front();
          ++stats_.requeues;
          obs::Registry::global().counter("loader.requeues").add();
          obs::emit_instant("loader", "requeue", 0, idx);
          break;  // requeued work does not re-count against max_in_flight
        }
        if (next_to_schedule_ < num_batches_ &&
            in_flight_ < config_.max_in_flight) {
          idx = next_to_schedule_++;
          ++in_flight_;
          stats_.max_in_flight_seen =
              std::max(stats_.max_in_flight_seen, in_flight_);
          break;
        }
        if (next_to_schedule_ >= num_batches_ && in_progress_.empty()) {
          return;  // nothing left that could ever need this worker
        }
        cv_space_.wait_for(lock, poll_);
      }
      in_progress_[idx] = config_.prep_timeout_seconds > 0
                              ? Clock::now() + to_us(config_.prep_timeout_seconds)
                              : Clock::time_point::max();
    }

    // Simulated thread crash: exit immediately, leaving `idx` registered
    // in-progress so the survivors reclaim it at the deadline.
    try {
      SF_FAULT_POINT("loader.worker.kill", idx);
    } catch (const fault::WorkerKill&) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.worker_deaths;
      obs::Registry::global().counter("loader.worker_deaths").add();
      obs::emit_instant("loader", "worker_death", 0, idx);
      return;
    }

    for (int attempt = 1;; ++attempt) {
      std::string err;
      try {
        SF_TRACE_SPAN_ID("loader", "prep", idx);
        Timer prep_timer;
        SF_FAULT_POINT("loader.prep", idx);
        Batch batch = make_batch_(idx);
        prep_histogram().observe(prep_timer.elapsed());
        {
          std::lock_guard<std::mutex> lock(mu_);
          in_progress_.erase(idx);
          if (!done_[idx]) {
            done_[idx] = 1;
            ready_.emplace(idx, std::move(batch));
          } else {
            ++stats_.dropped_duplicates;
            obs::Registry::global()
                .counter("loader.dropped_duplicates")
                .add();
          }
        }
        cv_ready_.notify_all();
        cv_space_.notify_all();
        break;
      } catch (const fault::WorkerKill&) {
        // Crash injected on the preparation path: same semantics as above.
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.worker_deaths;
        obs::Registry::global().counter("loader.worker_deaths").add();
        obs::emit_instant("loader", "worker_death", 0, idx);
        return;
      } catch (const std::exception& e) {
        err = e.what();
      } catch (...) {
        err = "unknown exception";
      }

      std::unique_lock<std::mutex> lock(mu_);
      if (stop_) return;
      if (attempt > config_.max_retries) {
        if (!worker_error_) {
          std::ostringstream os;
          os << "batch " << idx << " preparation failed after " << attempt
             << " attempt" << (attempt == 1 ? "" : "s") << ": " << err;
          worker_error_ = std::make_exception_ptr(Error(os.str()));
        }
        in_progress_.erase(idx);
        stop_ = true;  // wake everyone; the consumer rethrows
        lock.unlock();
        cv_ready_.notify_all();
        cv_space_.notify_all();
        return;
      }
      ++stats_.retries;
      obs::Registry::global().counter("loader.retries").add();
      obs::emit_instant("loader", "retry", 0, idx);
      // Interruptible exponential backoff; refresh the deadline afterwards
      // so the watchdog window covers the attempt, not the sleep.
      const double backoff =
          config_.retry_backoff_seconds * std::pow(2.0, attempt - 1);
      cv_space_.wait_for(lock, to_us(backoff), [this] { return stop_; });
      if (stop_) return;
      if (config_.prep_timeout_seconds > 0) {
        in_progress_[idx] = Clock::now() + to_us(config_.prep_timeout_seconds);
      }
    }
  }
}

Batch PrefetchLoader::next() {
  SF_TRACE_SPAN("loader", "next");
  Timer wait_timer;
  std::unique_lock<std::mutex> lock(mu_);
  SF_CHECK(yielded_ < num_batches_) << "next() past end of loader";

  auto available = [this] {
    if (worker_error_) return true;
    if (config_.policy == YieldPolicy::kInOrder) {
      // Strict sampler order: wait for exactly the next index, even when
      // later batches are already sitting in the buffer (Fig. 5 (i)).
      return ready_.count(next_in_order_) > 0;
    }
    // Ready-first: any completed batch unblocks the consumer, Fig. 5 (ii).
    return !ready_.empty();
  };
  while (!available()) {
    // The consumer doubles as a watchdog: with every worker hung or dead,
    // somebody still has to notice the deadline and requeue.
    reclaim_expired_locked();
    if (!requeue_.empty()) cv_space_.notify_all();
    cv_ready_.wait_for(lock, poll_);
  }
  if (worker_error_) std::rethrow_exception(worker_error_);

  // In order: exactly the next index. Ready-first: the smallest-index
  // batch that is already done (std::map iteration order = priority queue
  // by index).
  auto it = config_.policy == YieldPolicy::kInOrder
                ? ready_.find(next_in_order_++)
                : ready_.begin();
  stats_.ready_overtakes += std::distance(ready_.begin(), it);
  Batch batch = std::move(it->second);
  ready_.erase(it);
  ++yielded_;
  --in_flight_;
  stats_.consumer_wait_seconds += wait_timer.elapsed();
  stats_.batches_yielded = yielded_;
  stats_.yield_order.push_back(batch.index);
  stats_.prep_seconds.push_back(batch.prep_seconds);
  lock.unlock();
  cv_space_.notify_all();
  return batch;
}

}  // namespace sf::data
