// Data-pipeline loaders: in-order (PyTorch DataLoader semantics) vs
// ScaleFold's non-blocking ready-first pipeline (§3.2, Fig. 5).
//
// Both loaders run the same pool of prefetch workers over the same
// dataset. The difference is the yield policy:
//
//   kInOrder    — next() returns batch i before batch i+1, always. If
//                 batch b is slow, ready batches c > b wait and the
//                 training process idles (Fig. 5 (i)).
//   kReadyFirst — completed batches enter a priority queue keyed by their
//                 dataset index; next() pops the smallest-index *ready*
//                 batch immediately, preserving order best-effort while
//                 never idling behind a straggler (Fig. 5 (ii)).
//
// The paper notes the resulting order perturbation did not harm
// convergence; tests here verify exactly-once delivery and bounded
// reordering (a batch can only be overtaken while it is in flight).
//
// Fault tolerance: at the scale of ScaleFold's time-to-train runs (up to
// 2080 GPUs) preparation failures and worker crashes are statistically
// certain, so the loader recovers instead of dying:
//   - a failed preparation is retried with exponential backoff
//     (max_retries); only after retries are exhausted does the *first*
//     error surface at next(), tagged with the failing batch index;
//   - with prep_timeout > 0, a batch whose preparation exceeds the
//     deadline (hung or crashed worker) is requeued to a healthy worker;
//     whichever attempt finishes first wins and late duplicates are
//     dropped, preserving exactly-once delivery with the same bounded
//     reordering window (requeues do not grow the in-flight budget);
//   - injection sites "loader.prep" (inside the retry scope) and
//     "loader.worker.kill" (simulated thread crash; the worker exits and
//     its claimed batch is reclaimed at the deadline) make every one of
//     these paths testable via sf::fault.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "data/protein_sample.h"

namespace sf::data {

enum class YieldPolicy {
  kInOrder,     ///< strict sampler order (baseline)
  kReadyFirst,  ///< non-blocking priority queue (ScaleFold)
};

struct LoaderConfig {
  int num_workers = 2;
  /// Max batches scheduled but not yet yielded (prefetch depth).
  int max_in_flight = 4;
  YieldPolicy policy = YieldPolicy::kReadyFirst;
  /// Re-attempts after a failed preparation before the error is fatal.
  int max_retries = 2;
  /// First backoff sleep after a failed preparation; doubles per attempt.
  double retry_backoff_seconds = 2e-3;
  /// Deadline for one preparation attempt; an expired batch is requeued
  /// to another worker. <= 0 disables the watchdog (default).
  double prep_timeout_seconds = 0.0;
};

struct LoaderStats {
  double consumer_wait_seconds = 0.0;   ///< time next() spent blocked
  int64_t batches_yielded = 0;
  std::vector<int64_t> yield_order;     ///< dataset indices in yield order
  std::vector<double> prep_seconds;     ///< per-batch preparation time
  int64_t retries = 0;             ///< preparation re-attempts after failures
  int64_t timeouts = 0;            ///< attempts that exceeded prep_timeout
  int64_t requeues = 0;            ///< timed-out batches re-claimed by a worker
  int64_t dropped_duplicates = 0;  ///< late results for already-done batches
  int64_t worker_deaths = 0;       ///< workers lost to an injected crash
  /// Most indices ever claimed and not yet yielded at one instant (never
  /// exceeds LoaderConfig::max_in_flight).
  int64_t max_in_flight_seen = 0;
  /// Ready batches a yield passed over for a larger index. Both policies
  /// keep this at 0: a batch is overtaken only while it is in flight.
  int64_t ready_overtakes = 0;
  /// next() calls that waited while some batch was already ready: in-order
  /// parks behind a straggler this way; ready-first never does (it waits
  /// only on an empty buffer), so it keeps this at 0.
  int64_t waits_behind_ready = 0;
};

/// Prefetching loader over an index range [0, num_batches).
///
/// `make_batch` is the preparation function (normally
/// SyntheticProteinDataset::prepare_batch, optionally wrapped with delay
/// injection for tests). It is invoked concurrently from worker threads
/// and must be thread-safe. After a timeout-requeue it may be invoked
/// more than once for the same index (idempotence required); the loader
/// still yields that index exactly once.
class PrefetchLoader {
 public:
  using BatchFn = std::function<Batch(int64_t index)>;

  PrefetchLoader(BatchFn make_batch, int64_t num_batches, LoaderConfig config);
  ~PrefetchLoader();

  PrefetchLoader(const PrefetchLoader&) = delete;
  PrefetchLoader& operator=(const PrefetchLoader&) = delete;

  /// True while batches remain.
  bool has_next() const;

  /// Blocks per the yield policy and returns the next batch. If a batch's
  /// preparation failed (after retries), the first such error is rethrown
  /// here with the failing batch index in the message (the PyTorch
  /// DataLoader contract: worker failures surface on the consumer).
  Batch next();

  /// Copy of the counters taken under the loader lock — the only stats
  /// accessor. (A by-reference stats() existed once; it handed out
  /// mutex-guarded state without the mutex, a data race whenever a worker
  /// was still finishing a requeued duplicate, so it was removed.)
  LoaderStats stats_snapshot() const;

 private:
  using Clock = std::chrono::steady_clock;

  void worker_loop();
  /// Requeues in-progress batches whose deadline passed. Lock held.
  void reclaim_expired_locked();

  BatchFn make_batch_;
  const int64_t num_batches_;
  const LoaderConfig config_;
  std::chrono::microseconds poll_{};  ///< watchdog wake-up period

  mutable std::mutex mu_;
  std::condition_variable cv_ready_;  ///< consumer waits for batches
  std::condition_variable cv_space_;  ///< workers wait for budget/requeues
  std::map<int64_t, Batch> ready_;    ///< ordered => min-index pop is O(log n)
  std::deque<int64_t> requeue_;       ///< timed-out indices awaiting re-claim
  std::map<int64_t, Clock::time_point> in_progress_;  ///< index -> deadline
  std::vector<char> done_;            ///< ready-or-yielded (duplicate guard)
  int64_t next_to_schedule_ = 0;
  int64_t next_in_order_ = 0;         ///< next index for kInOrder yield
  int64_t yielded_ = 0;
  int64_t in_flight_ = 0;             ///< distinct indices claimed, not yielded
  bool stop_ = false;
  std::exception_ptr worker_error_;

  LoaderStats stats_;
  std::vector<std::thread> workers_;
};

}  // namespace sf::data
