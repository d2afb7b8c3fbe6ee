// Length-bucketed continuous-batching scheduler.
//
// Why buckets: the sequence-length distribution is long-tailed (Fig. 4),
// and attention-family work scales superlinearly in crop length, so
// padding every request to the global max burns most of the model stage
// on padding. Each request is assigned the smallest configured bucket
// that fits min(seq_len, max bucket); a dispatched batch only ever holds
// requests of one bucket, so no element pays for a longer one.
//
// Why continuous: batches are not formed on a timer. Whenever a model
// worker frees up it calls next_batch(), which drains up to max_batch
// requests from the bucket whose head request is oldest — partially
// filled batches dispatch immediately rather than waiting to fill, and
// the batch re-fills from whatever is queued the moment a worker is
// ready. Head-of-line age (arrival_seq, assigned at admission) picks the
// bucket, which bounds cross-bucket starvation: a bucket's head can only
// wait while strictly older heads are served.
//
// Thread model: the scheduler is a pure data structure with no locks —
// Service drives it under its own mutex. That makes its decisions a pure
// function of the enqueue order, which is what the determinism test
// replays (a seeded arrival trace always yields the same batches).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "serve/request.h"

namespace sf::serve {

struct SchedulerConfig {
  /// Bucket crop lengths, ascending. The last is the serving max: longer
  /// sequences are cropped to it (the training pipeline's crop semantics).
  std::vector<int64_t> bucket_lens = {16, 24, 32, 48};
  /// Max requests per dispatched batch (1 = one-at-a-time serving).
  int max_batch = 4;
};

/// A featurized request waiting for a model slot.
struct QueuedItem {
  Request req;
  data::Batch features;
  bool cache_hit = false;
  double featurize_s = 0.0;
  double t_ready_us = 0.0;  ///< trace clock at enqueue (featurize done)
};

class BucketScheduler {
 public:
  explicit BucketScheduler(SchedulerConfig config);

  /// Smallest bucket holding min(seq_len, max bucket). Pure; Service
  /// calls this at admission so the estimate and the queue agree.
  int64_t bucket_for(int64_t seq_len) const;

  /// Append to its bucket's FIFO (req.bucket_len must be a configured
  /// bucket).
  void enqueue(QueuedItem item);

  /// Dispatch up to max_batch items from the bucket with the oldest head
  /// request (by arrival_seq). Empty result means nothing is queued.
  std::vector<QueuedItem> next_batch();

  int64_t pending() const;
  const SchedulerConfig& config() const { return config_; }

  /// Total batches dispatched / requests dispatched (mean batch size =
  /// second / first).
  int64_t batches_dispatched() const { return batches_dispatched_; }
  int64_t requests_dispatched() const { return requests_dispatched_; }

 private:
  SchedulerConfig config_;
  std::map<int64_t, std::deque<QueuedItem>> queues_;  ///< bucket -> FIFO
  int64_t batches_dispatched_ = 0;
  int64_t requests_dispatched_ = 0;
};

}  // namespace sf::serve
