#include "serve/scheduler.h"

#include <algorithm>

#include "common/error.h"

namespace sf::serve {

BucketScheduler::BucketScheduler(SchedulerConfig config)
    : config_(std::move(config)) {
  SF_CHECK(!config_.bucket_lens.empty()) << "need at least one bucket";
  SF_CHECK(config_.max_batch >= 1);
  SF_CHECK(std::is_sorted(config_.bucket_lens.begin(),
                          config_.bucket_lens.end()))
      << "bucket_lens must be ascending";
  for (int64_t len : config_.bucket_lens) {
    SF_CHECK(len > 0) << "bucket length" << len;
    queues_[len];  // materialize the FIFO
  }
}

int64_t BucketScheduler::bucket_for(int64_t seq_len) const {
  for (int64_t len : config_.bucket_lens) {
    if (seq_len <= len) return len;
  }
  return config_.bucket_lens.back();  // crop to the serving max
}

void BucketScheduler::enqueue(QueuedItem item) {
  auto it = queues_.find(item.req.bucket_len);
  SF_CHECK(it != queues_.end())
      << "bucket" << item.req.bucket_len << "not configured";
  it->second.push_back(std::move(item));
}

std::vector<QueuedItem> BucketScheduler::next_batch() {
  std::deque<QueuedItem>* pick = nullptr;
  int64_t oldest = -1;
  for (auto& [len, q] : queues_) {
    if (q.empty()) continue;
    const int64_t head = q.front().req.arrival_seq;
    if (pick == nullptr || head < oldest) {
      pick = &q;
      oldest = head;
    }
  }
  std::vector<QueuedItem> batch;
  if (pick == nullptr) return batch;
  const int n = std::min<int>(config_.max_batch,
                              static_cast<int>(pick->size()));
  batch.reserve(n);
  for (int i = 0; i < n; ++i) {
    batch.push_back(std::move(pick->front()));
    pick->pop_front();
  }
  ++batches_dispatched_;
  requests_dispatched_ += n;
  return batch;
}

int64_t BucketScheduler::pending() const {
  int64_t n = 0;
  for (const auto& [len, q] : queues_) n += static_cast<int64_t>(q.size());
  return n;
}

}  // namespace sf::serve
