#include "serve/feature_cache.h"

#include "common/hash.h"
#include "obs/metrics.h"

namespace sf::serve {

namespace {
struct CacheMetrics {
  obs::Counter& hits = obs::Registry::global().counter("serve.cache.hit");
  obs::Counter& misses = obs::Registry::global().counter("serve.cache.miss");
  obs::Counter& evictions =
      obs::Registry::global().counter("serve.cache.evictions");
  obs::Gauge& bytes = obs::Registry::global().gauge("serve.cache.bytes");
};
CacheMetrics& metrics() {
  static CacheMetrics m;
  return m;
}
}  // namespace

FeatureCache::FeatureCache(FeatureCacheConfig config) : config_(config) {}

uint64_t FeatureCache::key(const std::vector<int8_t>& sequence,
                           int64_t bucket_len) {
  uint64_t h = fnv1a64(sequence.data(), sequence.size());
  return fnv1a64_u64(static_cast<uint64_t>(bucket_len), h);
}

int64_t FeatureCache::batch_bytes(const data::Batch& batch) {
  const auto bytes = [](const Tensor& t) {
    return t.numel() * static_cast<int64_t>(sizeof(float));
  };
  return bytes(batch.seq_onehot) + bytes(batch.msa_feat) +
         bytes(batch.template_feat) + bytes(batch.target_pos) +
         bytes(batch.residue_mask);
}

void FeatureCache::count_locked(bool hit) {
  if (hit) {
    ++hits_;
    metrics().hits.add();
  } else {
    ++misses_;
    metrics().misses.add();
  }
}

std::optional<data::Batch> FeatureCache::lookup_locked(uint64_t key) {
  auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  count_locked(/*hit=*/true);
  return it->second->batch;  // tensors share buffers: cheap copy
}

std::optional<data::Batch> FeatureCache::get(uint64_t key) {
  if (!config_.enabled) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  std::optional<data::Batch> cached = lookup_locked(key);
  if (!cached) count_locked(/*hit=*/false);
  return cached;
}

void FeatureCache::put(uint64_t key, const data::Batch& batch) {
  if (!config_.enabled) return;
  const int64_t cost = batch_bytes(batch);
  std::lock_guard<std::mutex> lock(mu_);
  put_locked(key, batch, cost);
}

void FeatureCache::put_locked(uint64_t key, const data::Batch& batch,
                              int64_t cost) {
  if (index_.count(key)) return;  // already cached: first insert wins
  if (cost > config_.max_bytes) return;  // larger than the whole budget
  lru_.push_front(Entry{key, batch, cost});
  index_[key] = lru_.begin();
  bytes_ += cost;
  evict_to_budget_locked();
  metrics().bytes.set(static_cast<double>(bytes_));
}

data::Batch FeatureCache::get_or_compute(
    uint64_t key, const std::function<data::Batch()>& compute, bool* hit) {
  if (hit) *hit = false;
  if (!config_.enabled) return compute();
  std::promise<data::Batch> promise;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (std::optional<data::Batch> cached = lookup_locked(key)) {
      if (hit) *hit = true;
      return *std::move(cached);
    }
    if (auto it = in_flight_.find(key); it != in_flight_.end()) {
      count_locked(/*hit=*/true);
      if (hit) *hit = true;
      std::shared_future<data::Batch> pending = it->second;
      lock.unlock();
      return pending.get();  // rethrows the computing caller's error
    }
    count_locked(/*hit=*/false);
    in_flight_.emplace(key, promise.get_future().share());
  }
  try {
    data::Batch batch = compute();
    const int64_t cost = batch_bytes(batch);
    {
      std::lock_guard<std::mutex> lock(mu_);
      put_locked(key, batch, cost);
      in_flight_.erase(key);
    }
    promise.set_value(batch);
    return batch;
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      in_flight_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

void FeatureCache::evict_to_budget_locked() {
  while (bytes_ > config_.max_bytes && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
    metrics().evictions.add();
  }
}

int64_t FeatureCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

int64_t FeatureCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(lru_.size());
}

int64_t FeatureCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t FeatureCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

int64_t FeatureCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace sf::serve
