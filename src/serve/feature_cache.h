// MSA/featurization cache: LRU with byte-accounted eviction.
//
// Featurization is the serving layer's CPU-heavy stage (the MSA profile
// pass costs seq_len x min(depth, work_cap) work — the Fig. 4 spread), and
// production traffic repeats sequences, so prepared features are cached.
// Keyed by (sequence-bytes hash, bucket length): the same sequence served
// into a different length bucket is a different tensor shape, hence a
// different entry. Values are Batch objects; tensors share buffers on
// copy, so a hit costs a map lookup + refcount bumps, never a re-prep.
//
// Eviction is LRU by bytes: put() evicts least-recently-used entries until
// total payload bytes fit max_bytes. An entry larger than the whole budget
// is simply not cached. Hit/miss/eviction counters and a byte gauge are
// registered in sf_obs under serve.cache.*.
//
// get_or_compute() is single-flight: the first miss of a key computes it,
// and concurrent lookups of the same key wait on that one computation (and
// count as hits), so misses equal distinct keys and no featurization runs
// twice. A failed computation reaches every waiter and caches nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "data/protein_sample.h"

namespace sf::serve {

struct FeatureCacheConfig {
  int64_t max_bytes = 64ll << 20;
  bool enabled = true;
};

class FeatureCache {
 public:
  explicit FeatureCache(FeatureCacheConfig config);

  /// Cache key for a sequence served at a bucket length (FNV-1a over the
  /// sequence bytes, chained with the bucket length).
  static uint64_t key(const std::vector<int8_t>& sequence,
                      int64_t bucket_len);

  /// Payload bytes a Batch pins in the cache (tensor data only).
  static int64_t batch_bytes(const data::Batch& batch);

  /// Lookup; promotes the entry to most-recently-used on hit. Counts a
  /// hit or a miss. Always a miss when the cache is disabled.
  std::optional<data::Batch> get(uint64_t key);

  /// Insert (no-op if disabled or already present), then evict LRU
  /// entries until bytes() <= max_bytes.
  void put(uint64_t key, const data::Batch& batch);

  /// Single-flight lookup: a cached entry is a hit; a key another caller
  /// is computing is waited for and is also a hit; otherwise this call
  /// counts the miss, runs `compute`, caches its result and hands it to
  /// every waiter. If `compute` throws, every waiter rethrows it. `*hit`
  /// (if given) reports whether this call was a hit. A disabled cache
  /// just runs `compute`.
  data::Batch get_or_compute(uint64_t key,
                             const std::function<data::Batch()>& compute,
                             bool* hit = nullptr);

  int64_t bytes() const;
  int64_t entries() const;
  int64_t hits() const;
  int64_t misses() const;
  int64_t evictions() const;
  const FeatureCacheConfig& config() const { return config_; }

 private:
  struct Entry {
    uint64_t key;
    data::Batch batch;
    int64_t bytes;
  };

  /// The one hit path: a cached entry is promoted to MRU and counted as
  /// a hit; an absent key returns nullopt and counts nothing.
  std::optional<data::Batch> lookup_locked(uint64_t key);
  void count_locked(bool hit);
  void put_locked(uint64_t key, const data::Batch& batch, int64_t cost);
  void evict_to_budget_locked();

  const FeatureCacheConfig config_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
  /// Keys being computed by get_or_compute(), with the shared result.
  std::unordered_map<uint64_t, std::shared_future<data::Batch>> in_flight_;
  int64_t bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
};

}  // namespace sf::serve
