// Serving layer: admission control, feature cache, bucket scheduler,
// and the end-to-end Service (differential vs direct forward).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/fault.h"
#include "common/rng.h"
#include "core/session.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/feature_cache.h"
#include "serve/scheduler.h"
#include "serve/service.h"

using namespace sf;
using namespace sf::serve;

namespace {

model::ModelConfig tiny_model() {
  model::ModelConfig c;
  c.crop_len = 16;
  c.msa_rows = 4;
  c.c_m = 16;
  c.c_z = 16;
  c.c_s = 16;
  c.heads = 2;
  c.head_dim = 8;
  c.evoformer_blocks = 1;
  c.extra_msa_blocks = 1;
  c.template_pair_blocks = 1;
  c.use_extra_msa_stack = false;
  c.use_template_stack = false;
  c.opm_dim = 4;
  c.transition_factor = 2;
  c.structure_layers = 1;
  return c;
}

data::DatasetConfig tiny_data() {
  data::DatasetConfig c;
  c.num_samples = 40;
  c.crop_len = 16;
  c.msa_rows = 4;
  c.msa_work_cap = 64;
  c.len_log_mean = 2.2;   // median ~9 residues
  c.len_log_sigma = 0.7;
  c.min_seq_len = 6;
  c.max_seq_len = 64;
  c.seed = 77;
  return c;
}

ServeConfig tiny_serve() {
  ServeConfig c;
  c.scheduler.bucket_lens = {8, 12, 16};
  c.scheduler.max_batch = 4;
  c.feature_workers = 2;
  c.model_workers = 2;
  c.num_recycles = 1;
  return c;
}

}  // namespace

// ---- Admission control -----------------------------------------------------

TEST(Admission, DepthBudgetBoundary) {
  AdmissionController ac({.max_queue_depth = 2, .max_outstanding_work = 0.0});
  EXPECT_EQ(ac.try_admit(1.0), RejectReason::kNone);
  EXPECT_EQ(ac.try_admit(1.0), RejectReason::kNone);
  // Exactly at the boundary: the third is turned away with the reason.
  EXPECT_EQ(ac.try_admit(1.0), RejectReason::kQueueFull);
  EXPECT_EQ(ac.depth(), 2);
  EXPECT_EQ(ac.admitted(), 2);
  EXPECT_EQ(ac.rejected(), 1);
  // A completion frees exactly one slot.
  ac.on_complete(1.0);
  EXPECT_EQ(ac.try_admit(1.0), RejectReason::kNone);
  EXPECT_EQ(ac.try_admit(1.0), RejectReason::kQueueFull);
}

TEST(Admission, WorkBudgetBoundaryAndReason) {
  const double unit = estimate_work(16);
  AdmissionController ac(
      {.max_queue_depth = 0, .max_outstanding_work = 2.0 * unit});
  EXPECT_EQ(ac.try_admit(unit), RejectReason::kNone);
  EXPECT_EQ(ac.try_admit(unit), RejectReason::kNone);  // fills exactly
  EXPECT_EQ(ac.try_admit(unit), RejectReason::kWorkBudget);
  EXPECT_DOUBLE_EQ(ac.outstanding_work(), 2.0 * unit);
  // A rejection charges nothing.
  ac.on_complete(unit);
  EXPECT_DOUBLE_EQ(ac.outstanding_work(), unit);
  EXPECT_EQ(ac.try_admit(unit), RejectReason::kNone);
}

TEST(Admission, DepthCheckedBeforeWork) {
  AdmissionController ac({.max_queue_depth = 1, .max_outstanding_work = 1.0});
  EXPECT_EQ(ac.try_admit(1.0), RejectReason::kNone);
  // Both budgets are violated; depth is reported.
  EXPECT_EQ(ac.try_admit(1.0), RejectReason::kQueueFull);
}

TEST(Admission, EstimateGrowsSuperlinearly) {
  // The admission currency: a long request must cost more than a short
  // one by the model's actual scaling, not per-slot.
  EXPECT_GT(estimate_work(32), 2.0 * estimate_work(16));
}

// ---- Feature cache ---------------------------------------------------------

namespace {
data::Batch make_cached_batch(const data::SyntheticProteinDataset& ds,
                              int64_t idx, int64_t crop) {
  return ds.prepare_batch(idx, crop);
}

// One single-flight lookup of `key` whose computation yields `b`; returns
// whether it was a hit (a miss computes `b` and caches it if it fits).
bool lookup(FeatureCache& cache, uint64_t key, const data::Batch& b) {
  bool hit = false;
  cache.get_or_compute(key, [&b] { return b; }, &hit);
  return hit;
}
}  // namespace

TEST(FeatureCache, ByteAccountingIsExact) {
  data::SyntheticProteinDataset ds(tiny_data());
  FeatureCache cache({.max_bytes = 1ll << 30, .enabled = true});
  data::Batch b = make_cached_batch(ds, 0, 8);
  const int64_t expect =
      static_cast<int64_t>(sizeof(float)) *
      (b.seq_onehot.numel() + b.msa_feat.numel() + b.template_feat.numel() +
       b.target_pos.numel() + b.residue_mask.numel());
  EXPECT_EQ(FeatureCache::batch_bytes(b), expect);
  EXPECT_FALSE(lookup(cache, 1, b));
  EXPECT_EQ(cache.bytes(), expect);
  EXPECT_FALSE(lookup(cache, 2, b));
  EXPECT_EQ(cache.bytes(), 2 * expect);
  EXPECT_EQ(cache.entries(), 2);
}

TEST(FeatureCache, LruEvictionOrderAndPromotion) {
  data::SyntheticProteinDataset ds(tiny_data());
  data::Batch b = make_cached_batch(ds, 0, 8);
  const int64_t unit = FeatureCache::batch_bytes(b);
  FeatureCache cache({.max_bytes = 3 * unit, .enabled = true});
  EXPECT_FALSE(lookup(cache, 1, b));
  EXPECT_FALSE(lookup(cache, 2, b));
  EXPECT_FALSE(lookup(cache, 3, b));
  EXPECT_EQ(cache.entries(), 3);
  // Touch 1: it becomes MRU, so 2 is now the LRU victim.
  EXPECT_TRUE(lookup(cache, 1, b));
  EXPECT_FALSE(lookup(cache, 4, b));
  EXPECT_EQ(cache.entries(), 3);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_TRUE(lookup(cache, 1, b));  // survived via promotion
  EXPECT_TRUE(lookup(cache, 3, b));
  EXPECT_TRUE(lookup(cache, 4, b));
  EXPECT_FALSE(lookup(cache, 2, b));  // evicted (now recomputed)
  EXPECT_LE(cache.bytes(), 3 * unit);
}

TEST(FeatureCache, OversizedEntryIsNotCached) {
  data::SyntheticProteinDataset ds(tiny_data());
  data::Batch b = make_cached_batch(ds, 0, 16);
  FeatureCache cache(
      {.max_bytes = FeatureCache::batch_bytes(b) - 1, .enabled = true});
  EXPECT_FALSE(lookup(cache, 1, b));
  EXPECT_FALSE(lookup(cache, 1, b));  // computed again: nothing was kept
  EXPECT_EQ(cache.entries(), 0);
  EXPECT_EQ(cache.bytes(), 0);
}

TEST(FeatureCache, DisabledCacheNeverHits) {
  data::SyntheticProteinDataset ds(tiny_data());
  FeatureCache cache({.max_bytes = 1ll << 30, .enabled = false});
  const data::Batch b = make_cached_batch(ds, 0, 8);
  EXPECT_FALSE(lookup(cache, 1, b));
  EXPECT_FALSE(lookup(cache, 1, b));
  EXPECT_EQ(cache.entries(), 0);
}

TEST(FeatureCache, KeySeparatesBucketsAndSequences) {
  data::SyntheticProteinDataset ds(tiny_data());
  auto s0 = ds.sequence(0), s1 = ds.sequence(1);
  EXPECT_NE(FeatureCache::key(s0, 8), FeatureCache::key(s0, 16));
  EXPECT_NE(FeatureCache::key(s0, 8), FeatureCache::key(s1, 8));
}

TEST(FeatureCache, HitAndMissCounters) {
  data::SyntheticProteinDataset ds(tiny_data());
  FeatureCache cache({.max_bytes = 1ll << 30, .enabled = true});
  const data::Batch b = make_cached_batch(ds, 0, 8);
  EXPECT_FALSE(lookup(cache, 7, b));
  EXPECT_TRUE(lookup(cache, 7, b));
  EXPECT_TRUE(lookup(cache, 7, b));
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 1);
}

// Concurrent misses of one key run one computation; the rest wait on it and
// count as hits. Holds for any interleaving: a late caller finds the entry.
TEST(FeatureCache, SingleFlightComputesEachKeyOnce) {
  data::SyntheticProteinDataset ds(tiny_data());
  FeatureCache cache({.max_bytes = 1ll << 30, .enabled = true});
  constexpr int kCallers = 6;
  std::atomic<int> computes{0};
  std::vector<data::Batch> got(kCallers);
  std::vector<char> hit(kCallers, 0);
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&, i] {
      bool h = false;
      got[i] = cache.get_or_compute(
          7,
          [&] {
            computes.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            return make_cached_batch(ds, 0, 8);
          },
          &h);
      hit[i] = h;
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), kCallers - 1);
  EXPECT_EQ(std::count(hit.begin(), hit.end(), 1), kCallers - 1);
  for (const auto& b : got) {
    EXPECT_EQ(b.msa_feat.data(), got[0].msa_feat.data());  // one result
  }
  EXPECT_EQ(cache.entries(), 1);
}

// A failed computation reaches every caller of that key, caches nothing and
// leaves the key computable.
TEST(FeatureCache, SingleFlightErrorReachesEveryWaiter) {
  data::SyntheticProteinDataset ds(tiny_data());
  FeatureCache cache({.max_bytes = 1ll << 30, .enabled = true});
  constexpr int kCallers = 6;
  std::atomic<int> threw{0};
  std::vector<std::thread> callers;
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&] {
      try {
        cache.get_or_compute(7, []() -> data::Batch {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          throw std::runtime_error("featurize failed");
        });
      } catch (const std::runtime_error& e) {
        if (std::string(e.what()) == "featurize failed") threw.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(threw.load(), kCallers);
  EXPECT_EQ(cache.entries(), 0);
  bool h = true;
  cache.get_or_compute(7, [&] { return make_cached_batch(ds, 0, 8); }, &h);
  EXPECT_FALSE(h);
  EXPECT_EQ(cache.entries(), 1);
}

// ---- Bucket scheduler ------------------------------------------------------

namespace {
QueuedItem item_for(int64_t arrival, int64_t bucket) {
  QueuedItem it;
  it.req.id = arrival;
  it.req.arrival_seq = arrival;
  it.req.bucket_len = bucket;
  return it;
}
}  // namespace

TEST(Scheduler, BucketAssignmentIsSmallestFit) {
  BucketScheduler s({.bucket_lens = {8, 12, 16}, .max_batch = 4});
  EXPECT_EQ(s.bucket_for(3), 8);
  EXPECT_EQ(s.bucket_for(8), 8);
  EXPECT_EQ(s.bucket_for(9), 12);
  EXPECT_EQ(s.bucket_for(16), 16);
  EXPECT_EQ(s.bucket_for(4000), 16);  // cropped to the serving max
}

TEST(Scheduler, OldestHeadPicksBucketAndBatchesAreHomogeneous) {
  BucketScheduler s({.bucket_lens = {8, 16}, .max_batch = 4});
  s.enqueue(item_for(0, 16));
  s.enqueue(item_for(1, 8));
  s.enqueue(item_for(2, 8));
  // Head of bucket 16 (arrival 0) is older than head of bucket 8.
  auto b1 = s.next_batch();
  ASSERT_EQ(b1.size(), 1u);
  EXPECT_EQ(b1[0].req.arrival_seq, 0);
  auto b2 = s.next_batch();
  ASSERT_EQ(b2.size(), 2u);
  EXPECT_EQ(b2[0].req.bucket_len, 8);
  EXPECT_EQ(b2[1].req.bucket_len, 8);
  EXPECT_TRUE(s.next_batch().empty());
}

TEST(Scheduler, MaxBatchCapsDispatch) {
  BucketScheduler s({.bucket_lens = {8}, .max_batch = 3});
  for (int i = 0; i < 7; ++i) s.enqueue(item_for(i, 8));
  EXPECT_EQ(s.next_batch().size(), 3u);
  EXPECT_EQ(s.next_batch().size(), 3u);
  EXPECT_EQ(s.next_batch().size(), 1u);
  EXPECT_EQ(s.batches_dispatched(), 3);
  EXPECT_EQ(s.requests_dispatched(), 7);
}

// A seeded arrival trace always produces the same batch decomposition —
// the scheduler is a pure function of the enqueue order.
TEST(Scheduler, DeterministicUnderSeededArrivalTrace) {
  const std::vector<int64_t> buckets = {8, 12, 16};
  auto run_trace = [&](uint64_t seed) {
    BucketScheduler s({.bucket_lens = buckets, .max_batch = 3});
    Rng rng(seed);
    std::vector<std::vector<int64_t>> dispatched;
    int64_t arrival = 0;
    for (int step = 0; step < 200; ++step) {
      if (rng.bernoulli(0.6)) {
        s.enqueue(item_for(
            arrival++,
            buckets[rng.uniform_int(buckets.size())]));
      } else {
        auto b = s.next_batch();
        if (!b.empty()) {
          std::vector<int64_t> ids;
          for (auto& it : b) ids.push_back(it.req.id);
          dispatched.push_back(std::move(ids));
        }
      }
    }
    while (true) {
      auto b = s.next_batch();
      if (b.empty()) break;
      std::vector<int64_t> ids;
      for (auto& it : b) ids.push_back(it.req.id);
      dispatched.push_back(std::move(ids));
    }
    return dispatched;
  };
  auto a = run_trace(2024);
  auto b = run_trace(2024);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, run_trace(2025));  // a different trace, almost surely

  // Structural invariants on the dispatched batches: exactly-once, FIFO
  // within each batch.
  std::set<int64_t> seen;
  for (const auto& batch : a) {
    EXPECT_TRUE(std::is_sorted(batch.begin(), batch.end()));
    for (int64_t id : batch) EXPECT_TRUE(seen.insert(id).second);
  }
}

// ---- Model replicas across buckets ----------------------------------------

TEST(Serving, ParamShapesAreCropInvariant) {
  model::ModelConfig base = tiny_model();
  model::MiniAlphaFold a(base.with_crop(8), 7);
  model::MiniAlphaFold b(base.with_crop(16), 7);
  auto pa = a.params().all(), pb = b.params().all();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].value().shape(), pb[i].value().shape());
  }
}

// ---- End-to-end service ----------------------------------------------------

TEST(Serving, EveryAdmittedRequestAnsweredExactlyOnce) {
  Service svc(tiny_serve(), tiny_data(), tiny_model());
  const int n = 12;
  for (int i = 0; i < n; ++i) svc.submit(i % 6);  // repeats exercise cache
  auto responses = svc.wait_all();
  ASSERT_EQ(responses.size(), static_cast<size_t>(n));
  std::set<int64_t> ids;
  for (const auto& r : responses) {
    EXPECT_TRUE(r.ok) << "request " << r.id;
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate response " << r.id;
    EXPECT_GT(r.positions.numel(), 0);
    EXPECT_GE(r.total_s, 0.0);
    EXPECT_GE(r.batch_size, 1);
  }
  EXPECT_EQ(svc.outstanding(), 0);
  auto stats = svc.stats();
  EXPECT_EQ(stats.admitted, n);
  EXPECT_EQ(stats.completed, n);
  EXPECT_EQ(stats.requests_dispatched, n);
  // 6 distinct (sequence, bucket) keys; the other 6 must hit.
  EXPECT_EQ(stats.cache_misses, 6);
  EXPECT_EQ(stats.cache_hits, 6);
}

// Injected failures at every serving stage (featurize, a forward inside a
// planner's capture or replay, respond) must still answer each admitted
// request exactly once, leave nothing outstanding, and leave no trace in
// later results: a clean round afterwards is bitwise what a never-faulted
// service returns.
TEST(Serving, FaultsStillAnswerEveryAdmittedRequestExactlyOnce) {
  struct ResetFaults {
    ~ResetFaults() { fault::reset(); }
  } teardown;
  const char* sites[] = {"serve.featurize", "serve.forward", "serve.respond"};
  uint64_t seed = 31;
  for (const char* site : sites) {
    fault::SiteConfig cfg;
    cfg.probability = 0.25;
    cfg.max_fires = -1;
    cfg.seed = seed++;
    fault::arm(site, cfg);
  }
  Service svc(tiny_serve(), tiny_data(), tiny_model());
  const int n = 24;
  std::set<int64_t> admitted;
  for (int i = 0; i < n; ++i) admitted.insert(svc.submit(i % 6));
  auto responses = svc.wait_all();

  std::set<int64_t> answered;
  int64_t failures = 0;
  for (const auto& r : responses) {
    if (r.reject != RejectReason::kNone) {
      admitted.erase(r.id);
      continue;
    }
    EXPECT_TRUE(answered.insert(r.id).second) << "duplicate response " << r.id;
    failures += r.ok ? 0 : 1;
  }
  EXPECT_EQ(answered, admitted);
  int64_t fires = 0;
  for (const char* site : sites) fires += fault::stats(site).fires;
  EXPECT_EQ(failures, fires);
  EXPECT_GT(fires, 0);  // hit counts, hence fire counts, are schedule-free
  EXPECT_EQ(svc.outstanding(), 0);
  // A forward that throws inside a replay is not a departure from the plan.
  EXPECT_EQ(svc.stats().plan_divergences, 0);

  fault::reset();
  Service clean(tiny_serve(), tiny_data(), tiny_model());
  for (int i = 0; i < 6; ++i) {
    svc.submit(i);
    clean.submit(i);
  }
  auto by_sample = [](std::vector<Response> rs) {
    std::map<int64_t, Response> out;
    for (auto& r : rs) {
      EXPECT_TRUE(r.ok) << "request " << r.id;
      out[r.sample_index] = std::move(r);
    }
    return out;
  };
  auto got = by_sample(svc.wait_all());
  auto want = by_sample(clean.wait_all());
  ASSERT_EQ(got.size(), 6u);
  ASSERT_EQ(want.size(), 6u);
  for (const auto& [sample, w] : want) {
    const Response& g = got.at(sample);
    ASSERT_EQ(g.positions.numel(), w.positions.numel()) << "sample " << sample;
    EXPECT_EQ(std::memcmp(g.positions.data(), w.positions.data(),
                          sizeof(float) * w.positions.numel()),
              0)
        << "sample " << sample;
  }
}

// The service must return bit-identical positions to a direct forward of
// the same weights at the request's bucket length — serving adds routing,
// never numerics.
TEST(Serving, DifferentialVsDirectForward) {
  model::ModelConfig base = tiny_model();
  model::MiniAlphaFold source(base.with_crop(16), 21);
  data::DatasetConfig dc = tiny_data();
  data::SyntheticProteinDataset ds(dc);

  ServeConfig sc = tiny_serve();
  Service svc(sc, dc, base, &source.params());
  const int64_t sample = 3;
  svc.submit(sample);
  auto responses = svc.wait_all();
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_TRUE(responses[0].ok);
  const int64_t bucket = responses[0].bucket_len;

  // Reference: a fresh replica with the same weights, direct forward.
  model::MiniAlphaFold ref(base.with_crop(bucket), 99);
  auto ref_params = ref.params().all();
  auto src_params = source.params().all();
  ASSERT_EQ(ref_params.size(), src_params.size());
  for (size_t i = 0; i < ref_params.size(); ++i) {
    ref_params[i].mutable_value().copy_from(src_params[i].value());
  }
  data::Batch batch = ds.prepare_batch(sample, bucket);
  auto out = ref.forward(batch, sc.num_recycles, /*compute_loss=*/true);

  ASSERT_EQ(out.positions.numel(), responses[0].positions.numel());
  EXPECT_EQ(std::memcmp(out.positions.data(), responses[0].positions.data(),
                        sizeof(float) * out.positions.numel()),
            0);
  EXPECT_FLOAT_EQ(out.lddt, responses[0].lddt);
}

TEST(Serving, OverloadRejectsWithQueueFullReason) {
  ServeConfig sc = tiny_serve();
  sc.admission.max_queue_depth = 1;
  Service svc(sc, tiny_data(), tiny_model());
  const int n = 8;
  for (int i = 0; i < n; ++i) svc.submit(i);
  auto responses = svc.wait_all();
  ASSERT_EQ(responses.size(), static_cast<size_t>(n));
  int ok = 0, rejected = 0;
  for (const auto& r : responses) {
    if (r.ok) {
      ++ok;
    } else {
      ++rejected;
      EXPECT_EQ(r.reject, RejectReason::kQueueFull);
      EXPECT_STREQ(reject_reason_name(r.reject), "queue_full");
    }
  }
  EXPECT_GE(ok, 1);
  // Submission is far faster than a model forward: with depth 1, at
  // least one of the back-to-back submits must have been turned away.
  EXPECT_GE(rejected, 1);
  EXPECT_EQ(svc.admission().rejected(), rejected);
}

TEST(Serving, WorkBudgetRejectReasonSurfaces) {
  ServeConfig sc = tiny_serve();
  sc.admission.max_queue_depth = 0;  // depth unbounded
  sc.admission.max_outstanding_work = estimate_work(16);  // one max-len slot
  Service svc(sc, tiny_data(), tiny_model());
  // Sample 1's sequence maps to the largest bucket or not — force the
  // issue by submitting many; the work budget admits at most a few short
  // requests concurrently, so rapid submits must reject with the reason.
  const int n = 10;
  for (int i = 0; i < n; ++i) svc.submit(i);
  auto responses = svc.wait_all();
  int rejected = 0;
  for (const auto& r : responses) {
    if (!r.ok) {
      ++rejected;
      EXPECT_EQ(r.reject, RejectReason::kWorkBudget);
    }
  }
  EXPECT_GE(rejected, 1);
}

TEST(Serving, SpanTrailCoversThePipeline) {
  obs::reset();
  obs::set_trace_enabled(true);
  {
    ServeConfig sc = tiny_serve();
    Service svc(sc, tiny_data(), tiny_model());
    svc.submit(0);
    svc.wait_all();
  }
  obs::set_trace_enabled(false);
  std::set<std::string> names;
  for (const auto& ev : obs::snapshot()) {
    if (std::string(ev.category) == "serve") names.insert(ev.name);
  }
  obs::reset();
  for (const char* expect :
       {"enqueue", "featurize", "batch", "forward", "respond"}) {
    EXPECT_TRUE(names.count(expect)) << "missing span " << expect;
  }
}

TEST(Serving, SessionMakeServerServesTrainedWeights) {
  core::ScaleFoldOptions opts;
  opts.dataset = tiny_data();
  opts.model = tiny_model();
  opts.dataset.crop_len = opts.model.crop_len;
  opts.dataset.msa_rows = opts.model.msa_rows;
  opts.train.warmup_steps = 0;
  opts.train.max_recycles = 1;
  opts.eval_samples = 0;
  opts.eval_every_steps = 0;
  opts.loader_workers = 1;
  opts.loader_prefetch = 2;
  core::TrainingSession session(opts);
  session.run(1);

  ServeConfig sc = tiny_serve();
  auto server = session.make_server(sc);
  server->submit(0);
  server->submit(1);
  auto responses = server->wait_all();
  ASSERT_EQ(responses.size(), 2u);
  for (const auto& r : responses) EXPECT_TRUE(r.ok);
}
