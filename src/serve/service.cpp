#include "serve/service.h"

#include <utility>

#include "common/error.h"
#include "common/fault.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sf::serve {

namespace {
struct ServeMetrics {
  obs::Counter& completed =
      obs::Registry::global().counter("serve.completed");
  obs::Counter& failed = obs::Registry::global().counter("serve.failed");
  obs::Histogram& total_s = obs::Registry::global().histogram(
      "serve.total_s", 1e-5, 100.0, 40);
  obs::Histogram& featurize_s = obs::Registry::global().histogram(
      "serve.featurize_s", 1e-6, 100.0, 40);
  obs::Histogram& forward_s = obs::Registry::global().histogram(
      "serve.forward_s", 1e-5, 100.0, 40);
  obs::Histogram& batch_size = obs::Registry::global().histogram(
      "serve.batch_size", 0.5, 64.0, 16);
};
ServeMetrics& metrics() {
  static ServeMetrics m;
  return m;
}
}  // namespace

Service::Service(ServeConfig config, data::DatasetConfig dataset_config,
                 model::ModelConfig base_model,
                 const model::ParamStore* source_weights)
    : config_(std::move(config)),
      dataset_(std::move(dataset_config)),
      admission_(config_.admission),
      cache_(config_.cache),
      scheduler_(config_.scheduler) {
  SF_CHECK(config_.feature_workers >= 1);
  SF_CHECK(config_.model_workers >= 1);
  // One replica set per model worker, one replica per bucket: forwards
  // never share a model object, so no forward ever waits on another.
  std::vector<Tensor> source;
  if (source_weights != nullptr) {
    for (const auto& p : source_weights->all()) {
      source.push_back(p.value());
    }
  }
  replicas_.resize(static_cast<size_t>(config_.model_workers));
  for (int w = 0; w < config_.model_workers; ++w) {
    for (int64_t bucket : config_.scheduler.bucket_lens) {
      auto net = std::make_unique<model::MiniAlphaFold>(
          base_model.with_crop(bucket), config_.model_seed);
      if (!source.empty()) {
        auto params = net->params().all();
        SF_CHECK(params.size() == source.size())
            << "source weight count mismatch:" << source.size() << "vs"
            << params.size();
        for (size_t i = 0; i < params.size(); ++i) {
          params[i].mutable_value().copy_from(source[i]);
        }
      }
      replicas_[static_cast<size_t>(w)][bucket] = std::move(net);
    }
    free_replica_sets_.push_back(static_cast<size_t>(w));
  }
  // Pre-create every (worker, bucket) plan entry so the maps are never
  // mutated structurally after construction — workers touch only their
  // leased slot's entries, stats() only reads.
  planners_.resize(static_cast<size_t>(config_.model_workers));
  for (int w = 0; w < config_.model_workers; ++w) {
    for (int64_t bucket : config_.scheduler.bucket_lens) {
      planners_[static_cast<size_t>(w)][bucket];
    }
  }
  feature_pool_ =
      std::make_unique<ThreadPool>(static_cast<size_t>(config_.feature_workers));
  model_pool_ =
      std::make_unique<ThreadPool>(static_cast<size_t>(config_.model_workers));
}

Service::~Service() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  // Drain everything in flight so pool teardown never races live state.
  wait_all();
  // wait_all() returns when the last response lands, but the feature
  // worker that enqueued it may still be about to publish a model task —
  // join the producer pool before its consumer pool is destroyed.
  feature_pool_.reset();
  model_pool_.reset();
}

int64_t Service::submit(int64_t sample_index) {
  const data::SampleMeta& meta = dataset_.meta(sample_index);
  const int64_t bucket = scheduler_.bucket_for(meta.seq_len);
  const double est = estimate_work(bucket);

  Request req;
  req.sample_index = sample_index;
  req.seq_len = meta.seq_len;
  req.bucket_len = bucket;
  req.est_work = est;
  req.t_submit_us = obs::trace_now_us();

  RejectReason reason = RejectReason::kNone;
  {
    std::lock_guard<std::mutex> lock(mu_);
    req.id = next_id_++;
    ++submitted_;
    if (stopping_) reason = RejectReason::kShutdown;
  }
  SF_TRACE_SPAN_ID("serve", "enqueue", req.id);
  if (reason == RejectReason::kNone) reason = admission_.try_admit(est);
  if (reason != RejectReason::kNone) {
    Response resp;
    resp.id = req.id;
    resp.sample_index = sample_index;
    resp.ok = false;
    resp.reject = reason;
    resp.total_s = (obs::trace_now_us() - req.t_submit_us) * 1e-6;
    finish(std::move(resp), est, /*admitted=*/false);
    return req.id;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    req.arrival_seq = next_arrival_++;
  }
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    ++outstanding_;
  }
  feature_pool_->submit([this, req] { featurize_task(req); });
  return req.id;
}

void Service::featurize_task(Request req) {
  try {
    SF_TRACE_SPAN_ID("serve", "featurize", req.id);
    Timer timer;
    QueuedItem item;
    const uint64_t key =
        FeatureCache::key(dataset_.sequence(req.sample_index), req.bucket_len);
    // Outside the cache's compute callback: a fire fails this request
    // alone, never the other waiters on the same key.
    SF_FAULT_POINT("serve.featurize", req.id);
    item.features = cache_.get_or_compute(
        key,
        [&] { return dataset_.prepare_batch(req.sample_index, req.bucket_len); },
        &item.cache_hit);
    item.featurize_s = timer.elapsed();
    metrics().featurize_s.observe(item.featurize_s);
    item.req = req;
    item.t_ready_us = obs::trace_now_us();
    {
      std::lock_guard<std::mutex> lock(mu_);
      scheduler_.enqueue(std::move(item));
    }
    model_pool_->submit([this] { model_drain_task(); });
  } catch (...) {
    fail_request(req);
  }
}

void Service::model_drain_task() {
  // Continuous batching: lease a replica set and keep refilling from the
  // scheduler until the queue is dry. Items enqueued meanwhile are either
  // taken here or by the task their own featurize submitted.
  size_t slot = 0;
  bool leased = false;
  for (;;) {
    std::vector<QueuedItem> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch = scheduler_.next_batch();
      if (batch.empty()) {
        if (leased) free_replica_sets_.push_back(slot);
        return;
      }
      if (!leased) {
        // The pool has exactly model_workers threads, one set each.
        SF_CHECK(!free_replica_sets_.empty()) << "replica lease underflow";
        slot = free_replica_sets_.back();
        free_replica_sets_.pop_back();
        leased = true;
      }
    }
    const double t_dispatch_us = obs::trace_now_us();
    const int64_t bucket = batch.front().req.bucket_len;
    metrics().batch_size.observe(static_cast<double>(batch.size()));
    SF_TRACE_SPAN_ID("serve", "batch",
                     static_cast<int64_t>(batch.size()));
    model::MiniAlphaFold& net = *replicas_[slot].at(bucket);
    for (QueuedItem& item : batch) {
      const Request& req = item.req;
      Response resp;
      resp.id = req.id;
      resp.sample_index = req.sample_index;
      resp.bucket_len = req.bucket_len;
      resp.batch_size = static_cast<int64_t>(batch.size());
      resp.cache_hit = item.cache_hit;
      resp.featurize_s = item.featurize_s;
      resp.queue_s =
          (item.t_ready_us - req.t_submit_us) * 1e-6 - item.featurize_s;
      resp.batch_wait_s = (t_dispatch_us - item.t_ready_us) * 1e-6;
      try {
        Timer fwd;
        Tensor positions;
        float lddt = 0.0f;
        auto forward_once = [&] {
          SF_TRACE_SPAN_ID("serve", "forward", req.id);
          SF_FAULT_POINT("serve.forward", req.id);
          model::ModelOutput out = net.forward(
              item.features, config_.num_recycles, /*compute_loss=*/true);
          // The response outlives this scope: clone the positions onto
          // the heap before the tape (and any arena slots backing it) is
          // torn down at the end of this lambda.
          AllocatorScope heap(heap_allocator());
          positions = out.positions.clone();
          lddt = out.lddt;
        };
        if (config_.planned_arenas) {
          PlanEntry& entry = planners_[slot].at(bucket);
          if (entry.warmups < graph::kCaptureWarmupRuns) {
            forward_once();
            ++entry.warmups;  // a forward that threw warmed nothing
          } else {
            if (entry.planner == nullptr) {
              entry.planner = std::make_unique<graph::StepPlanner>();
            }
            if (entry.planner->captured()) {
              SF_TRACE_SPAN_ARG("serve", "forward.planned", "planned", 1);
              entry.planner->run(forward_once);
            } else {
              entry.planner->run(forward_once);
            }
          }
        } else {
          forward_once();
        }
        resp.forward_s = fwd.elapsed();
        metrics().forward_s.observe(resp.forward_s);
        resp.positions = std::move(positions);
        resp.lddt = lddt;
        resp.ok = true;
        resp.total_s = (obs::trace_now_us() - req.t_submit_us) * 1e-6;
        SF_TRACE_SPAN_ID("serve", "respond", req.id);
        SF_FAULT_POINT("serve.respond", req.id);
        finish(std::move(resp), req.est_work, /*admitted=*/true);
      } catch (...) {
        fail_request(req);
      }
    }
  }
}

void Service::fail_request(const Request& req) {
  metrics().failed.add();
  Response resp;
  resp.id = req.id;
  resp.sample_index = req.sample_index;
  resp.bucket_len = req.bucket_len;
  resp.ok = false;
  resp.total_s = (obs::trace_now_us() - req.t_submit_us) * 1e-6;
  finish(std::move(resp), req.est_work, /*admitted=*/true);
}

void Service::finish(Response resp, double est_work, bool admitted) {
  if (admitted) {
    admission_.on_complete(est_work);
    if (resp.ok) {
      metrics().completed.add();
      metrics().total_s.observe(resp.total_s);
    }
  }
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done_.push_back(std::move(resp));
    ++completed_;
    if (admitted) --outstanding_;
  }
  cv_done_.notify_all();
}

std::vector<Response> Service::drain() {
  std::lock_guard<std::mutex> lock(done_mu_);
  std::vector<Response> out = std::move(done_);
  done_.clear();
  return out;
}

std::vector<Response> Service::wait_all() {
  std::unique_lock<std::mutex> lock(done_mu_);
  cv_done_.wait(lock, [this] { return outstanding_ == 0; });
  std::vector<Response> out = std::move(done_);
  done_.clear();
  return out;
}

int64_t Service::outstanding() const {
  std::lock_guard<std::mutex> lock(done_mu_);
  return outstanding_;
}

Service::Stats Service::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.submitted = submitted_;
    s.batches_dispatched = scheduler_.batches_dispatched();
    s.requests_dispatched = scheduler_.requests_dispatched();
  }
  s.admitted = admission_.admitted();
  s.rejected = admission_.rejected();
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    s.completed = completed_;
  }
  s.mean_batch_size =
      s.batches_dispatched > 0
          ? static_cast<double>(s.requests_dispatched) /
                static_cast<double>(s.batches_dispatched)
          : 0.0;
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  // Plan counters are exact once the service is quiescent (after
  // wait_all()); read mid-flight they may trail the leased workers.
  for (const auto& slot_map : planners_) {
    for (const auto& [bucket, entry] : slot_map) {
      if (entry.planner == nullptr) continue;
      const auto ps = entry.planner->stats();
      s.plan_captures += ps.captures;
      s.plan_replays += ps.replays;
      s.plan_clean_replays += ps.clean_replays;
      s.plan_divergences += ps.divergences;
      s.plan_arena_bytes += ps.arena_bytes;
    }
  }
  return s;
}

}  // namespace sf::serve
