#include "train/evaluator.h"

#include <condition_variable>
#include <filesystem>

#include "common/error.h"
#include "common/timer.h"
#include "model/metrics.h"
#include "model/rigid.h"
#include "train/checkpoint.h"

namespace sf::train {

EvalResult evaluate(const model::MiniAlphaFold& net,
                    std::span<const data::Batch> batches,
                    int64_t num_recycles) {
  Timer timer;
  EvalResult r;
  double lddt_acc = 0.0, loss_acc = 0.0, fape_acc = 0.0, drmsd_acc = 0.0,
         contact_acc = 0.0;
  for (const auto& batch : batches) {
    auto out = net.forward(batch, num_recycles, /*compute_loss=*/true);
    lddt_acc += out.lddt;
    loss_acc += out.loss.value().at(0);
    fape_acc += model::fape(out.positions, batch.target_pos,
                            batch.residue_mask);
    drmsd_acc += model::drmsd(out.positions, batch.target_pos,
                              batch.residue_mask);
    contact_acc += model::contact_precision(out.positions, batch.target_pos,
                                            batch.residue_mask);
    ++r.num_samples;
  }
  if (r.num_samples > 0) {
    r.avg_lddt = static_cast<float>(lddt_acc / r.num_samples);
    r.avg_loss = static_cast<float>(loss_acc / r.num_samples);
    r.avg_fape = static_cast<float>(fape_acc / r.num_samples);
    r.avg_drmsd = static_cast<float>(drmsd_acc / r.num_samples);
    r.avg_contact_precision =
        static_cast<float>(contact_acc / r.num_samples);
  }
  r.seconds = timer.elapsed();
  return r;
}

namespace {

std::map<std::string, Tensor> batch_to_tensors(const data::Batch& b) {
  return {
      {"index", Tensor::scalar(static_cast<float>(b.index))},
      {"seq_onehot", b.seq_onehot},
      {"msa_feat", b.msa_feat},
      {"template_feat", b.template_feat},
      {"target_pos", b.target_pos},
      {"residue_mask", b.residue_mask},
  };
}

data::Batch tensors_to_batch(std::map<std::string, Tensor> t) {
  data::Batch b;
  b.index = static_cast<int64_t>(t.at("index").at(0));
  b.seq_onehot = std::move(t.at("seq_onehot"));
  b.msa_feat = std::move(t.at("msa_feat"));
  b.template_feat = std::move(t.at("template_feat"));
  b.target_pos = std::move(t.at("target_pos"));
  b.residue_mask = std::move(t.at("residue_mask"));
  return b;
}

}  // namespace

EvalCache::EvalCache(const data::SyntheticProteinDataset& dataset,
                     std::vector<int64_t> indices, bool in_memory,
                     std::string disk_dir)
    : indices_(std::move(indices)),
      in_memory_(in_memory),
      disk_dir_(std::move(disk_dir)) {
  if (in_memory_) {
    memory_.reserve(indices_.size());
    for (int64_t idx : indices_) memory_.push_back(dataset.prepare_batch(idx));
  } else {
    std::filesystem::create_directories(disk_dir_);
    for (size_t i = 0; i < indices_.size(); ++i) {
      data::Batch b = dataset.prepare_batch(indices_[i]);
      save_tensors(disk_dir_ + "/eval_" + std::to_string(i) + ".bin",
                   batch_to_tensors(b));
    }
  }
}

data::Batch EvalCache::fetch(int64_t i) const {
  SF_CHECK(i >= 0 && i < size());
  if (in_memory_) {
    return memory_[i];  // tensors share buffers; cheap
  }
  return tensors_to_batch(
      load_tensors(disk_dir_ + "/eval_" + std::to_string(i) + ".bin"));
}

std::vector<data::Batch> EvalCache::fetch_all() const {
  std::vector<data::Batch> out;
  out.reserve(indices_.size());
  for (int64_t i = 0; i < size(); ++i) out.push_back(fetch(i));
  return out;
}

AsyncEvaluator::AsyncEvaluator(const model::ModelConfig& cfg,
                               std::shared_ptr<EvalCache> cache,
                               int64_t num_recycles)
    : replica_(cfg), cache_(std::move(cache)), num_recycles_(num_recycles) {
  SF_CHECK(cache_ != nullptr);
  worker_ = std::thread([this] { worker_loop(); });
}

AsyncEvaluator::~AsyncEvaluator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void AsyncEvaluator::submit(int64_t step,
                            const std::vector<autograd::Var>& weights) {
  Job job;
  job.step = step;
  job.weights.reserve(weights.size());
  for (const auto& w : weights) job.weights.push_back(w.value().clone());
  {
    std::lock_guard<std::mutex> lock(mu_);
    SF_CHECK(!stop_);
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
}

std::vector<AsyncEvaluator::Report> AsyncEvaluator::wait_all() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return jobs_.empty() && in_progress_ == 0; });
  std::vector<Report> out = std::move(done_);
  done_.clear();
  return out;
}

int64_t AsyncEvaluator::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(jobs_.size()) + in_progress_;
}

void AsyncEvaluator::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (stop_ && jobs_.empty()) return;
      job = std::move(jobs_.front());
      jobs_.pop_front();
      ++in_progress_;
    }
    // Install the snapshot into the replica (ParamStore iteration order is
    // deterministic: name-sorted).
    auto replica_params = replica_.params().all();
    SF_CHECK(replica_params.size() == job.weights.size())
        << "weight snapshot size mismatch";
    for (size_t i = 0; i < replica_params.size(); ++i) {
      replica_params[i].mutable_value().copy_from(job.weights[i]);
    }
    auto batches = cache_->fetch_all();
    EvalResult result = evaluate(replica_, batches, num_recycles_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_.push_back({job.step, result});
      --in_progress_;
    }
    cv_.notify_all();
  }
}

}  // namespace sf::train
