#include "train/data_parallel.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <thread>

#include "autograd/var.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "kernels/optimizer_kernels.h"
#include "obs/trace.h"

namespace sf::train {

DataParallelTrainer::DataParallelTrainer(const model::ModelConfig& cfg,
                                         TrainConfig train_cfg,
                                         int world_size, uint64_t model_seed)
    : model_cfg_(cfg),
      model_seed_(model_seed),
      world_size_(world_size),
      train_cfg_(train_cfg),
      comm_(std::make_unique<dap::Communicator>(world_size)),
      recycle_rng_(train_cfg.seed) {
  SF_CHECK(world_size >= 1);
  OptimizerConfig oc = train_cfg_.opt;
  oc.adam.lr = train_cfg_.base_lr;
  for (int r = 0; r < world_size; ++r) {
    // Identical seed => identical initialization on every replica.
    replicas_.push_back(
        std::make_unique<model::MiniAlphaFold>(cfg, model_seed));
    optimizers_.push_back(
        std::make_unique<Optimizer>(replicas_.back()->params().all(), oc));
    rank_params_.push_back(replicas_.back()->params().all());
    if (train_cfg_.overlap_grad_comm) {
      // Identical parameter lists => identical bucket layout on every
      // rank, the invariant the async launch-order matching relies on.
      bucket_stores_.push_back(std::make_unique<BucketStore>(
          rank_params_.back(), train_cfg_.grad_bucket_bytes));
    }
  }
  losses_.assign(world_size_, 0.0f);
  lddts_.assign(world_size_, 0.0f);
  grad_norms_.assign(world_size_, 0.0f);
}

void DataParallelTrainer::remove_ranks(const std::vector<char>& dead,
                                       int steps_lost,
                                       double detect_seconds) {
  Timer timer;
  const int old_ws = world_size_;
  int survivors = 0;
  for (char d : dead) survivors += d ? 0 : 1;
  SF_CHECK(survivors >= 1) << "no surviving ranks to shrink to";
  // Rebuild the communicator *before* dropping replicas: constructing the
  // new one and destroying the old joins the old comm thread, so no
  // in-flight reduction can still touch a dying replica's bucket buffers.
  comm_ = std::make_unique<dap::Communicator>(survivors);
  for (int r = old_ws - 1; r >= 0; --r) {
    if (!dead[r]) continue;
    replicas_.erase(replicas_.begin() + r);
    optimizers_.erase(optimizers_.begin() + r);
    rank_params_.erase(rank_params_.begin() + r);
    if (!bucket_stores_.empty()) {
      bucket_stores_.erase(bucket_stores_.begin() + r);
    }
  }
  world_size_ = survivors;
  losses_.assign(world_size_, 0.0f);
  lddts_.assign(world_size_, 0.0f);
  grad_norms_.assign(world_size_, 0.0f);
  elastic_events_.push_back({step_, old_ws, world_size_, old_ws - survivors,
                             steps_lost, detect_seconds + timer.elapsed()});
  obs::emit_instant("ddp", "shrink", 0, world_size_);
}

void DataParallelTrainer::shrink_to(int new_world_size) {
  SF_CHECK(new_world_size >= 1 && new_world_size <= world_size_);
  if (new_world_size == world_size_) return;
  // Every replica holds the same bits; dropping the top ranks loses
  // nothing.
  std::vector<char> dead(world_size_, 0);
  for (int r = new_world_size; r < world_size_; ++r) dead[r] = 1;
  const auto n_events = elastic_events_.size();
  remove_ranks(dead, /*steps_lost=*/0, /*detect_seconds=*/0.0);
  elastic_events_[n_events].ranks_lost = 0;  // planned, not killed
}

void DataParallelTrainer::grow_to(int new_world_size) {
  SF_CHECK(new_world_size >= world_size_);
  if (new_world_size == world_size_) return;
  Timer timer;
  const int old_ws = world_size_;
  OptimizerConfig oc = train_cfg_.opt;
  oc.adam.lr = train_cfg_.base_lr;
  // In-memory state transfer: the new rank's params and full
  // optimizer/SWA state are bit-exact copies of rank 0's — the elastic
  // "re-shard" never touches disk. (With replicated DP state, re-sharding
  // degenerates to replication; the bucket layout is recomputed from the
  // parameter list and is identical by construction.)
  const auto state = optimizers_[0]->export_state();
  for (int r = old_ws; r < new_world_size; ++r) {
    replicas_.push_back(
        std::make_unique<model::MiniAlphaFold>(model_cfg_, model_seed_));
    auto params = replicas_.back()->params().all();
    SF_CHECK(params.size() == rank_params_[0].size());
    for (size_t i = 0; i < params.size(); ++i) {
      params[i].node()->value.copy_from(rank_params_[0][i].value());
    }
    optimizers_.push_back(std::make_unique<Optimizer>(params, oc));
    optimizers_.back()->import_state(state);
    rank_params_.push_back(std::move(params));
    if (train_cfg_.overlap_grad_comm) {
      bucket_stores_.push_back(std::make_unique<BucketStore>(
          rank_params_.back(), train_cfg_.grad_bucket_bytes));
    }
  }
  comm_ = std::make_unique<dap::Communicator>(new_world_size);
  world_size_ = new_world_size;
  losses_.assign(world_size_, 0.0f);
  lddts_.assign(world_size_, 0.0f);
  grad_norms_.assign(world_size_, 0.0f);
  elastic_events_.push_back(
      {step_, old_ws, world_size_, 0, 0, timer.elapsed()});
  obs::emit_instant("ddp", "grow", 0, world_size_);
}

void DataParallelTrainer::rank_step_blocking(int rank,
                                             const data::Batch& batch,
                                             int64_t recycles, float lr_scale,
                                             float inv_w) {
  // Step-boundary fault site: hit exactly world_size times per step, so a
  // kill armed here has a deterministic hit-count position in the run.
  SF_FAULT_POINT("ddp.rank_step", rank);
  auto& net = *replicas_[rank];
  auto& opt = *optimizers_[rank];
  opt.zero_grad();
  auto out = net.forward(batch, recycles, /*compute_loss=*/true);
  {
    SF_TRACE_SPAN_ID("ddp", "backward", rank);
    autograd::backward(out.loss);
  }
  losses_[rank] = out.loss.value().at(0);
  lddts_[rank] = out.lddt;

  // Gradient all-reduce: average across the DP group, one bucket per
  // parameter tensor (the DDP gradient buffers of §3.3.1).
  for (auto& p : rank_params_[rank]) {
    auto node = p.node();
    if (!node->grad.defined()) {
      node->grad = Tensor::zeros(node->value.shape());
    }
    comm_->all_reduce_sum(rank, node->grad.span());
    node->grad.scale_(inv_w);
  }
  if (train_cfg_.elastic_world) {
    // Commit barrier (all-or-nothing): a killed rank never reaches this
    // rendezvous, so either every survivor passes it and applies the
    // update, or every survivor throws out of it and nobody does —
    // surviving replicas cannot diverge across a mid-step rank loss.
    comm_->barrier(rank);
  }
  opt.step(lr_scale);
  grad_norms_[rank] = opt.last_grad_norm();
}

void DataParallelTrainer::rank_step_overlapped(int rank,
                                               const data::Batch& batch,
                                               int64_t recycles,
                                               float lr_scale, float inv_w) {
  SF_FAULT_POINT("ddp.rank_step", rank);
  auto& net = *replicas_[rank];
  auto& opt = *optimizers_[rank];
  auto& store = *bucket_stores_[rank];
  const auto& params = rank_params_[rank];

  opt.zero_grad();
  auto out = net.forward(batch, recycles, /*compute_loss=*/true);
  losses_[rank] = out.loss.value().at(0);
  lddts_[rank] = out.lddt;

  store.reset_pending();
  const int nb = store.num_buckets();
  std::vector<dap::Communicator::AsyncHandle> handles(nb);
  std::vector<bool> launched(nb, false);

  // Grad-ready hooks: when a bucket's last gradient lands, pack it and
  // launch its async reduction — comm overlaps the rest of backward.
  // Every rank's tape is structurally identical, so the hooks fire in the
  // same order everywhere and the per-rank async launch sequences match.
  autograd::set_grad_ready_hooks(params, [&](size_t param_index) {
    const int b = store.on_grad_ready(param_index);
    if (b < 0) return;
    SF_FAULT_POINT("ddp.bucket_launch", b);
    SF_TRACE_SPAN_ID("ddp", "bucket_pack", b);
    store.pack(b);
    handles[b] = comm_->all_reduce_sum_async(rank, store.flat(b),
                                             /*tag=*/b);
    launched[b] = true;
  });
  {
    SF_TRACE_SPAN_ID("ddp", "backward", rank);
    autograd::backward(out.loss);
  }

  // Drain buckets in index order: wait, scatter the averaged gradients
  // back, and accumulate per-tensor squared-norm partials so the clip
  // norm is known the moment the last bucket lands (clip overlap).
  std::vector<double> partials(store.num_params(), 0.0);
  std::vector<const float*> grad_ptrs;
  std::vector<int64_t> grad_sizes;
  std::vector<double> bucket_partials;
  for (int b = 0; b < nb; ++b) {
    SF_CHECK(launched[b]) << "bucket" << b << "never launched";
    SF_FAULT_POINT("ddp.bucket_wait", b);
    handles[b].wait();
    SF_TRACE_SPAN_ID("ddp", "bucket_unpack", b);
    store.unpack(b, inv_w);
    const auto& slices = store.bucket(b);
    grad_ptrs.clear();
    grad_sizes.clear();
    for (const BucketSlice& s : slices) {
      grad_ptrs.push_back(params[s.param_index].node()->grad.data());
      grad_sizes.push_back(s.numel);
    }
    bucket_partials.assign(slices.size(), 0.0);
    kernels::grad_sq_sum_partials(grad_ptrs, grad_sizes,
                                  bucket_partials.data());
    for (size_t j = 0; j < slices.size(); ++j) {
      partials[slices[j].param_index] = bucket_partials[j];
    }
  }
  // Partials combine in parameter order — bit-identical to the blocking
  // Optimizer::step's grad_norm_bucketed over per-tensor buckets.
  const float norm = kernels::grad_norm_from_partials(partials);
  if (train_cfg_.elastic_world) {
    // Commit barrier (all-or-nothing): a killed rank never reaches this
    // rendezvous, so either every survivor passes it and applies the
    // update, or every survivor throws out of it and nobody does —
    // surviving replicas cannot diverge across a mid-step rank loss.
    comm_->barrier(rank);
  }
  opt.step_with_norm(norm, lr_scale);
  grad_norms_[rank] = opt.last_grad_norm();
}

StepResult DataParallelTrainer::train_step(
    std::span<const data::Batch> batches) {
  SF_CHECK(static_cast<int>(batches.size()) == world_size_)
      << "need one batch per rank";
  Timer timer;
  ++step_;
  // Recycling depth sampled once per step, shared by all ranks (the
  // paper's training recipe: one sampled depth per global step).
  const int64_t recycles =
      train_cfg_.min_recycles +
      static_cast<int64_t>(recycle_rng_.uniform_int(static_cast<uint64_t>(
          train_cfg_.max_recycles - train_cfg_.min_recycles + 1)));
  // LR schedule identical on every rank.
  const int64_t s = step_;
  float lr_scale = 1.0f;
  if (train_cfg_.warmup_steps > 0 && s < train_cfg_.warmup_steps) {
    lr_scale = static_cast<float>(s) /
               static_cast<float>(train_cfg_.warmup_steps);
  }

  const float inv_w = 1.0f / static_cast<float>(world_size_);
  std::vector<std::exception_ptr> errors(world_size_);
  std::vector<char> killed(world_size_, 0);
  // Commit detector for the elastic path: the commit barrier guarantees
  // survivors either all advanced their optimizer past this count or none
  // did.
  const int64_t opt_steps_before = optimizers_[0]->step_count();

  auto rank_fn = [&](int rank) {
    try {
      if (train_cfg_.overlap_grad_comm) {
        rank_step_overlapped(rank, batches[rank], recycles, lr_scale, inv_w);
      } else {
        rank_step_blocking(rank, batches[rank], recycles, lr_scale, inv_w);
      }
    } catch (const fault::WorkerKill& kill) {
      if (train_cfg_.elastic_world) {
        killed[rank] = 1;
        // Failure detection: wake every peer parked on any collective
        // (async wait or blocking rendezvous) so loss of this rank is
        // observed in bounded time instead of hanging the step.
        comm_->abort("rank " + std::to_string(rank) +
                     " lost: " + kill.what());
        return;
      }
      errors[rank] = std::current_exception();
      comm_->abort("rank " + std::to_string(rank) + " failed mid-step");
    } catch (...) {
      errors[rank] = std::current_exception();
      // Wake peers blocked on collectives this rank will never join, so a
      // single failing rank cannot hang the step.
      comm_->abort("rank " + std::to_string(rank) + " failed mid-step");
    }
  };

  if (world_size_ == 1) {
    rank_fn(0);  // one rank keeps the caller's full intra-op count
  } else {
    // Each rank thread gets an equal share of the intra-op threads.
    // Kernels are bitwise identical at any thread count.
    const int budget = IntraOpBudget::rank_share(world_size_);
    std::vector<std::thread> threads;
    for (int r = 0; r < world_size_; ++r) {
      threads.emplace_back([&rank_fn, budget, r] {
        IntraOpBudget share(budget);
        rank_fn(r);
      });
    }
    for (auto& t : threads) t.join();
  }

  int ranks_lost = 0;
  for (char k : killed) ranks_lost += k ? 1 : 0;

  if (ranks_lost > 0) {
    // Elastic recovery (all rank threads are quiesced by the joins above).
    const double detect_seconds = timer.elapsed();
    if (ranks_lost == world_size_) {
      comm_->recover();
      throw Error("elastic step lost all " + std::to_string(world_size_) +
                  " ranks; nothing to recover onto");
    }
    // Did the interrupted update commit? The commit barrier makes this
    // all-or-nothing across survivors; assert that invariant held.
    bool applied = false;
    bool first = true;
    for (int r = 0; r < world_size_; ++r) {
      if (killed[r]) continue;
      const bool rank_applied = optimizers_[r]->step_count() > opt_steps_before;
      if (first) {
        applied = rank_applied;
        first = false;
      } else {
        SF_CHECK(rank_applied == applied)
            << "survivors disagree on step commit; elastic all-or-nothing "
               "invariant broken";
      }
      // Survivor errors here are abort fallout (thrown collectives), not
      // independent failures: the resize subsumes them.
      errors[r] = nullptr;
    }
    const bool discarded = !applied;
    StepResult result;
    result.recycles = recycles;
    result.ranks_lost = ranks_lost;
    result.lost_to_fault = discarded;
    if (applied) {
      // Commit implies every rank (including the ones killed afterwards)
      // finished forward, so all old-world losses are valid and this is
      // exactly the mean the applied update used. Capture before
      // remove_ranks resets the metric vectors.
      for (int r = 0; r < world_size_; ++r) {
        result.loss += losses_[r] * inv_w;
        result.lddt += lddts_[r] * inv_w;
      }
      for (int r = 0; r < world_size_; ++r) {
        if (!killed[r]) {
          result.grad_norm = grad_norms_[r];
          break;
        }
      }
    } else {
      --step_;  // the step number is retried at the new size
    }
    remove_ranks(killed, discarded ? 1 : 0, detect_seconds);
    result.seconds = timer.elapsed();
    return result;
  }

  for (int r = 0; r < world_size_; ++r) {
    if (errors[r]) {
      // All rank threads are joined: safe to reset the abort/async
      // machinery so the communicator (and trainer) stay usable after the
      // failure.
      comm_->recover();
      std::rethrow_exception(errors[r]);
    }
  }

  StepResult result;
  result.recycles = recycles;
  for (int r = 0; r < world_size_; ++r) {
    result.loss += losses_[r] * inv_w;
    result.lddt += lddts_[r] * inv_w;
  }
  result.grad_norm = grad_norms_[0];
  result.seconds = timer.elapsed();
  return result;
}

float DataParallelTrainer::replica_divergence(int rank) const {
  SF_CHECK(rank >= 0 && rank < world_size_);
  auto base = replicas_[0]->params().all();
  auto other = replicas_[rank]->params().all();
  float max_diff = 0.0f;
  for (size_t i = 0; i < base.size(); ++i) {
    max_diff =
        std::max(max_diff, base[i].value().max_abs_diff(other[i].value()));
  }
  return max_diff;
}

}  // namespace sf::train
