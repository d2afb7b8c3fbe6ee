#include "train/trainer.h"

#include <cmath>
#include <cstring>
#include <map>
#include <optional>

#include "common/error.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "dap/sharded_stack.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "train/checkpoint.h"

namespace sf::train {
namespace {

/// Keys holding optimizer state inside a combined trainer checkpoint;
/// model parameter names never collide with this prefix.
constexpr const char* kOptPrefix = "__opt__/";

}  // namespace

Trainer::Trainer(model::MiniAlphaFold& net, TrainConfig config)
    : net_(net),
      config_(config),
      opt_([&] {
        OptimizerConfig oc = config.opt;
        oc.adam.lr = config.base_lr;
        return Optimizer(net.params().all(), oc);
      }()),
      rng_(config.seed) {
  SF_CHECK(config_.min_recycles >= 1);
  SF_CHECK(config_.max_recycles >= config_.min_recycles);
  if (config_.num_threads > 0) sf::set_num_threads(config_.num_threads);
  if (config_.dap_world > 0) {
    dap_.net = &net_;
    dap_.exec =
        std::make_unique<dap::ShardedEvoformer>(net_, config_.dap_world);
    dap_.exec->set_capture(config_.capture_step);
    net_.set_trunk_executor(dap_.exec.get());
  }
}

Trainer::DapHook::~DapHook() {
  if (net && exec && net->trunk_executor() == exec.get()) {
    net->set_trunk_executor(nullptr);
  }
}

float Trainer::current_lr_scale() const {
  const int64_t s = opt_.step_count() + 1;
  float scale = 1.0f;
  if (config_.warmup_steps > 0 && s < config_.warmup_steps) {
    scale = static_cast<float>(s) / static_cast<float>(config_.warmup_steps);
  } else if (config_.total_steps > 0) {
    float progress =
        static_cast<float>(s - config_.warmup_steps) /
        static_cast<float>(std::max<int64_t>(1, config_.total_steps -
                                                    config_.warmup_steps));
    progress = std::min(1.0f, std::max(0.0f, progress));
    float cosine = 0.5f * (1.0f + std::cos(3.14159265f * progress));
    scale = config_.final_lr_frac + (1.0f - config_.final_lr_frac) * cosine;
  }
  return scale;
}

StepResult Trainer::train_step(const data::Batch& batch) {
  return train_step_accumulated({&batch, 1});
}

std::string Trainer::plan_key(std::span<const data::Batch> batches,
                              int64_t recycles) {
  // The allocation sequence of a step is a pure function of the recycling
  // count and the tensor shapes of every batch in the group.
  std::string key = "r" + std::to_string(recycles);
  for (const auto& b : batches) {
    key += "_c" + std::to_string(b.seq_onehot.shape()[0]) + "m" +
           std::to_string(b.msa_feat.shape()[0]);
  }
  return key;
}

graph::StepPlanner::Stats Trainer::capture_stats() const {
  graph::StepPlanner::Stats total;
  for (const auto& [key, entry] : planners_) {
    if (entry.planner == nullptr) continue;
    const auto s = entry.planner->stats();
    total.captures += s.captures;
    total.replays += s.replays;
    total.clean_replays += s.clean_replays;
    total.divergences += s.divergences;
    total.arena_bytes += s.arena_bytes;
    total.eager_peak_bytes += s.eager_peak_bytes;
    total.planned_buffers += s.planned_buffers;
    total.escaping_buffers += s.escaping_buffers;
  }
  return total;
}

int64_t Trainer::num_captured_shapes() const {
  int64_t n = 0;
  for (const auto& [key, entry] : planners_) {
    n += (entry.planner != nullptr && entry.planner->captured()) ? 1 : 0;
  }
  return n;
}

StepResult Trainer::train_step_accumulated(
    std::span<const data::Batch> batches) {
  SF_CHECK(!batches.empty());
  // AlphaFold samples the recycling depth once per step. Sampled here, in
  // the wrapper, so the step shape — and with it the memory plan — is
  // known before the step body runs.
  const int64_t recycles =
      config_.min_recycles +
      static_cast<int64_t>(rng_.uniform_int(static_cast<uint64_t>(
          config_.max_recycles - config_.min_recycles + 1)));

  if (!config_.capture_step) return step_impl(batches, recycles);

  PlanEntry& entry = planners_[plan_key(batches, recycles)];
  if (entry.warmups < graph::kCaptureWarmupRuns) {
    ++entry.warmups;
    return step_impl(batches, recycles);
  }
  if (entry.planner == nullptr) {
    entry.planner = std::make_unique<graph::StepPlanner>();
  }
  const bool replay = entry.planner->captured();
  StepResult result;
  if (replay) {
    SF_TRACE_SPAN_ARG("train", "step.planned", "planned", 1);
    entry.planner->run([&] { result = step_impl(batches, recycles); });
  } else {
    entry.planner->run([&] { result = step_impl(batches, recycles); });
  }
  return result;
}

StepResult Trainer::step_impl(std::span<const data::Batch> batches,
                              int64_t recycles) {
  SF_TRACE_SPAN_ID("train", "step", opt_.step_count());
  Timer timer;
  StepResult result;
  result.recycles = recycles;

  opt_.zero_grad();
  double loss_acc = 0.0, lddt_acc = 0.0;
  const float inv_b = 1.0f / static_cast<float>(batches.size());
  for (const auto& batch : batches) {
    model::ModelOutput out = [&] {
      SF_TRACE_SPAN_ID("train", "forward", batch.index);
      return net_.forward(batch, result.recycles, /*compute_loss=*/true);
    }();
    // Scale so accumulated grads average over the local batch.
    autograd::Var scaled = autograd::scale(out.loss, inv_b);
    {
      SF_TRACE_SPAN_ID("train", "backward", batch.index);
      autograd::backward(scaled);
    }
    loss_acc += out.loss.value().at(0);
    lddt_acc += out.lddt;
  }

  result.loss = static_cast<float>(loss_acc / batches.size());
  result.lddt = static_cast<float>(lddt_acc / batches.size());

  // The guard's norm, when computed, is the one the optimizer needs.
  std::optional<float> guard_norm;
  if (config_.skip_nonfinite_steps) {
    // NaN/Inf guard: a poisoned loss or gradient must not reach the
    // weights — Adam moments would stay contaminated for the rest of the
    // run. Skip the update, report it, keep going.
    const float norm = opt_.grad_norm();
    guard_norm = norm;
    if (!std::isfinite(loss_acc) || !std::isfinite(norm)) {
      opt_.zero_grad();
      ++skipped_steps_;
      obs::Registry::global().counter("train.skipped_steps").add();
      obs::emit_instant("train", "skipped_step", 0, opt_.step_count());
      result.skipped = true;
      result.grad_norm = norm;
      result.seconds = timer.elapsed();
      SF_LOG(kWarn) << "skipping non-finite step (loss " << result.loss
                    << ", grad norm " << norm << ")";
      return result;
    }
  }

  {
    SF_TRACE_SPAN("train", "optimizer");
    if (guard_norm && opt_.config().bucketed_grad_norm) {
      // grad_norm() runs the bucketed kernel step() would run: same bits.
      opt_.step_with_norm(*guard_norm, current_lr_scale());
    } else {
      opt_.step(current_lr_scale());
    }
  }
  result.grad_norm = opt_.last_grad_norm();
  result.seconds = timer.elapsed();
  obs::Registry::global()
      .histogram("train.step_seconds", 1e-4, 1e3, 24)
      .observe(result.seconds);
  return result;
}

std::string Trainer::checkpoint_to(const std::string& dir, int keep_last) {
  SF_TRACE_SPAN_ID("train", "checkpoint.save", opt_.step_count());
  std::map<std::string, Tensor> tensors;
  for (const auto& [name, v] : net_.params().named()) {
    tensors.emplace(name, v.value());
  }
  for (auto& [key, t] : opt_.export_state()) {
    tensors.emplace(kOptPrefix + key, std::move(t));
  }
  return CheckpointManager(dir, keep_last).save(opt_.step_count(), tensors);
}

int64_t Trainer::resume_from(const std::string& dir) {
  SF_TRACE_SPAN("train", "checkpoint.load");
  std::map<std::string, Tensor> tensors;
  const int64_t step = CheckpointManager(dir).load_latest(tensors);
  if (step < 0) return -1;

  std::map<std::string, Tensor> opt_state;
  for (auto it = tensors.begin(); it != tensors.end();) {
    if (it->first.rfind(kOptPrefix, 0) == 0) {
      opt_state.emplace(it->first.substr(std::strlen(kOptPrefix)),
                        std::move(it->second));
      it = tensors.erase(it);
    } else {
      ++it;
    }
  }

  // Validate the parameter plan before any write so a mismatched
  // checkpoint leaves model and optimizer untouched (import_state applies
  // the same validate-then-write discipline to the optimizer half).
  const auto& named = net_.params().named();
  for (const auto& [name, v] : named) {
    auto it = tensors.find(name);
    SF_CHECK(it != tensors.end()) << "checkpoint missing parameter" << name;
    SF_CHECK(it->second.shape() == v.shape())
        << "checkpoint shape mismatch for" << name;
  }
  opt_.import_state(opt_state);
  for (const auto& [name, v] : named) {
    const_cast<autograd::Var&>(v).mutable_value().copy_from(tensors.at(name));
  }
  SF_LOG(kInfo) << "resumed from step " << step << " in " << dir;
  return step;
}

}  // namespace sf::train
