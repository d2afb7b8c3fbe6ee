#include "train/optimizer.h"

#include "common/error.h"

namespace sf::train {

Optimizer::Optimizer(std::vector<autograd::Var> params, OptimizerConfig config)
    : params_(std::move(params)), config_(config) {
  SF_CHECK(!params_.empty());
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  swa_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.push_back(Tensor::zeros(p.shape()));
    v_.push_back(Tensor::zeros(p.shape()));
    swa_.push_back(p.value().clone());  // SWA starts at the initial weights
  }
}

std::vector<kernels::ParamChunk> Optimizer::build_chunks() {
  std::vector<kernels::ParamChunk> chunks;
  chunks.reserve(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    auto node = params_[i].node();
    if (!node->grad.defined()) node->grad = Tensor::zeros(node->value.shape());
    kernels::ParamChunk c;
    c.param = node->value.data();
    c.grad = node->grad.data();
    c.exp_avg = m_[i].data();
    c.exp_avg_sq = v_[i].data();
    c.swa = config_.use_swa ? swa_[i].data() : nullptr;
    c.n = node->value.numel();
    chunks.push_back(c);
  }
  return chunks;
}

namespace {

/// Global gradient norm over per-tensor buckets (no copies).
float bucketed_norm(const std::vector<kernels::ParamChunk>& chunks) {
  std::vector<const float*> buckets;
  std::vector<int64_t> sizes;
  buckets.reserve(chunks.size());
  sizes.reserve(chunks.size());
  for (const auto& c : chunks) {
    buckets.push_back(c.grad);
    sizes.push_back(c.n);
  }
  return kernels::grad_norm_bucketed(buckets, sizes);
}

}  // namespace

void Optimizer::step(float lr_scale) {
  auto chunks = build_chunks();
  // Global gradient norm: bucketed (no copies) or concat (naive).
  const float norm = config_.bucketed_grad_norm
                         ? bucketed_norm(chunks)
                         : kernels::grad_norm_concat(chunks);
  apply_update(chunks, norm, lr_scale);
}

void Optimizer::step_with_norm(float precomputed_norm, float lr_scale) {
  auto chunks = build_chunks();
  apply_update(chunks, precomputed_norm, lr_scale);
}

void Optimizer::apply_update(std::vector<kernels::ParamChunk>& chunks,
                             float norm, float lr_scale) {
  SF_CHECK(!swa_swapped_) << "step() while SWA weights are swapped in";
  ++step_;
  last_grad_norm_ = norm;
  const float scale = kernels::clip_scale(norm, config_.clip_norm);

  kernels::AdamHyper hyper = config_.adam;
  hyper.lr *= lr_scale;

  if (config_.fused) {
    // One multi-tensor kernel: clip + Adam + SWA in a single sweep.
    kernels::fused_adam_swa_step(chunks, hyper, step_, config_.swa_decay,
                                 scale);
  } else {
    // Eager path: per-tensor clip kernels, per-tensor Adam passes,
    // per-tensor SWA passes.
    if (scale != 1.0f) {
      kernels::grad_scale_per_tensor(chunks, scale);
    }
    for (auto& c : chunks) {
      kernels::adam_step_unfused(c, hyper, step_);
      if (c.swa) {
        kernels::swa_update_unfused(c.swa, c.param, c.n, config_.swa_decay);
      }
    }
  }
}

float Optimizer::grad_norm() { return bucketed_norm(build_chunks()); }

std::map<std::string, Tensor> Optimizer::export_state() const {
  SF_CHECK(!swa_swapped_) << "export_state() while SWA weights are swapped in";
  std::map<std::string, Tensor> state;
  for (size_t i = 0; i < params_.size(); ++i) {
    const std::string suffix = std::to_string(i);
    // Clone: the exported map must be a snapshot, not an alias of the
    // live state (Tensor copies share the buffer).
    state.emplace("m." + suffix, m_[i].clone());
    state.emplace("v." + suffix, v_[i].clone());
    state.emplace("swa." + suffix, swa_[i].clone());
  }
  Tensor step({1});
  step.data()[0] = static_cast<float>(step_);
  state.emplace("step", std::move(step));
  return state;
}

void Optimizer::import_state(const std::map<std::string, Tensor>& state) {
  SF_CHECK(!swa_swapped_) << "import_state() while SWA weights are swapped in";
  auto fetch = [&](const std::string& key) -> const Tensor& {
    auto it = state.find(key);
    SF_CHECK(it != state.end()) << "optimizer state missing" << key;
    return it->second;
  };
  // Validate shapes before the first write: a bad state map must not
  // leave the optimizer half-restored.
  for (size_t i = 0; i < params_.size(); ++i) {
    const std::string suffix = std::to_string(i);
    for (const char* prefix : {"m.", "v.", "swa."}) {
      SF_CHECK(fetch(prefix + suffix).shape() == params_[i].shape())
          << "optimizer state shape mismatch for" << prefix + suffix;
    }
  }
  SF_CHECK(fetch("step").numel() == 1);
  for (size_t i = 0; i < params_.size(); ++i) {
    const std::string suffix = std::to_string(i);
    m_[i].copy_from(fetch("m." + suffix));
    v_[i].copy_from(fetch("v." + suffix));
    swa_[i].copy_from(fetch("swa." + suffix));
  }
  step_ = static_cast<int64_t>(fetch("step").data()[0]);
}

void Optimizer::zero_grad() {
  for (auto& p : params_) p.zero_grad();
}

void Optimizer::swap_in_swa() {
  SF_CHECK(config_.use_swa) << "SWA disabled";
  SF_CHECK(!swa_swapped_);
  saved_live_.clear();
  saved_live_.reserve(params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    saved_live_.push_back(params_[i].value().clone());
    params_[i].mutable_value().copy_from(swa_[i]);
  }
  swa_swapped_ = true;
}

void Optimizer::restore_live() {
  SF_CHECK(swa_swapped_);
  for (size_t i = 0; i < params_.size(); ++i) {
    params_[i].mutable_value().copy_from(saved_live_[i]);
  }
  saved_live_.clear();
  swa_swapped_ = false;
}

}  // namespace sf::train
