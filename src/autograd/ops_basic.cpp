// Basic differentiable ops: arithmetic, linear, activations, reductions
// and losses.
#include <cmath>
#include <cstring>

#include "autograd/blocked.h"
#include "autograd/ops.h"
#include "common/error.h"
#include "kernels/elementwise.h"
#include "kernels/softmax.h"
#include "kernels/gemm.h"
#include "tensor/bfloat16.h"

namespace sf::autograd {

Var add(const Var& a, const Var& b) {
  Tensor out = a.value().add(b.value());
  auto an = a.node();
  auto bn = b.node();
  return make_op(std::move(out), {a, b}, [an, bn](const Tensor& up) {
    if (an->requires_grad) an->accumulate_grad(up);
    if (bn->requires_grad) bn->accumulate_grad(up);
  });
}

Var mul(const Var& a, const Var& b) {
  Tensor out = a.value().mul(b.value());
  auto an = a.node();
  auto bn = b.node();
  return make_op(std::move(out), {a, b}, [an, bn](const Tensor& up) {
    if (an->requires_grad) an->accumulate_grad(up.mul(bn->value));
    if (bn->requires_grad) bn->accumulate_grad(up.mul(an->value));
  });
}

Var scale(const Var& a, float s) {
  Tensor out = a.value().scale(s);
  auto an = a.node();
  return make_op(std::move(out), {a}, [an, s](const Tensor& up) {
    an->accumulate_grad(up.scale(s));
  });
}

Var linear(const Var& x, const Var& w, const Var* bias) {
  SF_CHECK(w.shape().size() == 2);
  const int64_t k = w.shape()[0];
  const int64_t n = w.shape()[1];
  SF_CHECK(!x.shape().empty() && x.shape().back() == k)
      << "linear input dim" << shape_str(x.shape()) << "vs W"
      << shape_str(w.shape());
  const int64_t rows = x.numel() / k;

  Shape out_shape = x.shape();
  out_shape.back() = n;
  Tensor out(out_shape);
  kernels::gemm(x.value().data(), w.value().data(), out.data(), rows, k, n);
  if (bias) {
    SF_CHECK(bias->numel() == n);
    kernels::bias_add(out.data(), bias->value().data(), out.data(), rows, n);
  }
  auto xn = x.node();
  auto wn = w.node();
  std::shared_ptr<Node> bn = bias ? bias->node() : nullptr;
  std::vector<Var> parents{x, w};
  if (bias) parents.push_back(*bias);
  return make_op(std::move(out), std::move(parents),
                 [xn, wn, bn, rows, k, n](const Tensor& up) {
    if (xn->requires_grad) {
      Tensor dx(xn->value.shape());
      kernels::linear_backward_input(up.data(), wn->value.data(), dx.data(),
                                     rows, k, n);
      xn->accumulate_grad(dx);
    }
    // dW and db reduce over rows: computed as fixed row-group partials
    // combined ascending (autograd/blocked.h) so DAP rank shards can
    // reproduce the identical summation tree.
    const int64_t nv = virtual_shard_count(rows);
    const int64_t vrows = rows / nv;
    if (wn->requires_grad) {
      Tensor dw({k, n});
      kernels::linear_backward_weight(xn->value.data(), up.data(), dw.data(),
                                      vrows, k, n);
      if (nv > 1) {
        Tensor part({k, n});
        for (int64_t g = 1; g < nv; ++g) {
          kernels::linear_backward_weight(xn->value.data() + g * vrows * k,
                                          up.data() + g * vrows * n,
                                          part.data(), vrows, k, n);
          dw.add_(part);
        }
      }
      wn->accumulate_grad(dw);
    }
    if (bn && bn->requires_grad) {
      Tensor db({n});
      Tensor part({n});
      for (int64_t g = 0; g < nv; ++g) {
        float* d = (g == 0) ? db.data() : part.data();
        if (g > 0) std::memset(d, 0, sizeof(float) * n);
        const float* u = up.data() + g * vrows * n;
        for (int64_t r = 0; r < vrows; ++r) {
          for (int64_t c = 0; c < n; ++c) d[c] += u[r * n + c];
        }
        if (g > 0) db.add_(part);
      }
      bn->accumulate_grad(db);
    }
  });
}

Var gelu(const Var& x) {
  Tensor out(x.shape());
  kernels::gelu_forward(x.value().data(), out.data(), x.numel());
  auto xn = x.node();
  return make_op(std::move(out), {x}, [xn](const Tensor& up) {
    Tensor dx(xn->value.shape());
    kernels::gelu_backward(xn->value.data(), up.data(), dx.data(),
                           xn->value.numel());
    xn->accumulate_grad(dx);
  });
}

Var glu(const Var& x, const Var& gate) {
  SF_CHECK(x.numel() == gate.numel());
  Tensor out(x.shape());
  kernels::fused_glu_forward(x.value().data(), gate.value().data(), out.data(),
                             x.numel());
  auto xn = x.node();
  auto gn = gate.node();
  return make_op(std::move(out), {x, gate}, [xn, gn](const Tensor& up) {
    Tensor dx(xn->value.shape());
    Tensor dg(gn->value.shape());
    kernels::fused_glu_backward(xn->value.data(), gn->value.data(), up.data(),
                                dx.data(), dg.data(), xn->value.numel());
    if (xn->requires_grad) xn->accumulate_grad(dx);
    if (gn->requires_grad) gn->accumulate_grad(dg);
  });
}

Var reshape(const Var& x, Shape shape) {
  Tensor out = x.value().reshape(std::move(shape));
  auto xn = x.node();
  return make_op(std::move(out), {x}, [xn](const Tensor& up) {
    xn->accumulate_grad(up.reshape(xn->value.shape()));
  });
}

Var stop_gradient(const Var& x) {
  return Var(x.value().clone(), /*requires_grad=*/false);
}

Var sum(const Var& x) {
  Tensor out = Tensor::scalar(x.value().sum());
  auto xn = x.node();
  return make_op(std::move(out), {x}, [xn](const Tensor& up) {
    Tensor dx = Tensor::full(xn->value.shape(), up.at(0));
    xn->accumulate_grad(dx);
  });
}

Var weighted_mse(const Var& x, const Tensor& target, const Tensor* weight) {
  SF_CHECK(x.numel() == target.numel());
  if (weight) { SF_CHECK(weight->numel() == x.numel()); }
  const int64_t n = x.numel();
  const float* xd = x.value().data();
  const float* t = target.data();
  const float* w = weight ? weight->data() : nullptr;
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    double d = xd[i] - t[i];
    acc += (w ? w[i] : 1.0f) * d * d;
  }
  Tensor out = Tensor::scalar(static_cast<float>(acc / n));
  auto xn = x.node();
  Tensor tc = target.clone();
  Tensor wc = weight ? weight->clone() : Tensor();
  return make_op(std::move(out), {x}, [xn, tc, wc, n](const Tensor& up) {
    Tensor dx(xn->value.shape());
    const float* xd = xn->value.data();
    const float* t = tc.data();
    const float* w = wc.defined() ? wc.data() : nullptr;
    float* d = dx.data();
    float g = up.at(0) * 2.0f / static_cast<float>(n);
    for (int64_t i = 0; i < n; ++i) {
      d[i] = g * (w ? w[i] : 1.0f) * (xd[i] - t[i]);
    }
    xn->accumulate_grad(dx);
  });
}


Var bf16_round_st(const Var& x) {
  Tensor out = x.value().clone();
  bf16_round_buffer(out.data(), static_cast<size_t>(out.numel()));
  auto xn = x.node();
  return make_op(std::move(out), {x}, [xn](const Tensor& up) {
    xn->accumulate_grad(up);  // straight-through estimator
  });
}


Var take_leading(const Var& x, int64_t k) {
  SF_CHECK(!x.shape().empty());
  const int64_t lead = x.shape()[0];
  SF_CHECK(k >= 1 && k <= lead) << "take_leading k out of range";
  Shape out_shape = x.shape();
  out_shape[0] = k;
  const int64_t n = shape_numel(out_shape);
  Tensor out(out_shape);
  std::memcpy(out.data(), x.value().data(), sizeof(float) * n);
  auto xn = x.node();
  return make_op(std::move(out), {x}, [xn, n](const Tensor& up) {
    Tensor dx(xn->value.shape());
    std::memcpy(dx.data(), up.data(), sizeof(float) * n);
    xn->accumulate_grad(dx);
  });
}


Var softmax_cross_entropy(const Var& logits,
                          const std::vector<int64_t>& targets,
                          const Tensor* row_weights) {
  SF_CHECK(logits.shape().size() == 2) << "cross entropy expects [N,C]";
  const int64_t n = logits.shape()[0];
  const int64_t c = logits.shape()[1];
  SF_CHECK(static_cast<int64_t>(targets.size()) == n);
  if (row_weights) { SF_CHECK(row_weights->numel() == n); }

  // Fused forward: per-row logsumexp + picked logit, probabilities kept
  // for the backward.
  Tensor probs({n, c});
  kernels::softmax_forward(logits.value().data(), probs.data(), n, c);
  const float* ld = logits.value().data();
  double loss_acc = 0.0;
  double weight_sum = 0.0;
  for (int64_t r = 0; r < n; ++r) {
    float w = row_weights ? row_weights->at(r) : 1.0f;
    if (w <= 0.0f) continue;
    int64_t t = targets[r];
    SF_CHECK(t >= 0 && t < c) << "target class" << t << "out of range";
    // -log softmax[t] computed stably from the saved probabilities.
    float p = std::max(probs.at(r * c + t), 1e-30f);
    loss_acc += -w * std::log(p);
    weight_sum += w;
    (void)ld;
  }
  float denom = weight_sum > 0.0 ? static_cast<float>(weight_sum) : 1.0f;
  Tensor out = Tensor::scalar(static_cast<float>(loss_acc) / denom);

  auto xn = logits.node();
  Tensor weights_copy = row_weights ? row_weights->clone() : Tensor();
  auto targets_copy = std::make_shared<std::vector<int64_t>>(targets);
  return make_op(std::move(out), {logits},
                 [xn, probs, weights_copy, targets_copy, n, c,
                  denom](const Tensor& up) {
    Tensor dx({n, c});
    const float* pd = probs.data();
    float* d = dx.data();
    const float g = up.at(0) / denom;
    for (int64_t r = 0; r < n; ++r) {
      float w = weights_copy.defined() ? weights_copy.at(r) : 1.0f;
      if (w <= 0.0f) continue;
      int64_t t = (*targets_copy)[r];
      for (int64_t j = 0; j < c; ++j) {
        d[r * c + j] = g * w * (pd[r * c + j] - (j == t ? 1.0f : 0.0f));
      }
    }
    xn->accumulate_grad(dx.reshape(xn->value.shape()));
  });
}


Var dropout_rows(const Var& x, float p, Rng& rng) {
  SF_CHECK(p >= 0.0f && p < 1.0f) << "dropout probability" << p;
  SF_CHECK(!x.shape().empty());
  if (p == 0.0f) return x;
  const float keep_scale = 1.0f / (1.0f - p);
  const int64_t rows = x.shape()[0];
  const int64_t inner = x.numel() / std::max<int64_t>(rows, 1);
  Tensor mask(x.shape());
  for (int64_t r = 0; r < rows; ++r) {
    float v = rng.bernoulli(p) ? 0.0f : keep_scale;
    for (int64_t i = 0; i < inner; ++i) mask.at(r * inner + i) = v;
  }
  Tensor out = x.value().mul(mask);
  auto xn = x.node();
  return make_op(std::move(out), {x}, [xn, mask](const Tensor& up) {
    xn->accumulate_grad(up.mul(mask));
  });
}

}  // namespace sf::autograd
