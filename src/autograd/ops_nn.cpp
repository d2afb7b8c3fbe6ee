// Neural-net ops: LayerNorm, multi-head attention (naive/flash), head
// splitting and permutations.
#include <cstring>

#include "autograd/blocked.h"
#include "autograd/ops.h"
#include "common/error.h"
#include "kernels/layernorm.h"

namespace sf::autograd {

Var layernorm(const Var& x, const Var& gamma, const Var& beta, float eps,
              bool fused) {
  const int64_t cols = x.shape().back();
  SF_CHECK(gamma.numel() == cols && beta.numel() == cols);
  const int64_t rows = x.numel() / cols;

  Tensor out(x.shape());
  auto stats = std::make_shared<kernels::LayerNormStats>();
  if (fused) {
    kernels::layernorm_forward_fused(x.value().data(), gamma.value().data(),
                                     beta.value().data(), out.data(), rows,
                                     cols, eps, stats.get());
  } else {
    kernels::layernorm_forward_naive(x.value().data(), gamma.value().data(),
                                     beta.value().data(), out.data(), rows,
                                     cols, eps, stats.get());
  }
  auto xn = x.node();
  auto gn = gamma.node();
  auto bn = beta.node();
  return make_op(std::move(out), {x, gamma, beta},
                 [xn, gn, bn, stats, rows, cols, fused](const Tensor& up) {
    Tensor dx(xn->value.shape());
    Tensor dgamma({cols});
    Tensor dbeta({cols});
    // dgamma/dbeta reduce over rows: computed per fixed row group with the
    // group's stats slice, combined ascending (autograd/blocked.h). dx rows
    // depend only on their own row + stats, so slicing the extent leaves
    // them bitwise-unchanged.
    const int64_t nv = virtual_shard_count(rows);
    const int64_t vrows = rows / nv;
    Tensor pg({cols});
    Tensor pb({cols});
    kernels::LayerNormStats gstats;
    for (int64_t g = 0; g < nv; ++g) {
      const kernels::LayerNormStats* st = stats.get();
      if (nv > 1) {
        gstats.mean.assign(stats->mean.begin() + g * vrows,
                           stats->mean.begin() + (g + 1) * vrows);
        gstats.rstd.assign(stats->rstd.begin() + g * vrows,
                           stats->rstd.begin() + (g + 1) * vrows);
        st = &gstats;
      }
      float* dgp = (g == 0) ? dgamma.data() : pg.data();
      float* dbp = (g == 0) ? dbeta.data() : pb.data();
      const float* xg = xn->value.data() + g * vrows * cols;
      const float* ug = up.data() + g * vrows * cols;
      float* dxg = dx.data() + g * vrows * cols;
      if (fused) {
        kernels::layernorm_backward_fused(xg, gn->value.data(), ug, *st, dxg,
                                          dgp, dbp, vrows, cols);
      } else {
        kernels::layernorm_backward_naive(xg, gn->value.data(), ug, *st, dxg,
                                          dgp, dbp, vrows, cols);
      }
      if (g > 0) {
        dgamma.add_(pg);
        dbeta.add_(pb);
      }
    }
    if (xn->requires_grad) xn->accumulate_grad(dx);
    if (gn->requires_grad) gn->accumulate_grad(dgamma);
    if (bn->requires_grad) bn->accumulate_grad(dbeta);
  });
}

Var mha(const Var& q, const Var& k, const Var& v, const Var* pair_bias,
        const Tensor* mask, bool use_flash) {
  SF_CHECK(q.shape().size() == 4) << "mha expects [B,H,S,D]";
  kernels::AttentionDims dims;
  dims.batch = q.shape()[0];
  dims.heads = q.shape()[1];
  dims.q_len = q.shape()[2];
  dims.head_dim = q.shape()[3];
  dims.k_len = k.shape()[2];
  SF_CHECK(k.shape()[0] == dims.batch && k.shape()[1] == dims.heads);
  SF_CHECK(v.shape() == k.shape());
  if (pair_bias) {
    SF_CHECK(pair_bias->numel() == dims.bias_numel())
        << "pair bias must be [H,Sq,Sk]";
  }
  if (mask) { SF_CHECK(mask->numel() == dims.batch * dims.k_len); }

  Tensor out(q.shape());
  auto ctx = std::make_shared<kernels::AttentionContext>();
  const float* bias_ptr = pair_bias ? pair_bias->value().data() : nullptr;
  const float* mask_ptr = mask ? mask->data() : nullptr;
  if (use_flash) {
    kernels::mha_forward_flash(dims, q.value().data(), k.value().data(),
                               v.value().data(), bias_ptr, mask_ptr,
                               out.data(), ctx.get());
  } else {
    kernels::mha_forward_naive(dims, q.value().data(), k.value().data(),
                               v.value().data(), bias_ptr, mask_ptr,
                               out.data(), ctx.get());
  }

  auto qn = q.node();
  auto kn = k.node();
  auto vn = v.node();
  std::shared_ptr<Node> biasn = pair_bias ? pair_bias->node() : nullptr;
  std::vector<Var> parents{q, k, v};
  if (pair_bias) parents.push_back(*pair_bias);
  Tensor mask_copy = mask ? mask->clone() : Tensor();
  Tensor out_copy = out;  // flash backward needs the forward output

  return make_op(std::move(out), std::move(parents),
                 [qn, kn, vn, biasn, ctx, dims, use_flash, mask_copy,
                  out_copy](const Tensor& up) {
    Tensor dq(qn->value.shape());
    Tensor dk(kn->value.shape());
    Tensor dv(vn->value.shape());
    Tensor dbias = biasn ? Tensor({dims.heads, dims.q_len, dims.k_len})
                         : Tensor();
    const float* bias_ptr = biasn ? biasn->value.data() : nullptr;
    const float* mask_ptr = mask_copy.defined() ? mask_copy.data() : nullptr;
    // dbias reduces over batch: when present (and the batch splits into
    // virtual shards), run the backward kernel per fixed batch group and
    // combine the dbias partials ascending (autograd/blocked.h). dq/dk/dv
    // are per-(b,h) — batch-major layouts make the sliced calls write the
    // same bits into their group's slice.
    const int64_t nv = biasn ? virtual_shard_count(dims.batch) : 1;
    const int64_t vb = dims.batch / nv;
    kernels::AttentionDims gd = dims;
    gd.batch = vb;
    Tensor bias_part =
        (biasn && nv > 1) ? Tensor({dims.heads, dims.q_len, dims.k_len})
                          : Tensor();
    kernels::AttentionContext gctx;
    for (int64_t g = 0; g < nv; ++g) {
      const kernels::AttentionContext* cptr = ctx.get();
      if (nv > 1) {
        if (use_flash) {
          const int64_t per = dims.heads * dims.q_len;
          gctx.lse.assign(ctx->lse.begin() + g * vb * per,
                          ctx->lse.begin() + (g + 1) * vb * per);
        } else {
          const int64_t per = dims.heads * dims.q_len * dims.k_len;
          gctx.probs.assign(ctx->probs.begin() + g * vb * per,
                            ctx->probs.begin() + (g + 1) * vb * per);
        }
        cptr = &gctx;
      }
      const int64_t qoff = g * vb * dims.heads * dims.q_len * dims.head_dim;
      const int64_t koff = g * vb * dims.heads * dims.k_len * dims.head_dim;
      float* dbias_ptr =
          biasn ? ((g == 0) ? dbias.data() : bias_part.data()) : nullptr;
      if (use_flash) {
        kernels::mha_backward_flash(
            gd, qn->value.data() + qoff, kn->value.data() + koff,
            vn->value.data() + koff, bias_ptr,
            mask_ptr ? mask_ptr + g * vb * dims.k_len : nullptr,
            out_copy.data() + qoff, up.data() + qoff, *cptr, dq.data() + qoff,
            dk.data() + koff, dv.data() + koff, dbias_ptr);
      } else {
        kernels::mha_backward_naive(gd, qn->value.data() + qoff,
                                    kn->value.data() + koff,
                                    vn->value.data() + koff, up.data() + qoff,
                                    *cptr, dq.data() + qoff, dk.data() + koff,
                                    dv.data() + koff, dbias_ptr);
      }
      if (g > 0 && biasn) dbias.add_(bias_part);
    }
    if (qn->requires_grad) qn->accumulate_grad(dq);
    if (kn->requires_grad) kn->accumulate_grad(dk);
    if (vn->requires_grad) vn->accumulate_grad(dv);
    if (biasn && biasn->requires_grad) {
      biasn->accumulate_grad(dbias.reshape(biasn->value.shape()));
    }
  });
}

Var split_heads(const Var& x, int64_t batch, int64_t seq, int64_t heads,
                int64_t dim) {
  SF_CHECK(x.numel() == batch * seq * heads * dim)
      << "split_heads numel mismatch";
  Tensor out({batch, heads, seq, dim});
  const float* src = x.value().data();
  float* dst = out.data();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t s = 0; s < seq; ++s) {
      for (int64_t h = 0; h < heads; ++h) {
        std::memcpy(dst + (((b * heads + h) * seq + s) * dim),
                    src + (((b * seq + s) * heads + h) * dim),
                    sizeof(float) * dim);
      }
    }
  }
  auto xn = x.node();
  return make_op(std::move(out), {x},
                 [xn, batch, seq, heads, dim](const Tensor& up) {
    Tensor dx(xn->value.shape());
    const float* src = up.data();
    float* dst = dx.data();
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t s = 0; s < seq; ++s) {
        for (int64_t h = 0; h < heads; ++h) {
          std::memcpy(dst + (((b * seq + s) * heads + h) * dim),
                      src + (((b * heads + h) * seq + s) * dim),
                      sizeof(float) * dim);
        }
      }
    }
    xn->accumulate_grad(dx);
  });
}

Var merge_heads(const Var& x) {
  SF_CHECK(x.shape().size() == 4) << "merge_heads expects [B,H,S,D]";
  const int64_t batch = x.shape()[0];
  const int64_t heads = x.shape()[1];
  const int64_t seq = x.shape()[2];
  const int64_t dim = x.shape()[3];
  Tensor out({batch * seq, heads * dim});
  const float* src = x.value().data();
  float* dst = out.data();
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t h = 0; h < heads; ++h) {
      for (int64_t s = 0; s < seq; ++s) {
        std::memcpy(dst + (((b * seq + s) * heads + h) * dim),
                    src + (((b * heads + h) * seq + s) * dim),
                    sizeof(float) * dim);
      }
    }
  }
  auto xn = x.node();
  return make_op(std::move(out), {x},
                 [xn, batch, seq, heads, dim](const Tensor& up) {
    Tensor dx(xn->value.shape());
    const float* src = up.data();
    float* dst = dx.data();
    for (int64_t b = 0; b < batch; ++b) {
      for (int64_t h = 0; h < heads; ++h) {
        for (int64_t s = 0; s < seq; ++s) {
          std::memcpy(dst + (((b * heads + h) * seq + s) * dim),
                      src + (((b * seq + s) * heads + h) * dim),
                      sizeof(float) * dim);
        }
      }
    }
    xn->accumulate_grad(dx);
  });
}

Var permute3(const Var& x, const std::array<int, 3>& perm) {
  SF_CHECK(x.shape().size() == 3);
  const Shape& in_shape = x.shape();
  Shape out_shape{in_shape[perm[0]], in_shape[perm[1]], in_shape[perm[2]]};
  Tensor out(out_shape);
  const int64_t d1 = in_shape[1], d2 = in_shape[2];
  const int64_t in_strides[3] = {d1 * d2, d2, 1};
  const float* src = x.value().data();
  float* dst = out.data();
  int64_t idx = 0;
  for (int64_t i = 0; i < out_shape[0]; ++i) {
    for (int64_t j = 0; j < out_shape[1]; ++j) {
      for (int64_t k = 0; k < out_shape[2]; ++k) {
        int64_t coord[3];
        coord[perm[0]] = i;
        coord[perm[1]] = j;
        coord[perm[2]] = k;
        dst[idx++] = src[coord[0] * in_strides[0] + coord[1] * in_strides[1] +
                         coord[2] * in_strides[2]];
      }
    }
  }
  auto xn = x.node();
  Shape in_shape_copy = in_shape;
  return make_op(std::move(out), {x},
                 [xn, perm, in_shape_copy, out_shape](const Tensor& up) {
    Tensor dx(in_shape_copy);
    const int64_t d1 = in_shape_copy[1], d2 = in_shape_copy[2];
    const int64_t in_strides[3] = {d1 * d2, d2, 1};
    const float* src = up.data();
    float* dst = dx.data();
    int64_t idx = 0;
    for (int64_t i = 0; i < out_shape[0]; ++i) {
      for (int64_t j = 0; j < out_shape[1]; ++j) {
        for (int64_t k = 0; k < out_shape[2]; ++k) {
          int64_t coord[3];
          coord[perm[0]] = i;
          coord[perm[1]] = j;
          coord[perm[2]] = k;
          dst[coord[0] * in_strides[0] + coord[1] * in_strides[1] +
              coord[2] * in_strides[2]] += src[idx++];
        }
      }
    }
    xn->accumulate_grad(dx);
  });
}

}  // namespace sf::autograd
