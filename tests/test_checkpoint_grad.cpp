// Tests for gradient checkpointing: single- and multi-output segments of
// checkpoint_multi must produce identical gradients to the uncheckpointed graph
// while keeping far fewer tape nodes alive, including through the full
// mini-AlphaFold (§2.2 / §4.1 mechanism).
#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/var.h"
#include "data/protein_sample.h"
#include "model/alphafold.h"

namespace sf::autograd {
namespace {

Var leaf(Shape shape, uint64_t seed) {
  Rng rng(seed);
  return Var(Tensor::randn(std::move(shape), rng, 0.0f, 0.5f), true);
}

// A one-output segment: checkpoint_multi with a one-element result.
Var checkpoint1(const std::function<Var(const std::vector<Var>&)>& fn,
                const std::vector<Var>& inputs) {
  return checkpoint_multi(
      [fn](const std::vector<Var>& in) { return std::vector<Var>{fn(in)}; },
      inputs)[0];
}

TEST(GradMode, NoGradGuardDisablesTape) {
  Var x = leaf({4}, 1);
  Var y;
  {
    NoGradGuard guard;
    EXPECT_FALSE(grad_enabled());
    y = scale(x, 2.0f);
  }
  EXPECT_TRUE(grad_enabled());
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.node()->parents.empty());
}

TEST(GradMode, GuardRestoresOnException) {
  Var x = leaf({1}, 2);
  try {
    NoGradGuard guard;
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_TRUE(grad_enabled());
}

TEST(Checkpoint, SingleOutputGradsMatchUncheckpointed) {
  auto fn = [](const std::vector<Var>& in) {
    return gelu(mul(in[0], in[1]));
  };
  Var a1 = leaf({8}, 4), b1 = leaf({8}, 5);
  backward(sum(fn({a1, b1})));

  Var a2 = Var(a1.value().clone(), true), b2 = Var(b1.value().clone(), true);
  backward(sum(checkpoint1(fn, {a2, b2})));

  EXPECT_LT(a1.grad().max_abs_diff(a2.grad()), 1e-5f);
  EXPECT_LT(b1.grad().max_abs_diff(b2.grad()), 1e-5f);
}

TEST(Checkpoint, GradsReachCapturedParameters) {
  // The common case: the segment closes over module weights that are not
  // explicit inputs.
  Var w = leaf({4, 4}, 6);
  auto fn = [&w](const std::vector<Var>& in) { return linear(in[0], w); };
  Rng rng(7);
  Var x(Tensor::randn({2, 4}, rng), false);
  backward(sum(checkpoint1(fn, {x})));
  EXPECT_GT(w.grad().max_abs(), 0.0f);
}

TEST(Checkpoint, ValueMatchesDirectForward) {
  auto fn = [](const std::vector<Var>& in) { return glu(in[0], in[0]); };
  Var x = leaf({16}, 8);
  Var direct = fn({x});
  Var ck = checkpoint1(fn, {x});
  EXPECT_EQ(direct.value().max_abs_diff(ck.value()), 0.0f);
}

TEST(CheckpointMulti, BothOutputsGetGradients) {
  auto fn = [](const std::vector<Var>& in) {
    return std::vector<Var>{scale(in[0], 2.0f), mul(in[0], in[0])};
  };
  Var x1 = leaf({5}, 9);
  auto direct = fn({x1});
  backward(sum(add(direct[0], direct[1])));

  Var x2 = Var(x1.value().clone(), true);
  auto ck = checkpoint_multi(fn, {x2});
  backward(sum(add(ck[0], ck[1])));

  EXPECT_LT(x1.grad().max_abs_diff(x2.grad()), 1e-5f);
}

TEST(CheckpointMulti, RecomputeFiresOnce) {
  int calls = 0;
  auto fn = [&calls](const std::vector<Var>& in) {
    ++calls;
    return std::vector<Var>{scale(in[0], 3.0f), scale(in[0], 5.0f)};
  };
  Var x = leaf({4}, 10);
  auto outs = checkpoint_multi(fn, {x});
  calls = 0;  // ignore the forward pass
  backward(sum(add(outs[0], outs[1])));
  EXPECT_EQ(calls, 1);  // one recompute serves both outputs
  EXPECT_NEAR(x.grad().at(0), 8.0f, 1e-5f);
}

TEST(CheckpointMulti, UnusedOutputContributesZero) {
  auto fn = [](const std::vector<Var>& in) {
    return std::vector<Var>{scale(in[0], 2.0f), scale(in[0], 100.0f)};
  };
  Var x = leaf({3}, 11);
  auto outs = checkpoint_multi(fn, {x});
  backward(sum(outs[0]));  // second output never consumed
  for (int64_t i = 0; i < 3; ++i) EXPECT_NEAR(x.grad().at(i), 2.0f, 1e-5f);
}

TEST(Checkpoint, ShrinksReachableTape) {
  auto deep = [](const std::vector<Var>& in) {
    Var v = in[0];
    for (int i = 0; i < 20; ++i) v = gelu(scale(v, 1.01f));
    return v;
  };
  Var x1 = leaf({8}, 12);
  Var direct = sum(deep({x1}));
  Var x2 = Var(x1.value().clone(), true);
  Var ck = sum(checkpoint1(deep, {x2}));
  EXPECT_LT(reachable_nodes(ck) * 5, reachable_nodes(direct));
}

// ---- Full model ----------------------------------------------------------

model::ModelConfig tiny_config(bool ckpt) {
  model::ModelConfig c;
  c.crop_len = 10;
  c.msa_rows = 3;
  c.c_m = 8;
  c.c_z = 8;
  c.c_s = 8;
  c.heads = 2;
  c.head_dim = 4;
  c.evoformer_blocks = 2;
  c.use_extra_msa_stack = false;
  c.use_template_stack = false;
  c.opm_dim = 2;
  c.transition_factor = 2;
  c.structure_layers = 1;
  c.gradient_checkpointing = ckpt;
  return c;
}

data::Batch tiny_batch() {
  data::DatasetConfig c;
  c.num_samples = 2;
  c.crop_len = 10;
  c.msa_rows = 3;
  c.msa_work_cap = 40;
  c.seed = 5;
  return data::SyntheticProteinDataset(c).prepare_batch(0);
}

TEST(CheckpointModel, LossAndGradsMatchUncheckpointed) {
  auto batch = tiny_batch();
  model::MiniAlphaFold plain(tiny_config(false), 21);
  model::MiniAlphaFold ckpt(tiny_config(true), 21);

  auto out_plain = plain.forward(batch, 2, true);
  auto out_ckpt = ckpt.forward(batch, 2, true);
  EXPECT_NEAR(out_plain.loss.value().at(0), out_ckpt.loss.value().at(0),
              1e-4f);

  backward(out_plain.loss);
  backward(out_ckpt.loss);
  auto p_plain = plain.params().all();
  auto p_ckpt = ckpt.params().all();
  ASSERT_EQ(p_plain.size(), p_ckpt.size());
  for (size_t i = 0; i < p_plain.size(); ++i) {
    EXPECT_LT(p_plain[i].grad().max_abs_diff(p_ckpt[i].grad()), 5e-4f)
        << "param " << i;
  }
}

TEST(CheckpointModel, TapeIsSmallerWithCheckpointing) {
  auto batch = tiny_batch();
  model::MiniAlphaFold plain(tiny_config(false), 22);
  model::MiniAlphaFold ckpt(tiny_config(true), 22);
  auto out_plain = plain.forward(batch, 1, true);
  auto out_ckpt = ckpt.forward(batch, 1, true);
  size_t plain_nodes = reachable_nodes(out_plain.loss);
  size_t ckpt_nodes = reachable_nodes(out_ckpt.loss);
  EXPECT_LT(ckpt_nodes, plain_nodes * 3 / 4)
      << "ckpt " << ckpt_nodes << " vs plain " << plain_nodes;
}

}  // namespace
}  // namespace sf::autograd
