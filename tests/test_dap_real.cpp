// Real-leg DAP differential battery (DESIGN.md §14): the full Evoformer
// stack executed by dap::ShardedEvoformer must be bitwise identical to the
// unsharded model — forward outputs, loss, positions, and every parameter
// gradient — at every world size, thread count, and SIMD tier; under
// dropout; end-to-end through the trainer; and it must fail fast and
// recover cleanly when a rank dies mid-exchange.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "dap/sharded_stack.h"
#include "data/protein_sample.h"
#include "model/alphafold.h"
#include "train/trainer.h"

namespace sf {
namespace {

// Shapes satisfying the executor's constraints: S % 4 == 0 (virtual-shard
// alignment) and R % world == 0 for world in {1, 2, 4}.
model::ModelConfig dap_config() {
  model::ModelConfig c;
  c.crop_len = 8;
  c.msa_rows = 4;
  c.c_m = 8;
  c.c_z = 8;
  c.c_s = 8;
  c.heads = 2;
  c.head_dim = 4;
  c.evoformer_blocks = 2;
  c.extra_msa_blocks = 0;
  c.template_pair_blocks = 0;
  c.use_extra_msa_stack = false;
  c.use_template_stack = false;
  c.opm_dim = 2;
  c.transition_factor = 2;
  c.structure_layers = 1;
  return c;
}

data::DatasetConfig dap_data() {
  data::DatasetConfig c;
  c.num_samples = 4;
  c.crop_len = 8;
  c.msa_rows = 4;
  c.msa_work_cap = 60;
  c.seed = 99;
  return c;
}

struct ForwardResult {
  float loss = 0.0f;
  Tensor positions;
  std::vector<Tensor> grads;
};

/// One loss-bearing forward + backward; world 0 = no executor (eager).
ForwardResult run_forward_backward(const model::ModelConfig& cfg,
                                   const data::Batch& batch, int world,
                                   bool with_dropout,
                                   uint64_t* rng_state_probe = nullptr) {
  model::MiniAlphaFold net(cfg, 11);
  std::unique_ptr<dap::ShardedEvoformer> exec;
  if (world > 0) {
    exec = std::make_unique<dap::ShardedEvoformer>(net, world);
    net.set_trunk_executor(exec.get());
  }
  Rng drop_rng(77);
  auto out = net.forward(batch, /*num_recycles=*/1, /*compute_loss=*/true,
                         with_dropout ? &drop_rng : nullptr);
  autograd::backward(out.loss);
  ForwardResult res;
  res.loss = out.loss.value().at(0);
  res.positions = out.positions.clone();
  for (const auto& p : net.params().all()) res.grads.push_back(p.grad());
  if (rng_state_probe) {
    // Post-forward RNG position: the executor must consume exactly the
    // draws the eager stack would.
    *rng_state_probe = drop_rng.next_u64();
  }
  net.set_trunk_executor(nullptr);
  return res;
}

void expect_bitwise(const ForwardResult& ref, const ForwardResult& got,
                    const std::string& label) {
  EXPECT_EQ(std::memcmp(&ref.loss, &got.loss, sizeof(float)), 0)
      << label << ": loss bits differ (" << ref.loss << " vs " << got.loss
      << ")";
  ASSERT_EQ(ref.positions.numel(), got.positions.numel());
  EXPECT_EQ(std::memcmp(ref.positions.data(), got.positions.data(),
                        ref.positions.numel() * sizeof(float)),
            0)
      << label << ": positions differ";
  ASSERT_EQ(ref.grads.size(), got.grads.size());
  for (size_t i = 0; i < ref.grads.size(); ++i) {
    ASSERT_EQ(ref.grads[i].numel(), got.grads[i].numel());
    EXPECT_EQ(std::memcmp(ref.grads[i].data(), got.grads[i].data(),
                          ref.grads[i].numel() * sizeof(float)),
              0)
        << label << ": grad of param " << i << " differs (max |d| = "
        << ref.grads[i].max_abs_diff(got.grads[i]) << ")";
  }
}

TEST(DapReal, ForwardAndGradsBitwiseAcrossWorldSizes) {
  const auto cfg = dap_config();
  data::SyntheticProteinDataset ds(dap_data());
  const auto batch = ds.prepare_batch(0);
  const auto ref = run_forward_backward(cfg, batch, 0, false);

  // Gradients must actually flow into the shared weights through the
  // executor path — an all-zero reference would make the memcmp vacuous.
  float total = 0.0f;
  for (const auto& g : ref.grads) total += g.max_abs();
  ASSERT_GT(total, 0.0f);

  for (int world : {1, 2, 4}) {
    const auto got = run_forward_backward(cfg, batch, world, false);
    expect_bitwise(ref, got, "world " + std::to_string(world));
  }
}

TEST(DapReal, CheckpointedBaselineMatchesToo) {
  // The executor's backward is a checkpoint recompute; it must also match
  // the eager model running *with* gradient checkpointing enabled.
  auto cfg = dap_config();
  data::SyntheticProteinDataset ds(dap_data());
  const auto batch = ds.prepare_batch(1);
  const auto eager = run_forward_backward(cfg, batch, 0, false);
  cfg.gradient_checkpointing = true;
  const auto ckpt = run_forward_backward(cfg, batch, 0, false);
  const auto dap = run_forward_backward(cfg, batch, 4, false);
  expect_bitwise(eager, ckpt, "checkpointed eager");
  expect_bitwise(eager, dap, "dap under checkpointed config");
}

TEST(DapReal, DropoutRowsMatchAndRngStreamStaysAligned) {
  auto cfg = dap_config();
  cfg.msa_dropout = 0.15f;
  cfg.pair_dropout = 0.25f;
  data::SyntheticProteinDataset ds(dap_data());
  const auto batch = ds.prepare_batch(0);
  uint64_t ref_rng = 0, got_rng = 0;
  const auto ref = run_forward_backward(cfg, batch, 0, true, &ref_rng);
  for (int world : {2, 4}) {
    const auto got = run_forward_backward(cfg, batch, world, true, &got_rng);
    expect_bitwise(ref, got, "dropout world " + std::to_string(world));
    EXPECT_EQ(ref_rng, got_rng)
        << "executor consumed a different number of RNG draws";
  }
}

TEST(DapReal, BitwiseAcrossThreadsAndSimdTiers) {
  struct Guard {
    ~Guard() {
      set_num_threads(0);
      simd::clear_tier();
    }
  } guard;
  const auto cfg = dap_config();
  data::SyntheticProteinDataset ds(dap_data());
  const auto batch = ds.prepare_batch(0);

  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::best_available() != simd::Tier::kScalar) {
    tiers.push_back(simd::best_available());
  }
  ForwardResult ref;  // reference from the first combination
  bool have_ref = false;
  for (simd::Tier tier : tiers) {
    ASSERT_TRUE(simd::set_tier(tier));
    for (int threads : {1, 4}) {
      set_num_threads(threads);
      const std::string label = std::string(simd::tier_name(tier)) +
                                " threads=" + std::to_string(threads);
      const auto eager = run_forward_backward(cfg, batch, 0, false);
      const auto dap = run_forward_backward(cfg, batch, 4, false);
      expect_bitwise(eager, dap, "dap vs eager @ " + label);
      if (!have_ref) {
        ref = eager;
        have_ref = true;
      } else {
        // The whole point of the contract: one answer everywhere.
        expect_bitwise(ref, dap, "dap vs cross-tier reference @ " + label);
      }
    }
  }
}

TEST(DapReal, TrainedParametersBitwiseMatchEagerTrainer) {
  data::SyntheticProteinDataset ds(dap_data());
  const auto b0 = ds.prepare_batch(0);
  const auto b1 = ds.prepare_batch(1);
  auto train = [&](int dap_world) {
    model::MiniAlphaFold net(dap_config(), 23);
    train::TrainConfig tc;
    tc.min_recycles = 1;
    tc.max_recycles = 2;
    tc.dap_world = dap_world;
    train::Trainer trainer(net, tc);
    for (int s = 0; s < 4; ++s) {
      auto r = trainer.train_step(s % 2 == 0 ? b0 : b1);
      EXPECT_TRUE(std::isfinite(r.loss)) << "step " << s;
    }
    std::vector<float> flat;
    for (const auto& p : net.params().all()) {
      const float* d = p.value().data();
      flat.insert(flat.end(), d, d + p.numel());
    }
    return flat;
  };
  const auto eager = train(0);
  for (int world : {2, 4}) {
    const auto dap = train(world);
    ASSERT_EQ(eager.size(), dap.size());
    EXPECT_EQ(std::memcmp(eager.data(), dap.data(),
                          eager.size() * sizeof(float)),
              0)
        << "trained params diverged at dap_world=" << world;
  }
}

TEST(DapReal, OverlapAndCommStatsAreSane) {
  const auto cfg = dap_config();
  data::SyntheticProteinDataset ds(dap_data());
  const auto batch = ds.prepare_batch(0);
  model::MiniAlphaFold net(cfg, 11);
  dap::ShardedEvoformer exec(net, 4);
  net.set_trunk_executor(&exec);
  auto out = net.forward(batch, 1, true);
  autograd::backward(out.loss);
  net.set_trunk_executor(nullptr);

  const auto st = exec.stats();
  EXPECT_GE(st.runs, 1);
  EXPECT_GT(st.async_exchanges, 0);
  EXPECT_GT(st.exchange_span_s, 0.0);
  EXPECT_GE(st.overlap_fraction(), 0.0);
  EXPECT_LE(st.overlap_fraction(), 1.0);
  const auto cs = exec.comm_stats();
  EXPECT_GT(cs.collectives, 0u);
  EXPECT_GT(cs.bytes_exchanged, 0u);  // the chunked transposes
  EXPECT_GT(cs.bytes_gathered, 0u);   // bias / operand / partial gathers
}

TEST(DapReal, CommVolumeGrowsWithWorldAndRepeatsExactly) {
  // §2.3: a higher DAP degree moves more bytes for the same batch, and
  // the volume depends on shapes alone, so identical forwards account
  // identical collectives and bytes.
  const auto cfg = dap_config();
  data::SyntheticProteinDataset ds(dap_data());
  const auto batch = ds.prepare_batch(0);
  auto two_forwards = [&](int world) {
    model::MiniAlphaFold net(cfg, 11);
    dap::ShardedEvoformer exec(net, world);
    net.set_trunk_executor(&exec);
    net.forward(batch, 1, false);
    const auto first = exec.comm_stats();
    exec.reset_stats();
    net.forward(batch, 1, false);
    const auto second = exec.comm_stats();
    net.set_trunk_executor(nullptr);
    return std::make_pair(first, second);
  };
  const auto [w2, w2_again] = two_forwards(2);
  const auto [w4, w4_again] = two_forwards(4);
  EXPECT_GT(w2.total_bytes(), 0u);
  EXPECT_GT(w4.total_bytes(), w2.total_bytes());
  for (const auto& [a, b] : {std::make_pair(w2, w2_again),
                             std::make_pair(w4, w4_again)}) {
    EXPECT_EQ(a.collectives, b.collectives);
    EXPECT_EQ(a.bytes_gathered, b.bytes_gathered);
    EXPECT_EQ(a.bytes_reduced, b.bytes_reduced);
    EXPECT_EQ(a.bytes_exchanged, b.bytes_exchanged);
    EXPECT_EQ(a.bytes_scattered, b.bytes_scattered);
  }
}

/// Expects `fn` to throw an sf::Error whose message contains `check`, so
/// the test pins the up-front check and not a later failure the same bad
/// input would also cause.
template <typename Fn>
void expect_rejected(const Fn& fn, const std::string& check) {
  try {
    fn();
    ADD_FAILURE() << "not rejected: " << check;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(check), std::string::npos)
        << e.what();
  }
}

TEST(DapReal, RejectsSplitsTheWorldDoesNotDivide) {
  // Ragged shards have no implementation: the transposer and the stack
  // must refuse them up front. The divisible controls prove the throw
  // comes from the split, not from the setup.
  dap::Communicator comm(4);
  const char* axes = "AsyncTransposer needs divisible axes";
  expect_rejected([&] { dap::AsyncTransposer(comm, 0, 6, 8, 2, 1, 0); }, axes);
  expect_rejected([&] { dap::AsyncTransposer(comm, 0, 8, 6, 2, 1, 0); }, axes);
  EXPECT_NO_THROW(dap::AsyncTransposer(comm, 0, 8, 8, 2, 1, 0));

  auto cfg = dap_config();
  auto dc = dap_data();
  cfg.crop_len = dc.crop_len = 6;  // 6 % 4 != 0, 6 % 2 == 0
  data::SyntheticProteinDataset ds(dc);
  const auto batch = ds.prepare_batch(0);
  model::MiniAlphaFold net(cfg, 11);
  dap::ShardedEvoformer four(net, 4), two(net, 2);
  net.set_trunk_executor(&four);
  expect_rejected([&] { net.forward(batch, 1, false); },
                  "R divisible by world size");
  net.set_trunk_executor(&two);
  EXPECT_NO_THROW(net.forward(batch, 1, false));
  net.set_trunk_executor(nullptr);
}

TEST(DapReal, RankKillMidExchangeFailsFastAndRecovers) {
  const auto cfg = dap_config();
  data::SyntheticProteinDataset ds(dap_data());
  const auto batch = ds.prepare_batch(0);
  const auto ref = run_forward_backward(cfg, batch, 0, false);

  model::MiniAlphaFold net(cfg, 11);
  dap::ShardedEvoformer exec(net, 2);
  net.set_trunk_executor(&exec);

  for (const char* site : {"dap.transpose_wait", "dap.transpose_launch"}) {
    fault::SiteConfig fc;
    fc.kill = true;
    fc.skip_hits = 3;  // land mid-stack, with exchanges in flight
    fault::arm(site, fc);
    // The kill must surface as an exception in bounded time — peers are
    // flushed out of their collectives by the abort, never left hanging.
    EXPECT_THROW(net.forward(batch, 1, true), Error) << site;
    fault::reset();
    // Same communicator, after recovery: bitwise-identical results again.
    exec.recover();
    auto out = net.forward(batch, 1, true);
    autograd::backward(out.loss);
    EXPECT_EQ(std::memcmp(ref.positions.data(), out.positions.data(),
                          ref.positions.numel() * sizeof(float)),
              0)
        << "post-recovery output diverged after kill at " << site;
  }
  net.set_trunk_executor(nullptr);
}

TEST(DapReal, InjectedFaultPrefersRootCauseOverAbortEchoes) {
  const auto cfg = dap_config();
  data::SyntheticProteinDataset ds(dap_data());
  const auto batch = ds.prepare_batch(0);
  model::MiniAlphaFold net(cfg, 11);
  dap::ShardedEvoformer exec(net, 4);
  net.set_trunk_executor(&exec);
  fault::SiteConfig fc;
  fc.skip_hits = 5;
  fault::arm("dap.transpose_wait", fc);
  try {
    net.forward(batch, 1, false);
    FAIL() << "expected the injected fault to propagate";
  } catch (const fault::InjectedFault& e) {
    EXPECT_EQ(e.site(), "dap.transpose_wait");
  }
  fault::reset();
  exec.recover();
  net.set_trunk_executor(nullptr);
}

}  // namespace
}  // namespace sf
