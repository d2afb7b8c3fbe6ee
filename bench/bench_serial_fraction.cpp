// Serial-module fraction, measured on the real mini-AlphaFold (§3.1: the
// data pipeline and the Structure Module "take 11% of GPU time in total
// per training step" and cannot be parallelized by DAP — one of the two
// dominant barriers at small DAP degrees).
//
// Methodology: time a full training step (forward + backward), then time
// the structure-module portion alone (trunk outputs held fixed) and the
// batch preparation; report each as a fraction of the step.
#include <cstdio>

#include "autograd/var.h"
#include "common/timer.h"
#include "data/protein_sample.h"
#include "model/alphafold.h"

using namespace sf;

namespace {

double time_n(int n, const std::function<void()>& fn) {
  fn();  // warm up
  Timer t;
  for (int i = 0; i < n; ++i) fn();
  return t.elapsed() / n;
}

}  // namespace

int main() {
  std::printf("=== Serial-module fraction (real mini-AlphaFold) ===\n\n");
  std::printf("%8s | %10s | %10s | %10s | %16s\n", "blocks", "step (ms)",
              "struct(ms)", "prep (ms)", "serial fraction");

  for (int blocks : {1, 2, 4}) {
    model::ModelConfig cfg;
    cfg.crop_len = 16;
    cfg.msa_rows = 4;
    cfg.c_m = 16;
    cfg.c_z = 16;
    cfg.c_s = 16;
    cfg.heads = 2;
    cfg.head_dim = 8;
    cfg.evoformer_blocks = blocks;
    cfg.use_extra_msa_stack = false;
    cfg.use_template_stack = false;
    cfg.opm_dim = 3;
    cfg.structure_layers = 3;
    model::MiniAlphaFold net(cfg, 3);

    data::DatasetConfig dc;
    dc.num_samples = 4;
    dc.crop_len = 16;
    dc.msa_rows = 4;
    dc.msa_work_cap = 1500;
    dc.seed = 9;
    data::SyntheticProteinDataset ds(dc);

    double prep_s = time_n(3, [&] { ds.prepare_batch(0); });
    auto batch = ds.prepare_batch(0);

    double step_s = time_n(3, [&] {
      for (auto& p : net.params().all()) p.node()->grad = Tensor();
      auto out = net.forward(batch, 1, true);
      autograd::backward(out.loss);
    });

    // Structure module alone: fabricate trunk outputs of the right shape.
    Rng rng(5);
    double struct_s;
    {
      Tensor msa = Tensor::randn({cfg.msa_rows, cfg.crop_len, cfg.c_m}, rng);
      Tensor pair =
          Tensor::randn({cfg.crop_len, cfg.crop_len, cfg.c_z}, rng);
      struct_s = time_n(3, [&] {
        autograd::Var m(msa, true), z(pair, true);
        auto out = net.structure_module()(m, z);
        autograd::backward(autograd::sum(out.positions));
      });
    }
    double serial = (struct_s + prep_s) / (step_s + prep_s);
    std::printf("%8d | %10.2f | %10.2f | %10.2f | %15.1f%%\n", blocks,
                step_s * 1e3, struct_s * 1e3, prep_s * 1e3, serial * 100);
  }
  std::printf("\npaper: data pipeline + structure module = ~11%% of the\n"
              "step — the non-DAP-parallelizable floor of Fig. 3. The\n"
              "fraction shrinks as the Evoformer stack deepens (48 blocks\n"
              "at paper scale), converging toward that figure.\n");
  return 0;
}
