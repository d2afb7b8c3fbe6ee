// Table 1 reproduction: breakdown of kernels launched in one AlphaFold
// training step (CPU overhead / math-bounded / memory-bounded /
// memory-operation), reconstructed from the per-module operator templates
// of the paper-scale architecture plus the unfused optimizer's
// per-parameter-tensor kernel storm.
//
// The measured census of the real (CPU-scale) step comes from the traced
// step accounting:
//   python3 perfbench/run.py --workload train --seed 1 --trace 1
// prints its `step accounting` line and writes the step's Chrome trace to
// .bench_build/results/train-seed1-trace1/trace.json.
#include <cstdio>

#include "sim/workload.h"

using namespace sf::sim;

int main() {
  CensusBreakdown c = build_census();

  std::printf("=== Table 1: Breakdown of kernels launched per training step ===\n\n");
  std::printf("%-18s | %12s | %12s | %10s | %10s\n", "Kernel Type",
              "Runtime(%) paper", "Runtime(%) ours", "#Calls paper",
              "#Calls ours");
  std::printf("%.90s\n",
              "----------------------------------------------------------------"
              "--------------------------");
  std::printf("%-18s | %16.2f | %15.2f | %10s | %10s\n", "CPU Overhead", 9.10,
              c.runtime_cpu_overhead * 100, "-", "-");
  std::printf("%-18s | %16.2f | %15.2f | %10d | %10lld\n", "Math-bounded",
              24.06, c.runtime_math * 100, 18147,
              static_cast<long long>(c.total.math_calls));
  std::printf("%-18s | %16.2f | %15.2f | %10d | %10lld\n", "Memory-bounded",
              65.03, c.runtime_mem * 100, 97749,
              static_cast<long long>(c.total.mem_calls));
  std::printf("%-18s | %16.2f | %15.2f | %10d | %10lld\n", "Memory-operation",
              1.82, c.runtime_memop * 100, 34991,
              static_cast<long long>(c.total.memop_calls));
  std::printf("\nTotal operators per step: paper >150,000 | ours %lld\n",
              static_cast<long long>(c.total.total()));

  std::printf("\n--- Where the launches come from (ours) ---\n");
  auto row = [](const char* name, const KernelCensus& k) {
    std::printf("%-28s math %6lld | mem %6lld | memop %6lld\n", name,
                static_cast<long long>(k.math_calls),
                static_cast<long long>(k.mem_calls),
                static_cast<long long>(k.memop_calls));
  };
  row("Evoformer trunk (x recycle)", c.trunk);
  row("Structure module + heads", c.serial);
  row("Optimizer/SWA/clip/DDP", c.optimizer);

  std::printf("\n--- Per-module templates (fwd+bwd logical kernels) ---\n");
  row("attention (gated, biased)", census_attention());
  row("layernorm", census_layernorm());
  row("transition", census_transition());
  row("triangle multiply", census_triangle_multiply());
  row("outer product mean", census_outer_product_mean());
  row("one full Evoformer block", census_evoformer_block());

  return 0;
}
