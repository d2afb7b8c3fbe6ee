// Training loop for the mini-AlphaFold.
//
// Implements the AlphaFold training step semantics the paper describes:
// recycling count sampled uniformly per step (1..max), gradient clipping,
// Adam + SWA update, LR warmup, optional bf16 activations, and periodic
// (sync or async) evaluation gated on avg lDDT-Ca.
//
// Fault tolerance: a non-finite loss or gradient (a statistical certainty
// somewhere in a multi-thousand-GPU time-to-train run) skips the update
// instead of poisoning the weights, and checkpoint_to()/resume_from()
// give a killed run a lossless restart path (params + full optimizer
// state, newest-valid checkpoint wins).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/protein_sample.h"
#include "graph/capture.h"
#include "model/alphafold.h"
#include "train/optimizer.h"

namespace sf::dap {
class ShardedEvoformer;
}

namespace sf::train {

struct TrainConfig {
  OptimizerConfig opt;
  float base_lr = 2e-3f;
  int64_t warmup_steps = 50;
  /// After warmup, cosine decay to `final_lr_frac * base_lr` at
  /// `total_steps` (<= 0 disables decay).
  int64_t total_steps = 0;
  float final_lr_frac = 0.1f;
  int64_t min_recycles = 1;
  int64_t max_recycles = 2;
  uint64_t seed = 1234;
  /// Skip the optimizer update (and count it) when the loss or the
  /// global gradient norm is NaN/Inf, instead of corrupting the weights.
  bool skip_nonfinite_steps = true;
  /// Intra-op kernel threads (GEMM/attention/LayerNorm/optimizer).
  /// 0 keeps the process-wide default (SF_NUM_THREADS env or hardware
  /// concurrency); > 0 pins it via sf::set_num_threads. Kernel outputs
  /// are bitwise-identical at any setting.
  int num_threads = 0;
  /// Data-parallel gradient communication (DataParallelTrainer only):
  /// true = bucketed async all-reduce launched by backward hooks, with
  /// the grad-clip norm accumulated per bucket as reductions complete
  /// (§3.3.1 gradient-clip overlap); false = blocking per-parameter
  /// all-reduce after backward (the reference path). Both produce
  /// bitwise-identical parameters.
  bool overlap_grad_comm = true;
  /// Target gradient-bucket capacity in bytes for the overlapped path.
  int64_t grad_bucket_bytes = 64 * 1024;
  /// Elastic world size (DataParallelTrainer only): a rank lost to an
  /// injected WorkerKill mid-step no longer fails the step with an
  /// exception — the survivors detect the loss in bounded time (comm
  /// abort), quiesce, rebuild the communicator at the smaller world size,
  /// and training continues without touching a checkpoint. The interrupted
  /// step's update is discarded all-or-nothing, so surviving replicas stay
  /// bit-identical. false = any kill propagates as an error (the
  /// pre-elastic behavior).
  bool elastic_world = false;
  /// Whole-step capture + planned replay (the memory half of the paper's
  /// CUDA-Graphs leg, §3.2): after graph::kCaptureWarmupRuns eager steps
  /// per step shape (recycling count x batch signature), record one step's
  /// allocation trace and replay every later step of that shape out of a
  /// single statically planned arena — zero steady-state heap allocation
  /// and bitwise-identical results (replay runs the same IEEE DAG; only
  /// buffer addresses change). Off by default.
  bool capture_step = false;
  /// Real-leg DAP (§2.3): > 0 runs the main Evoformer stack across this
  /// many in-process ranks (dap::ShardedEvoformer) with resident shards
  /// and comm/compute-overlapped axis transposes. Must be 1, 2, or 4;
  /// requires msa_rows divisible by 4 and crop_len by dap_world, and is
  /// incompatible with bf16_activations. Outputs, gradients, and trained
  /// parameters are bitwise identical to dap_world = 0. 0 = off.
  int dap_world = 0;
};

struct StepResult {
  float loss = 0.0f;
  float lddt = 0.0f;
  float grad_norm = 0.0f;
  int64_t recycles = 0;
  double seconds = 0.0;
  bool skipped = false;  ///< update skipped by the NaN/Inf guard
  /// Elastic data-parallel training only: ranks lost to a kill during
  /// this call, and whether the step's update had to be discarded (the
  /// caller re-runs the step at the new world size; check world_size()).
  int ranks_lost = 0;
  bool lost_to_fault = false;
};

class Trainer {
 public:
  Trainer(model::MiniAlphaFold& net, TrainConfig config);

  /// One optimization step on one batch (the paper's local batch is one
  /// crop per GPU; gradient accumulation emulates larger local batches).
  StepResult train_step(const data::Batch& batch);

  /// Accumulate gradients over `batches` then apply a single update —
  /// a data-parallel global batch on one worker.
  StepResult train_step_accumulated(std::span<const data::Batch> batches);

  Optimizer& optimizer() { return opt_; }
  int64_t step() const { return opt_.step_count(); }
  float current_lr_scale() const;

  /// Steps rejected by the NaN/Inf guard since construction.
  int64_t skipped_steps() const { return skipped_steps_; }

  /// The DAP stack executor (null unless TrainConfig::dap_world > 0);
  /// exposes overlap/capture statistics and fault recovery.
  dap::ShardedEvoformer* dap_executor() { return dap_.exec.get(); }

  /// Aggregate capture/replay statistics across all step shapes (all
  /// zeros unless TrainConfig::capture_step is on).
  graph::StepPlanner::Stats capture_stats() const;
  /// Distinct step shapes that have been captured so far.
  int64_t num_captured_shapes() const;

  /// Write a rotating, crash-consistent checkpoint (model params + full
  /// optimizer state) for the current step into `dir`. Returns the path.
  std::string checkpoint_to(const std::string& dir, int keep_last = 3);

  /// Restore params + optimizer state from the newest *valid* checkpoint
  /// in `dir` (corrupt or truncated files are skipped). Returns the step
  /// resumed from, or -1 when no valid checkpoint exists (model and
  /// optimizer are left untouched).
  int64_t resume_from(const std::string& dir);

 private:
  StepResult step_impl(std::span<const data::Batch> batches,
                       int64_t recycles);

  /// Per-step-shape capture state, keyed by plan_key().
  struct PlanEntry {
    int64_t warmups = 0;
    std::unique_ptr<graph::StepPlanner> planner;
  };
  static std::string plan_key(std::span<const data::Batch> batches,
                              int64_t recycles);

  /// Owns the DAP stack executor and unhooks it from the model on
  /// destruction (the model usually outlives the trainer).
  struct DapHook {
    model::MiniAlphaFold* net = nullptr;
    std::unique_ptr<dap::ShardedEvoformer> exec;
    DapHook() = default;
    DapHook(DapHook&&) = default;
    DapHook& operator=(DapHook&&) = default;
    ~DapHook();
  };

  model::MiniAlphaFold& net_;
  TrainConfig config_;
  Optimizer opt_;
  Rng rng_;
  int64_t skipped_steps_ = 0;
  std::map<std::string, PlanEntry> planners_;
  DapHook dap_;
};

}  // namespace sf::train
