// Evaluation: synchronous, asynchronous (offloaded), and dataset caching.
//
// §3.4: as ScaleFold drove step time down, evaluation grew from 22% to 43%
// of total time. Two fixes are reproduced here:
//   1. Asynchronous evaluation — a dedicated evaluator (separate nodes in
//      the paper, a separate thread + model replica here) receives weight
//      snapshots and evaluates off the training critical path.
//   2. Evaluation dataset cache — eval batches prepared once and kept in
//      memory (CPU DRAM in the paper) instead of being re-read from disk
//      on every evaluation round.
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "data/loader.h"
#include "model/alphafold.h"

namespace sf::train {

struct EvalResult {
  float avg_lddt = 0.0f;
  float avg_loss = 0.0f;
  float avg_fape = 0.0f;             ///< frame-aligned point error
  float avg_drmsd = 0.0f;            ///< distance-matrix RMSD
  float avg_contact_precision = 0.0f;
  int64_t num_samples = 0;
  double seconds = 0.0;
};

/// Synchronous evaluation of a model over prepared batches.
EvalResult evaluate(const model::MiniAlphaFold& net,
                    std::span<const data::Batch> batches,
                    int64_t num_recycles);

/// Evaluation-set holder with two modes:
///   memory — batches prepared once, served by reference (DRAM cache);
///   disk   — batches serialized to files at construction and
///            deserialized on every fetch (the uncached baseline).
class EvalCache {
 public:
  EvalCache(const data::SyntheticProteinDataset& dataset,
            std::vector<int64_t> indices, bool in_memory,
            std::string disk_dir = "/tmp/scalefold_evalcache");

  int64_t size() const { return static_cast<int64_t>(indices_.size()); }
  bool in_memory() const { return in_memory_; }

  /// Fetch batch i (copy in disk mode, reference-clone in memory mode).
  data::Batch fetch(int64_t i) const;

  /// Convenience: fetch everything (used by evaluate()).
  std::vector<data::Batch> fetch_all() const;

 private:
  std::vector<int64_t> indices_;
  bool in_memory_;
  std::string disk_dir_;
  std::vector<data::Batch> memory_;  ///< populated in memory mode
};

/// Offloaded evaluator: owns a model replica on its own thread. submit()
/// copies the current weights and returns immediately; results are
/// collected with wait_all(). Mirrors the paper's dedicated
/// evaluation nodes (2080 = 2048 train + 32 eval GPUs).
class AsyncEvaluator {
 public:
  AsyncEvaluator(const model::ModelConfig& cfg, std::shared_ptr<EvalCache> cache,
                 int64_t num_recycles);
  ~AsyncEvaluator();

  struct Report {
    int64_t step = 0;
    EvalResult result;
  };

  /// Snapshot `weights` (order must match the replica's ParamStore order)
  /// and queue an evaluation tagged with `step`.
  void submit(int64_t step, const std::vector<autograd::Var>& weights);

  /// Block until every submitted job is finished, then return (and clear)
  /// every finished report.
  std::vector<Report> wait_all();

  int64_t pending() const;

 private:
  struct Job {
    int64_t step;
    std::vector<Tensor> weights;
  };
  void worker_loop();

  model::MiniAlphaFold replica_;
  std::shared_ptr<EvalCache> cache_;
  int64_t num_recycles_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  std::vector<Report> done_;
  int64_t in_progress_ = 0;
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace sf::train
