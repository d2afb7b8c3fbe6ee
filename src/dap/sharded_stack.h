// Real-leg Dynamic Axial Parallelism: the full Evoformer stack executed
// across in-process ranks with resident shards and communication/compute
// overlap (DESIGN.md §14; §2.3 of the paper).
//
// ShardedEvoformer keeps each rank's shards *resident* across every block
// of the stack: the MSA representation stays sharded over its sequence
// axis S and the pair representation over its first residue axis R for
// the whole trunk, resharding only at the row<->column attention
// boundaries (MSA column attention, triangle attention around the ending
// node) via the chunked non-blocking transpose below.
//
// Bitwise contract: outputs AND gradients are bit-identical to the
// unsharded model at any world size in {1,2,4}, any thread count, and any
// SIMD tier. Three mechanisms carry the proof:
//   1. every reduction over a shardable axis is computed, in the base ops
//      themselves, as kVirtualShards extent-pinned partials combined in a
//      fixed ascending order (autograd/blocked.h) — ranks reproduce the
//      identical summation tree by exchanging partials at virtual-shard
//      granularity;
//   2. everything else the stack computes is row-independent (LayerNorm,
//      projections, attention per query row), so a rank's row slice of a
//      kernel's output equals the unsharded kernel's rows verbatim;
//   3. backward runs the stack's recompute on the replicated weights via
//      the gradient-checkpoint mechanism (autograd::checkpoint_multi),
//      which is the repo's existing bitwise-equal backward path.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "dap/communicator.h"
#include "graph/capture.h"
#include "model/alphafold.h"
#include "tensor/tensor.h"

namespace sf::dap {

/// Chunked, non-blocking distributed transpose of a [A, B, C] tensor
/// between an A-sharding ([A/n, B, C] per rank) and a B-sharding
/// ([cb_t, A, C] chunks per rank, rows = this rank's B-columns). The
/// exchange is split into `num_chunks` independent async all-to-alls
/// along the output-column axis so the exchange of chunk t+1 overlaps
/// whatever the caller computes on chunk t. Divisible splits only
/// (A % n == 0, B % n == 0; anything else throws). Pure data movement:
/// reassembly is bit-exact.
class AsyncTransposer {
 public:
  AsyncTransposer(Communicator& comm, int rank, int64_t full_a,
                  int64_t full_b, int64_t c, int64_t num_chunks,
                  int64_t tag_base);
  /// Quiesces every launched exchange (swallowing errors) so the send/
  /// recv buffers never die while the communicator thread could still be
  /// copying into them — the unwind path when a rank faults mid-stack.
  ~AsyncTransposer();

  int64_t num_chunks() const { return chunks_; }

  /// Pack `shard` [A/n, B, C] and launch every chunk's exchange.
  void launch(const Tensor& shard);
  /// Block until chunk t has arrived; returns [cb_t, A, C].
  Tensor wait_chunk(int64_t t);
  /// Launch the reverse exchange for a computed chunk [cb_t, A, C].
  void launch_back(int64_t t, const Tensor& chunk);
  /// Wait for every reverse chunk and scatter into `out` [A/n, B, C].
  void collect_back(Tensor& out);

  /// Seconds the caller actually blocked inside wait calls.
  double blocked_seconds() const { return blocked_s_; }
  /// Sum over chunks of (wait-return - launch): the window each exchange
  /// was in flight from the caller's point of view.
  double span_seconds() const { return span_s_; }
  int64_t exchanges() const { return exchanges_; }

  /// Tag offset distinguishing reverse-exchange launches from forward ones
  /// (tags are cross-checks only; matching is by launch order).
  static constexpr int64_t kBackTagOffset = 500;

 private:
  Communicator& comm_;
  const int rank_;
  const int n_;
  const int64_t a_, b_, c_, la_, lb_, chunks_, tag_base_;
  std::vector<Tensor> send_, recv_;          // forward exchange buffers
  std::vector<Tensor> back_send_, back_recv_;
  std::vector<Communicator::AsyncHandle> fwd_handles_, back_handles_;
  std::vector<double> launch_ts_, back_launch_ts_;
  double blocked_s_ = 0.0, span_s_ = 0.0;
  int64_t exchanges_ = 0;
};

/// The main Evoformer stack as a multi-rank DAP execution. Installed into
/// a MiniAlphaFold via set_trunk_executor() (the trainer does this when
/// TrainConfig::dap_world > 0). Forward runs one thread per rank over
/// resident shards; backward recomputes the stack eagerly on the calling
/// thread through autograd::checkpoint_multi, so gradients flow into the
/// shared (replicated) weights bit-identically to the unsharded model.
class ShardedEvoformer : public model::TrunkStackExecutor {
 public:
  /// `net` must outlive the executor. world_size in {1, 2, 4}; the MSA
  /// sequence axis must be divisible by autograd::kVirtualShards and the
  /// residue axis by world_size.
  ShardedEvoformer(const model::MiniAlphaFold& net, int world_size);

  std::pair<autograd::Var, autograd::Var> run(
      const autograd::Var& msa, const autograd::Var& pair,
      const Tensor& residue_mask, Rng* dropout_rng, float msa_dropout,
      float pair_dropout) override;

  int world_size() const { return world_; }

  /// Whole-step capture support: when on, each rank runs its forward leg
  /// under a per-rank StepPlanner, so steady-state sharded steps make
  /// zero tensor heap allocations on the rank threads too.
  void set_capture(bool on);

  /// Clear the aborted communicator state after a rank failure (all rank
  /// threads are joined before run() returns, so this is always safe to
  /// call between steps).
  void recover() { comm_.recover(); }

  struct StackStats {
    int64_t runs = 0;              ///< sharded forward invocations
    int64_t async_exchanges = 0;   ///< chunked transpose exchanges launched
    double exchange_span_s = 0.0;  ///< sum of launch->wait-return windows
    double blocked_wait_s = 0.0;   ///< time actually blocked inside waits
    graph::StepPlanner::Stats capture;  ///< aggregated over rank planners
    /// Fraction of the exchange window hidden behind compute: 1 means the
    /// caller never blocked, 0 means fully exposed (or no exchanges yet).
    double overlap_fraction() const {
      if (exchange_span_s <= 0.0) return 0.0;
      double f = 1.0 - blocked_wait_s / exchange_span_s;
      return f < 0.0 ? 0.0 : f;
    }
  };
  StackStats stats() const;
  Communicator::Stats comm_stats() const { return comm_.stats(); }
  void reset_stats();

 private:
  struct RankScratch;

  /// Multi-rank NoGrad forward over resident shards. Returns the full
  /// (gathered) output tensors; identical on every rank by construction.
  std::pair<Tensor, Tensor> forward_sharded(const Tensor& msa_in,
                                            const Tensor& pair_in,
                                            const Tensor& residue_mask,
                                            const Rng* rng_snapshot,
                                            float msa_dropout,
                                            float pair_dropout);

  void rank_body(int rank, const Tensor& msa_in, const Tensor& pair_in,
                 const Tensor& add_mask,
                 const std::vector<std::vector<float>>& msa_masks,
                 const std::vector<std::vector<float>>& pair_masks,
                 Tensor& msa_out, Tensor& pair_out, RankScratch& scratch);

  const model::MiniAlphaFold& net_;
  const std::vector<model::EvoformerBlock>* blocks_;
  const int world_;
  Communicator comm_;
  bool capture_ = false;
  std::vector<std::unique_ptr<graph::StepPlanner>> rank_planners_;
  StackStats stats_;
};

}  // namespace sf::dap
