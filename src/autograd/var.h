// Tape-based reverse-mode automatic differentiation.
//
// The mini-AlphaFold (sf::model) needs gradients through a deep, branched
// computation (Evoformer stack + structure module + recycling). Rather
// than hand-deriving one monolithic backward, we record a dynamic tape of
// Nodes — each holding its output value, its parents, and a closure that
// routes an upstream gradient to its parents — and run them in reverse
// creation order. Custom fused kernels (flash MHA, fused LayerNorm)
// register as single tape nodes with their dedicated backward kernels,
// exactly like a torch.autograd.Function wrapping a Triton kernel.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace sf::autograd {

class Var;

struct Node {
  Tensor value;
  Tensor grad;  ///< allocated lazily on first accumulation
  bool requires_grad = false;
  /// Monotone creation index — reverse order is a valid topological order
  /// for a dynamically built DAG.
  uint64_t id = 0;
  std::vector<std::shared_ptr<Node>> parents;
  /// Routes `upstream` (grad of value) into parents via accumulate_grad.
  std::function<void(const Tensor& upstream)> backward;

  /// Add `delta` into this node's grad (allocating zeros on first use).
  void accumulate_grad(const Tensor& delta);
};

/// Value-semantic handle to a tape node (like torch.Tensor w/ autograd).
class Var {
 public:
  Var() = default;
  /// Leaf variable.
  explicit Var(Tensor value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }
  const Tensor& value() const { return node_->value; }
  Tensor& mutable_value() { return node_->value; }
  const Shape& shape() const { return node_->value.shape(); }
  int64_t numel() const { return node_->value.numel(); }
  bool requires_grad() const { return node_ && node_->requires_grad; }

  /// Grad accumulated by the last backward() (zeros if none reached here).
  Tensor grad() const;
  void zero_grad();

  std::shared_ptr<Node> node() const { return node_; }

  /// Internal: wrap an existing node.
  static Var from_node(std::shared_ptr<Node> node);

 private:
  std::shared_ptr<Node> node_;
};

/// Create an op node. `backward` receives the upstream gradient and must
/// call accumulate_grad on the parents it differentiates into; it may
/// capture parent nodes by shared_ptr. Skipped entirely when no parent
/// requires grad.
Var make_op(Tensor value, std::vector<Var> parents,
            std::function<void(const Tensor& upstream)> backward);

/// Run reverse-mode accumulation from a scalar root (numel == 1).
void backward(const Var& root);

/// Per-backward "grad ready" hooks — the substrate for DDP-style bucketed
/// gradient communication. Register on the thread that will call
/// backward(); the hooks are consumed by that thread's next (outermost)
///// reverse sweep: fn(i) fires exactly once per registered node, on the
/// sweep thread, as soon as the last tape-visible consumer of nodes[i]
/// has executed its backward — i.e. mid-sweep, which is what lets a
/// gradient bucket's reduction launch while the rest of backward is still
/// running. Nodes with no tape-visible consumer (parameters unused this
/// step, or referenced only inside checkpoint recompute closures, whose
/// inner tapes are invisible to the outer sweep) fire after the sweep's
/// last node, when every gradient is final. Hooks are cleared when the
/// sweep finishes, normally or by exception (unfired hooks never fire).
void set_grad_ready_hooks(const std::vector<Var>& nodes,
                          std::function<void(size_t)> fn);

/// Drop hooks registered on this thread without running a backward.
void clear_grad_ready_hooks();

/// Thread-local autograd switch (torch.no_grad analogue). While disabled,
/// make_op produces constant nodes with no parents or backward — the
/// mechanism gradient checkpointing uses to run a cheap forward.
bool grad_enabled();

class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// Gradient checkpointing (§2.2: OpenFold's memory/speed trade; §4.1: DAP
/// frees enough memory to disable it). Runs `fn` with autograd disabled —
/// no intermediate tape is kept — and registers output nodes whose
/// backward re-executes `fn` with autograd enabled on fresh leaves, then
/// routes gradients to `inputs`. `fn` may yield several outputs (an
/// Evoformer block yields both the MSA and pair representations); a
/// single-output segment returns a one-element vector. The recompute fires
/// exactly once, when the first of the outputs is reached in the reverse
/// sweep — at which point every output's upstream gradient is complete,
/// because all consumers were created after all outputs on the tape.
std::vector<Var> checkpoint_multi(
    const std::function<std::vector<Var>(const std::vector<Var>&)>& fn,
    const std::vector<Var>& inputs);

/// Number of tape nodes reachable from `root` (memory-footprint proxy for
/// checkpointing tests/benches).
size_t reachable_nodes(const Var& root);

}  // namespace sf::autograd
