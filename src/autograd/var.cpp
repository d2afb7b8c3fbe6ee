#include "autograd/var.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>

#include "common/error.h"

namespace sf::autograd {
namespace {
std::atomic<uint64_t> g_next_id{1};
thread_local bool g_grad_enabled = true;

struct GradReadyHooks {
  std::vector<std::shared_ptr<Node>> nodes;
  std::function<void(size_t)> fn;
};
thread_local GradReadyHooks g_hooks;
/// Sweep nesting depth on this thread; checkpoint recomputes run inner
/// sweeps (depth > 1) that must not consume the registered hooks.
thread_local int g_sweep_depth = 0;
}

bool grad_enabled() { return g_grad_enabled; }

NoGradGuard::NoGradGuard() : prev_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = prev_; }

void Node::accumulate_grad(const Tensor& delta) {
  if (!grad.defined()) {
    grad = delta.clone();
  } else {
    grad.add_(delta);
  }
}

Var::Var(Tensor value, bool requires_grad) {
  node_ = std::make_shared<Node>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
  node_->id = g_next_id.fetch_add(1, std::memory_order_relaxed);
}

Tensor Var::grad() const {
  SF_CHECK(node_ != nullptr);
  if (node_->grad.defined()) return node_->grad;
  return Tensor::zeros(node_->value.shape());
}

void Var::zero_grad() {
  SF_CHECK(node_ != nullptr);
  // Fill in place instead of dropping the buffer: under step capture the
  // gradient storage is persistent state materialized by the warm-up step,
  // and keeping it heap-stable is what leaves the steady-state step with
  // zero allocations. A never-allocated grad stays undefined (lazy).
  if (node_->grad.defined()) {
    node_->grad.fill(0.0f);
  }
}

Var Var::from_node(std::shared_ptr<Node> node) {
  Var v;
  v.node_ = std::move(node);
  return v;
}

Var make_op(Tensor value, std::vector<Var> parents,
            std::function<void(const Tensor& upstream)> backward) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  bool needs = false;
  if (g_grad_enabled) {
    for (const Var& p : parents) {
      SF_CHECK(p.defined()) << "undefined parent Var";
      needs = needs || p.requires_grad();
      node->parents.push_back(p.node());
    }
  }
  node->requires_grad = needs;
  if (needs) node->backward = std::move(backward);
  return Var::from_node(std::move(node));
}

void set_grad_ready_hooks(const std::vector<Var>& nodes,
                          std::function<void(size_t)> fn) {
  g_hooks.nodes.clear();
  g_hooks.nodes.reserve(nodes.size());
  for (const Var& v : nodes) {
    SF_CHECK(v.defined()) << "undefined Var in grad-ready hooks";
    g_hooks.nodes.push_back(v.node());
  }
  g_hooks.fn = std::move(fn);
}

void clear_grad_ready_hooks() {
  g_hooks.nodes.clear();
  g_hooks.fn = nullptr;
}

namespace {
/// Execute the nodes of `order` (already sorted by decreasing creation
/// id, a topological order for the dynamic tape). The outermost sweep on
/// a thread additionally drives the registered grad-ready hooks: a hooked
/// node fires as soon as its last consumer in `order` has executed (every
/// later contribution is impossible — consumers are always created after
/// their parents), or after the final node for hooked nodes no consumer
/// in this sweep reaches.
void execute_sweep(const std::vector<Node*>& order) {
  struct DepthGuard {
    DepthGuard() { ++g_sweep_depth; }
    ~DepthGuard() { --g_sweep_depth; }
  } depth_guard;

  const bool hooks_active =
      g_sweep_depth == 1 && g_hooks.fn && !g_hooks.nodes.empty();
  if (!hooks_active) {
    for (Node* n : order) {
      if (!n->requires_grad || !n->backward || !n->grad.defined()) continue;
      n->backward(n->grad);
    }
    return;
  }

  // Outermost sweep with hooks: count tape-visible consumers per hooked
  // node, then fire each hook when its count drains to zero. All counting
  // and firing follows the fixed sweep order, so the firing sequence is
  // deterministic — the property the bucketed all-reduce path relies on
  // to match collectives across ranks by launch index.
  struct HookClearGuard {
    ~HookClearGuard() { clear_grad_ready_hooks(); }
  } clear_guard;
  std::unordered_map<const Node*, size_t> index;
  index.reserve(g_hooks.nodes.size());
  for (size_t i = 0; i < g_hooks.nodes.size(); ++i) {
    index.emplace(g_hooks.nodes[i].get(), i);
  }
  std::vector<int64_t> pending(g_hooks.nodes.size(), 0);
  for (const Node* n : order) {
    for (const auto& p : n->parents) {
      auto it = index.find(p.get());
      if (it != index.end()) ++pending[it->second];
    }
  }
  std::vector<char> fired(g_hooks.nodes.size(), 0);
  for (Node* n : order) {
    if (n->requires_grad && n->backward && n->grad.defined()) {
      n->backward(n->grad);
    }
    // Whether or not this node propagated a gradient, it will never
    // contribute again — drain its parents' counts.
    for (const auto& p : n->parents) {
      auto it = index.find(p.get());
      if (it == index.end()) continue;
      const size_t i = it->second;
      if (--pending[i] == 0 && !fired[i]) {
        fired[i] = 1;
        g_hooks.fn(i);
      }
    }
  }
  for (size_t i = 0; i < fired.size(); ++i) {
    if (!fired[i]) g_hooks.fn(i);
  }
}

void run_backward(const std::vector<Var>& roots,
                  const std::vector<Tensor>& seeds) {
  // Collect the union reachable subgraph.
  std::vector<Node*> order;
  std::unordered_set<Node*> seen;
  std::vector<Node*> stack;
  for (const Var& r : roots) stack.push_back(r.node().get());
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    order.push_back(n);
    for (auto& p : n->parents) stack.push_back(p.get());
  }
  // Reverse creation order == topological order for a dynamic tape.
  std::sort(order.begin(), order.end(),
            [](Node* a, Node* b) { return a->id > b->id; });
  for (size_t i = 0; i < roots.size(); ++i) {
    roots[i].node()->accumulate_grad(seeds[i]);
  }
  execute_sweep(order);
}

}  // namespace

void backward(const Var& root) {
  SF_CHECK(root.defined());
  SF_CHECK(root.numel() == 1) << "backward() root must be scalar";
  run_backward({root}, {Tensor::ones(root.value().shape())});
}

std::vector<Var> checkpoint_multi(
    const std::function<std::vector<Var>(const std::vector<Var>&)>& fn,
    const std::vector<Var>& inputs) {
  std::vector<Tensor> values;
  {
    NoGradGuard no_grad;
    for (const Var& v : fn(inputs)) values.push_back(v.value().clone());
  }
  auto saved = std::make_shared<std::vector<Tensor>>();
  for (const Var& in : inputs) saved->push_back(in.value().clone());
  auto input_nodes = std::make_shared<std::vector<std::shared_ptr<Node>>>();
  for (const Var& in : inputs) input_nodes->push_back(in.node());

  // Create the output nodes first so the recompute closure can read every
  // sibling's accumulated gradient.
  std::vector<Var> outs;
  outs.reserve(values.size());
  for (Tensor& v : values) {
    outs.push_back(make_op(std::move(v), inputs, nullptr));
  }
  // weak_ptr: the closure lives inside these very nodes; shared_ptr would
  // create a reference cycle and leak every checkpointed segment.
  auto out_nodes = std::make_shared<std::vector<std::weak_ptr<Node>>>();
  for (const Var& o : outs) out_nodes->push_back(o.node());

  auto fired = std::make_shared<bool>(false);
  auto recompute = [fn, saved, input_nodes, out_nodes,
                    fired](const Tensor& /*up*/) {
    if (*fired) return;
    *fired = true;
    std::vector<Var> leaves;
    for (const Tensor& t : *saved) leaves.emplace_back(t.clone(), true);
    std::vector<Var> inner = fn(leaves);
    SF_CHECK(inner.size() == out_nodes->size());
    std::vector<Var> roots;
    std::vector<Tensor> seeds;
    for (size_t i = 0; i < inner.size(); ++i) {
      auto on = (*out_nodes)[i].lock();
      SF_CHECK(on != nullptr) << "checkpoint output node expired";
      roots.push_back(inner[i]);
      seeds.push_back(on->grad.defined()
                          ? on->grad
                          : Tensor::zeros(on->value.shape()));
    }
    run_backward(roots, seeds);
    for (size_t i = 0; i < leaves.size(); ++i) {
      if ((*input_nodes)[i]->requires_grad &&
          leaves[i].node()->grad.defined()) {
        (*input_nodes)[i]->accumulate_grad(leaves[i].node()->grad);
      }
    }
  };
  for (Var& o : outs) {
    auto node = o.node();
    node->requires_grad = true;
    node->backward = recompute;
  }
  return outs;
}

size_t reachable_nodes(const Var& root) {
  std::unordered_set<Node*> seen;
  std::vector<Node*> stack{root.node().get()};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (!seen.insert(n).second) continue;
    for (auto& p : n->parents) stack.push_back(p.get());
  }
  return seen.size();
}

}  // namespace sf::autograd
