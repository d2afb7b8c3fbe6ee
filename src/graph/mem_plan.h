// Static memory planner: lifetime analysis + arena packing with offset
// aliasing for a captured step's Tensor buffers.
//
// The CUDA-Graphs leg of the paper (§3.2) and MegaFold's memory
// optimization both rest on the same observation: a training step's
// allocation pattern is a pure function of the step shape, so after one
// recorded step the allocator has nothing left to decide. The planner
// takes the recorded buffer lifetimes (graph/capture.h), computes
// first-def / last-use on a shared event clock, and greedily packs
// non-overlapping lifetimes into one arena — best-fit over the free
// intervals, lowest offset on ties — so steady-state replays serve every
// buffer by offset with zero heap allocation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sf::graph {

/// One buffer lifetime observed during capture. `def_tick`/`free_tick`
/// are positions on a single monotone event clock advanced by every
/// allocation and every free, so two buffers overlap in time iff their
/// [def_tick, free_tick) intervals intersect.
struct BufferLife {
  int64_t id = 0;          ///< def order (dense, 0-based)
  int64_t numel = 0;       ///< floats
  int64_t def_tick = 0;
  int64_t free_tick = -1;  ///< -1 = still live when capture ended (escaping)
};

/// Result of planning: one offset per buffer id. Escaping buffers (alive
/// past the capture scope) get offset -1 — they cannot live in an arena
/// that is recycled next step, so replay serves them from the heap.
struct MemoryPlan {
  int64_t align_bytes = 64;
  int64_t arena_bytes = 0;       ///< packed arena size (aliased)
  int64_t eager_peak_bytes = 0;  ///< max live bytes of the capture trace
  std::vector<int64_t> offsets;  ///< per id; -1 = heap (escaping)
  std::vector<int64_t> numels;   ///< per id, in def order

  int64_t num_buffers() const { return static_cast<int64_t>(numels.size()); }
  int64_t num_escaping() const;
};

class MemoryPlanner {
 public:
  explicit MemoryPlanner(int64_t align_bytes = 64);

  /// Pack `lifetimes` (ids must be dense 0..n-1 in def order) into an
  /// arena. Deterministic: same lifetimes -> same plan.
  MemoryPlan plan(const std::vector<BufferLife>& lifetimes) const;

  /// O(n^2) audit used by the fuzz tests: every pair of arena buffers
  /// whose tick ranges overlap must not overlap in arena address space,
  /// and every buffer must sit inside the arena. Returns false and fills
  /// `error` on the first violation.
  static bool validate(const MemoryPlan& plan,
                       const std::vector<BufferLife>& lifetimes,
                       std::string* error);

 private:
  int64_t align_bytes_;
};

}  // namespace sf::graph
