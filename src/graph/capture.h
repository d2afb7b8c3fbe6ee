// Whole-step capture + planned replay: the memory half of the paper's
// CUDA-Graphs leg (§3.2), CPU-faithful.
//
// A StepPlanner owns one step shape (one "graph key": recycling count x
// batch signature, or one serving bucket). Its first run() records every
// Tensor buffer's (size, def tick, free tick) through a RecordingAllocator
// while the step executes normally; the trace becomes a MemoryPlan
// (mem_plan.h). Every later run() executes the same step out of a
// pre-sized arena: the allocation sequence is a pure function of the step
// shape, so the ArenaAllocator serves request k at the planned offset of
// buffer k — zero heap allocation, zero allocator jitter, and
// bitwise-identical outputs (buffer addresses are the only thing that
// changes; every kernel runs the same IEEE DAG).
//
// Replay is defensive, not trusting: if the sequence diverges from the
// plan (a NaN-skipped step, a code path the capture never saw), the
// allocator falls back to the heap for the rest of the step, counts the
// divergence (memplan.divergences), and the step still completes
// correctly. Escaping buffers — alive past the capture scope — are never
// placed in the arena; they are served from the heap on replay too.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/mem_plan.h"
#include "tensor/allocator.h"

namespace sf::graph {

/// Eager runs per step shape before its capture. At least one is needed so
/// persistent state (gradient buffers, optimizer scratch, lazily-built
/// model caches) is materialized on the heap instead of escaping the
/// capture.
inline constexpr int64_t kCaptureWarmupRuns = 1;

/// Records buffer lifetimes while forwarding storage to the process heap.
/// Install for exactly one step via AllocatorScope; frees arriving after
/// take_lifetimes() (escaping buffers dying later) still release their
/// heap storage but no longer mutate the trace.
class RecordingAllocator : public Allocator {
 public:
  RecordingAllocator();

  float* allocate(int64_t numel) override;
  void deallocate(float* ptr, int64_t numel) override;
  const char* name() const override { return "recording"; }

  /// Close the trace: buffers still live get free_tick = -1 (escaping).
  /// Call after the step's tape has been destroyed.
  std::vector<BufferLife> take_lifetimes();

 private:
  mutable std::mutex mu_;
  bool sealed_ = false;
  int64_t tick_ = 0;
  std::vector<BufferLife> lifetimes_;
  std::unordered_map<float*, int64_t> live_;  ///< ptr -> buffer id
};

/// Replays a MemoryPlan: allocation k of a step is served at the planned
/// offset of buffer k. One step at a time (begin_step/end_step), but
/// deallocate is thread-safe — a buffer may be dropped from any thread.
class ArenaAllocator : public Allocator {
 public:
  explicit ArenaAllocator(MemoryPlan plan);
  ~ArenaAllocator() override;

  void begin_step();
  /// True when the finished step matched the plan exactly: every
  /// allocation served from the plan, every arena buffer returned.
  bool end_step();
  /// Close a step whose body threw. The failure is the caller's, not a
  /// departure from the plan, so it is not counted as a divergence; arena
  /// buffers the aborted step leaked still make the next step divergent
  /// (begin_step).
  void abort_step();

  float* allocate(int64_t numel) override;
  void deallocate(float* ptr, int64_t numel) override;
  const char* name() const override { return "arena"; }

  int64_t divergences() const { return divergences_; }
  int64_t heap_fallbacks() const { return heap_fallbacks_; }

  /// Debug mode (tests): poison arena bytes on logical free and verify a
  /// slot is still fully poisoned when handed out again — a live-range
  /// overlap would have overwritten the pattern. Off by default (it makes
  /// every free O(bytes)).
  void set_poison_checks(bool on) { poison_ = on; }
  static constexpr unsigned char kPoisonByte = 0xDB;

 private:
  bool in_arena(const float* p) const;

  MemoryPlan plan_;
  char* arena_ = nullptr;
  mutable std::mutex mu_;
  bool in_step_ = false;
  bool diverged_ = false;
  bool poison_ = false;
  int64_t next_ = 0;         ///< next planned buffer id this step
  int64_t live_arena_ = 0;   ///< arena buffers handed out, not yet freed
  int64_t divergences_ = 0;  ///< steps that fell off the plan
  int64_t heap_fallbacks_ = 0;
};

/// Capture-then-replay lifecycle for one step shape. First run() records
/// and plans; later runs replay out of the arena. Not thread-safe: one
/// planner belongs to one step-executing thread (the trainer's step
/// thread, or one serving model worker).
class StepPlanner {
 public:
  struct Stats {
    int64_t captures = 0;
    int64_t replays = 0;
    int64_t clean_replays = 0;  ///< replays that matched the plan exactly
    int64_t divergences = 0;
    int64_t arena_bytes = 0;
    int64_t eager_peak_bytes = 0;
    int64_t planned_buffers = 0;
    int64_t escaping_buffers = 0;
  };

  explicit StepPlanner(int64_t align_bytes = 64);

  /// Execute `fn` under this planner's memory discipline.
  void run(const std::function<void()>& fn);

  bool captured() const { return arena_ != nullptr; }
  Stats stats() const { return stats_; }

 private:
  int64_t align_bytes_;
  std::shared_ptr<ArenaAllocator> arena_;
  Stats stats_;
};

}  // namespace sf::graph
