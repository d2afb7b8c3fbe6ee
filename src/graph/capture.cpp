#include "graph/capture.h"

#include <cstring>
#include <new>

#include "common/error.h"
#include "obs/metrics.h"

namespace sf::graph {
namespace {

struct MemplanObs {
  obs::Counter& captures =
      obs::Registry::global().counter("memplan.captures");
  obs::Counter& replays = obs::Registry::global().counter("memplan.replays");
  obs::Counter& divergences =
      obs::Registry::global().counter("memplan.divergences");
  obs::Gauge& arena_bytes =
      obs::Registry::global().gauge("memplan.arena_bytes");
};

MemplanObs& memplan_obs() {
  static MemplanObs o;
  return o;
}

}  // namespace

RecordingAllocator::RecordingAllocator() = default;

float* RecordingAllocator::allocate(int64_t numel) {
  float* p = heap_allocator()->allocate(numel);
  std::lock_guard<std::mutex> lock(mu_);
  if (!sealed_) {
    BufferLife life;
    life.id = static_cast<int64_t>(lifetimes_.size());
    life.numel = numel;
    life.def_tick = tick_++;
    live_.emplace(p, life.id);
    lifetimes_.push_back(life);
  }
  return p;
}

void RecordingAllocator::deallocate(float* ptr, int64_t numel) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!sealed_) {
      auto it = live_.find(ptr);
      SF_CHECK(it != live_.end()) << "free of unrecorded buffer";
      lifetimes_[static_cast<size_t>(it->second)].free_tick = tick_++;
      live_.erase(it);
    }
  }
  heap_allocator()->deallocate(ptr, numel);
}

std::vector<BufferLife> RecordingAllocator::take_lifetimes() {
  std::lock_guard<std::mutex> lock(mu_);
  SF_CHECK(!sealed_) << "take_lifetimes() called twice";
  sealed_ = true;
  live_.clear();  // whatever is still live stays free_tick = -1 (escaping)
  return std::move(lifetimes_);
}

ArenaAllocator::ArenaAllocator(MemoryPlan plan) : plan_(std::move(plan)) {
  if (plan_.arena_bytes > 0) {
    arena_ = static_cast<char*>(::operator new(
        static_cast<size_t>(plan_.arena_bytes),
        std::align_val_t(static_cast<size_t>(plan_.align_bytes))));
  }
}

ArenaAllocator::~ArenaAllocator() {
  if (arena_ != nullptr) {
    ::operator delete(arena_,
                      std::align_val_t(static_cast<size_t>(plan_.align_bytes)));
  }
}

bool ArenaAllocator::in_arena(const float* p) const {
  const char* c = reinterpret_cast<const char*>(p);
  return arena_ != nullptr && c >= arena_ && c < arena_ + plan_.arena_bytes;
}

void ArenaAllocator::begin_step() {
  std::lock_guard<std::mutex> lock(mu_);
  SF_CHECK(!in_step_) << "nested ArenaAllocator step";
  in_step_ = true;
  diverged_ = live_arena_ != 0;  // a leaked buffer poisons slot reuse
  next_ = 0;
  if (poison_ && arena_ != nullptr && live_arena_ == 0) {
    std::memset(arena_, kPoisonByte, static_cast<size_t>(plan_.arena_bytes));
  }
}

bool ArenaAllocator::end_step() {
  std::lock_guard<std::mutex> lock(mu_);
  SF_CHECK(in_step_) << "end_step without begin_step";
  in_step_ = false;
  const bool clean = !diverged_ && live_arena_ == 0 &&
                     next_ == plan_.num_buffers();
  if (!clean) ++divergences_;
  return clean;
}

void ArenaAllocator::abort_step() {
  std::lock_guard<std::mutex> lock(mu_);
  SF_CHECK(in_step_) << "abort_step without begin_step";
  in_step_ = false;
}

float* ArenaAllocator::allocate(int64_t numel) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (in_step_ && !diverged_ && next_ < plan_.num_buffers() &&
        plan_.numels[static_cast<size_t>(next_)] == numel) {
      const int64_t id = next_++;
      const int64_t offset = plan_.offsets[static_cast<size_t>(id)];
      if (offset >= 0) {
        ++live_arena_;
        float* p = reinterpret_cast<float*>(arena_ + offset);
        if (poison_) {
          // The slot must still carry the free-time poison: a live-range
          // overlap would have written real data over it.
          const unsigned char* bytes =
              reinterpret_cast<const unsigned char*>(p);
          const size_t sz = static_cast<size_t>(numel) * sizeof(float);
          for (size_t i = 0; i < sz; ++i) {
            SF_CHECK(bytes[i] == kPoisonByte)
                << "arena slot for buffer" << id
                << "not poisoned at byte" << i << "- live-range overlap?";
          }
        }
        return p;
      }
      // Escaping slot: planned to live on the heap.
      ++heap_fallbacks_;
    } else {
      // Off-plan request: finish the step on the heap.
      diverged_ = true;
      ++heap_fallbacks_;
    }
  }
  return heap_allocator()->allocate(numel);
}

void ArenaAllocator::deallocate(float* ptr, int64_t numel) {
  if (in_arena(ptr)) {
    std::lock_guard<std::mutex> lock(mu_);
    --live_arena_;
    if (poison_) {
      std::memset(ptr, kPoisonByte,
                  static_cast<size_t>(numel) * sizeof(float));
    }
    return;  // logical free: the plan already knows the slot's next life
  }
  heap_allocator()->deallocate(ptr, numel);
}

StepPlanner::StepPlanner(int64_t align_bytes) : align_bytes_(align_bytes) {}

const MemoryPlan* StepPlanner::plan() const {
  return arena_ != nullptr ? &arena_->plan() : nullptr;
}

void StepPlanner::run(const std::function<void()>& fn) {
  if (arena_ == nullptr) {
    auto recorder = std::make_shared<RecordingAllocator>();
    {
      AllocatorScope scope(recorder);
      fn();
    }
    std::vector<BufferLife> lifetimes = recorder->take_lifetimes();
    MemoryPlan plan = MemoryPlanner(align_bytes_).plan(lifetimes);
    stats_.planned_buffers = plan.num_buffers() - plan.num_escaping();
    stats_.escaping_buffers = plan.num_escaping();
    stats_.arena_bytes = plan.arena_bytes;
    stats_.eager_peak_bytes = plan.eager_peak_bytes;
    arena_ = std::make_shared<ArenaAllocator>(std::move(plan));
    ++stats_.captures;
    MemplanObs& o = memplan_obs();
    o.captures.add();
    o.arena_bytes.set(static_cast<double>(stats_.arena_bytes));
    return;
  }
  arena_->begin_step();
  try {
    AllocatorScope scope(arena_);
    fn();
  } catch (...) {
    // A serving forward may fail and be handled by the caller: close the
    // step (leaving it open would trip the nested-step check on the next
    // replay) without counting the caller's failure as a divergence.
    arena_->abort_step();
    throw;
  }
  const bool clean = arena_->end_step();
  ++stats_.replays;
  stats_.clean_replays += clean ? 1 : 0;
  stats_.divergences = arena_->divergences();
  MemplanObs& o = memplan_obs();
  o.replays.add();
  if (!clean) o.divergences.add();
}

}  // namespace sf::graph
