#include "graph/mem_plan.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/error.h"

namespace sf::graph {
namespace {

int64_t round_up(int64_t v, int64_t align) {
  return (v + align - 1) / align * align;
}

/// Free intervals of the arena, keyed by offset, coalescing on insert.
class FreeList {
 public:
  void release(int64_t offset, int64_t size) {
    auto next = intervals_.lower_bound(offset);
    // Coalesce with predecessor.
    if (next != intervals_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second == offset) {
        offset = prev->first;
        size += prev->second;
        intervals_.erase(prev);
      }
    }
    // Coalesce with successor.
    if (next != intervals_.end() && offset + size == next->first) {
      size += next->second;
      intervals_.erase(next);
    }
    intervals_.emplace(offset, size);
  }

  /// Best fit: smallest interval with size >= need; lowest offset on ties
  /// (map iteration order makes the tie-break deterministic). Returns -1
  /// when nothing fits.
  int64_t take_best_fit(int64_t need) {
    auto best = intervals_.end();
    for (auto it = intervals_.begin(); it != intervals_.end(); ++it) {
      if (it->second < need) continue;
      if (best == intervals_.end() || it->second < best->second) best = it;
    }
    if (best == intervals_.end()) return -1;
    const int64_t offset = best->first;
    const int64_t left = best->second - need;
    intervals_.erase(best);
    if (left > 0) intervals_.emplace(offset + need, left);
    return offset;
  }

  /// Interval ending exactly at `top`, if any: growing the arena there
  /// reuses the tail hole instead of stacking a fresh extent on top.
  bool take_tail(int64_t top, int64_t* offset, int64_t* size) {
    for (auto it = intervals_.begin(); it != intervals_.end(); ++it) {
      if (it->first + it->second == top) {
        *offset = it->first;
        *size = it->second;
        intervals_.erase(it);
        return true;
      }
    }
    return false;
  }

 private:
  std::map<int64_t, int64_t> intervals_;
};

struct Event {
  int64_t tick;
  bool is_def;
  int64_t id;
};

std::vector<Event> event_walk(const std::vector<BufferLife>& lifetimes) {
  std::vector<Event> events;
  events.reserve(lifetimes.size() * 2);
  for (const BufferLife& b : lifetimes) {
    events.push_back({b.def_tick, true, b.id});
    if (b.free_tick >= 0) {
      SF_CHECK(b.free_tick > b.def_tick)
          << "buffer" << b.id << "freed at/before its definition";
      events.push_back({b.free_tick, false, b.id});
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tick != b.tick) return a.tick < b.tick;
    // Frees before defs at equal ticks (the event clock makes ticks
    // unique in real captures; this keeps synthetic inputs sane).
    return a.is_def < b.is_def;
  });
  return events;
}

}  // namespace

int64_t MemoryPlan::num_escaping() const {
  int64_t n = 0;
  for (int64_t off : offsets) n += (off < 0) ? 1 : 0;
  return n;
}

MemoryPlanner::MemoryPlanner(int64_t align_bytes) : align_bytes_(align_bytes) {
  SF_CHECK(align_bytes_ > 0);
  SF_CHECK((align_bytes_ & (align_bytes_ - 1)) == 0)
      << "alignment must be a power of two, got" << align_bytes_;
}

MemoryPlan MemoryPlanner::plan(const std::vector<BufferLife>& lifetimes) const {
  const int64_t n = static_cast<int64_t>(lifetimes.size());
  MemoryPlan out;
  out.align_bytes = align_bytes_;
  out.offsets.assign(static_cast<size_t>(n), -1);
  out.numels.assign(static_cast<size_t>(n), 0);
  std::vector<const BufferLife*> by_id(static_cast<size_t>(n), nullptr);
  std::vector<int64_t> padded(static_cast<size_t>(n), 0);
  for (const BufferLife& b : lifetimes) {
    SF_CHECK(b.id >= 0 && b.id < n) << "buffer id" << b.id << "not dense";
    SF_CHECK(by_id[static_cast<size_t>(b.id)] == nullptr)
        << "duplicate buffer id" << b.id;
    by_id[static_cast<size_t>(b.id)] = &b;
    out.numels[static_cast<size_t>(b.id)] = b.numel;
    padded[static_cast<size_t>(b.id)] =
        round_up(b.numel * static_cast<int64_t>(sizeof(float)), align_bytes_);
  }

  FreeList free_list;
  int64_t top = 0;        // arena high watermark
  int64_t live_raw = 0;   // unaligned live bytes (the eager-peak measure)
  for (const Event& ev : event_walk(lifetimes)) {
    const BufferLife& b = *by_id[static_cast<size_t>(ev.id)];
    const int64_t raw = b.numel * static_cast<int64_t>(sizeof(float));
    if (!ev.is_def) {
      live_raw -= raw;
      if (out.offsets[static_cast<size_t>(ev.id)] >= 0) {
        free_list.release(out.offsets[static_cast<size_t>(ev.id)],
                          padded[static_cast<size_t>(ev.id)]);
      }
      continue;
    }
    live_raw += raw;
    out.eager_peak_bytes = std::max(out.eager_peak_bytes, live_raw);
    if (b.free_tick < 0) continue;  // escaping: stays on the heap
    const int64_t need = padded[static_cast<size_t>(ev.id)];
    int64_t offset = free_list.take_best_fit(need);
    if (offset < 0) {
      // Grow the arena, absorbing a tail hole when one touches the top.
      int64_t tail_off = 0, tail_size = 0;
      if (free_list.take_tail(top, &tail_off, &tail_size)) {
        offset = tail_off;
      } else {
        offset = top;
      }
      top = offset + need;
    }
    out.offsets[static_cast<size_t>(ev.id)] = offset;
  }
  out.arena_bytes = top;
  return out;
}

bool MemoryPlanner::validate(const MemoryPlan& plan,
                             const std::vector<BufferLife>& lifetimes,
                             std::string* error) {
  auto set_error = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  for (const BufferLife& b : lifetimes) {
    const size_t i = static_cast<size_t>(b.id);
    if (i >= plan.offsets.size()) return set_error("id out of range");
    const int64_t off = plan.offsets[i];
    const int64_t raw = b.numel * static_cast<int64_t>(sizeof(float));
    if (b.free_tick < 0) {
      if (off >= 0) {
        std::ostringstream os;
        os << "escaping buffer " << b.id << " placed in arena";
        return set_error(os.str());
      }
      continue;
    }
    if (off < 0) continue;  // heap-class by planner choice: legal
    if (off % plan.align_bytes != 0 || off + raw > plan.arena_bytes) {
      std::ostringstream os;
      os << "buffer " << b.id << " at offset " << off << " size " << raw
         << " breaks arena bounds/alignment (arena " << plan.arena_bytes
         << ")";
      return set_error(os.str());
    }
  }
  for (size_t i = 0; i < lifetimes.size(); ++i) {
    for (size_t j = i + 1; j < lifetimes.size(); ++j) {
      const BufferLife& a = lifetimes[i];
      const BufferLife& b = lifetimes[j];
      const int64_t ao = plan.offsets[static_cast<size_t>(a.id)];
      const int64_t bo = plan.offsets[static_cast<size_t>(b.id)];
      if (ao < 0 || bo < 0) continue;
      // Time overlap: [def, free) intervals intersect.
      const int64_t a_end = a.free_tick;
      const int64_t b_end = b.free_tick;
      if (a.def_tick >= b_end || b.def_tick >= a_end) continue;
      const int64_t a_sz = a.numel * static_cast<int64_t>(sizeof(float));
      const int64_t b_sz = b.numel * static_cast<int64_t>(sizeof(float));
      if (ao < bo + b_sz && bo < ao + a_sz) {
        std::ostringstream os;
        os << "live-range overlap: buffer " << a.id << " [" << ao << ","
           << ao + a_sz << ") vs buffer " << b.id << " [" << bo << ","
           << bo + b_sz << ")";
        return set_error(os.str());
      }
    }
  }
  return true;
}

}  // namespace sf::graph
