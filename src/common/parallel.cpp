#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "common/error.h"
#include "common/thread_pool.h"

namespace sf {
namespace {

/// Upper bound on chunks per loop: enough slack for dynamic load balance
/// at any sane thread count, small enough that per-chunk dispatch stays
/// negligible. A fixed constant (not a function of the thread count) so
/// the split — and every reduction order built on it — is reproducible.
constexpr int64_t kMaxChunksPerLoop = 64;

/// Completion checks the caller makes, yielding between them, before it
/// sleeps on the condition variable: a chunk a helper is finishing usually
/// ends within a few scheduler slices, and a sleep/wake round-trip costs
/// more than that.
constexpr int kSpinYields = 64;

std::atomic<int> g_thread_override{0};
thread_local bool t_in_parallel_region = false;
thread_local int t_budget = std::numeric_limits<int>::max();

int default_threads() {
  static const int cached = [] {
    if (const char* s = std::getenv("SF_NUM_THREADS"); s && *s) {
      int v = std::atoi(s);
      if (v >= 1) return v;
    }
    unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
  }();
  return cached;
}

int global_threads() {
  int o = g_thread_override.load(std::memory_order_relaxed);
  return o >= 1 ? o : default_threads();
}

// Process-wide compute pool, created lazily at first parallel call and
// replaced by a bigger one if a later set_num_threads() asks for more
// workers. In-flight regions hold a shared_ptr, so a replaced pool drains
// its queued helpers and joins once the last region releases it.
std::mutex g_pool_mu;
std::shared_ptr<ThreadPool> g_pool;

std::shared_ptr<ThreadPool> pool_with_at_least(int workers) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool || static_cast<int>(g_pool->size()) < workers) {
    g_pool = std::make_shared<ThreadPool>(static_cast<size_t>(workers));
  }
  return g_pool;
}

}  // namespace

int num_threads() { return std::min(global_threads(), t_budget); }

void set_num_threads(int n) {
  g_thread_override.store(n >= 1 ? n : 0, std::memory_order_relaxed);
}

bool in_parallel_region() { return t_in_parallel_region; }

IntraOpBudget::IntraOpBudget(int n) : prev_(t_budget) {
  t_budget = std::min(prev_, std::max(1, n));
}

IntraOpBudget::~IntraOpBudget() { t_budget = prev_; }

int IntraOpBudget::rank_share(int world) {
  return std::max(1, num_threads() / std::max(1, world));
}

namespace detail {

int64_t chunk_count(int64_t n, int64_t grain) {
  if (n <= 0) return 0;
  if (grain < 1) grain = 1;
  const int64_t by_grain = (n + grain - 1) / grain;
  return std::min<int64_t>(by_grain, kMaxChunksPerLoop);
}

ChunkRange chunk_bounds(int64_t n, int64_t n_chunks, int64_t idx) {
  const int64_t base = n / n_chunks;
  const int64_t rem = n % n_chunks;
  ChunkRange r;
  r.begin = idx * base + std::min(idx, rem);
  r.end = r.begin + base + (idx < rem ? 1 : 0);
  return r;
}

void run_chunks(int64_t n_chunks, const std::function<void(int64_t)>& body) {
  if (n_chunks <= 0) return;
  const int threads = num_threads();
  if (n_chunks == 1 || threads <= 1 || t_in_parallel_region) {
    // Inline path: single chunk, single-threaded config, or a nested call
    // from inside a parallel region (waiting on the pool from one of its
    // own workers could deadlock it). Chunk order is ascending, matching
    // the fixed combine order of reductions.
    for (int64_t c = 0; c < n_chunks; ++c) body(c);
    return;
  }

  // Completion is counted per chunk, not per helper: once every chunk has
  // been claimed and finished the caller returns, even if some submitted
  // helpers have not started yet (their pool workers are busy with another
  // rank's region, or their vCPU is descheduled). Such a late helper finds
  // the chunk counter exhausted, claims nothing and never touches `body`;
  // it only touches `state`, which it co-owns.
  struct State {
    std::atomic<int64_t> next_chunk{0};
    std::atomic<int64_t> chunks_done{0};
    std::atomic<bool> failed{false};
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr first_error;
  };
  auto state = std::make_shared<State>();
  const int64_t total = n_chunks;

  // One chunk claimed per fetch_add; assignment order is irrelevant to the
  // results (chunks are data-disjoint, reductions combine by index).
  auto drain = [state, total, &body] {
    int64_t c;
    while ((c = state->next_chunk.fetch_add(1,
                                            std::memory_order_relaxed)) <
           total) {
      if (!state->failed.load(std::memory_order_relaxed)) {
        try {
          body(c);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->mu);
          if (!state->first_error) {
            state->first_error = std::current_exception();
          }
          state->failed.store(true, std::memory_order_relaxed);
        }
      }
      // Release: the chunk's writes happen-before the caller's acquire of
      // the final count. The last finisher notifies under the mutex so a
      // caller that has just checked the count cannot miss the wake-up.
      if (state->chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          total) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    }
  };

  const int helpers =
      static_cast<int>(std::min<int64_t>(threads - 1, n_chunks - 1));
  auto pool = pool_with_at_least(global_threads() - 1);
  for (int h = 0; h < helpers; ++h) {
    pool->submit([drain] {
      t_in_parallel_region = true;
      drain();
      t_in_parallel_region = false;
    });
  }

  // The caller participates: progress is guaranteed even when the pool is
  // busy with other regions' helpers.
  t_in_parallel_region = true;
  drain();
  t_in_parallel_region = false;

  const auto all_done = [&] {
    return state->chunks_done.load(std::memory_order_acquire) == total;
  };
  for (int i = 0; i < kSpinYields && !all_done(); ++i) {
    std::this_thread::yield();
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, all_done);
  if (state->first_error) {
    // Moved out, not copied: a late helper may drop the last reference to
    // `state`, and must not be the one that releases the exception.
    std::exception_ptr e = std::move(state->first_error);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

}  // namespace detail

void parallel_for(int64_t begin, int64_t end, int64_t grain,
                  const std::function<void(int64_t, int64_t)>& body) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  const int64_t chunks = detail::chunk_count(n, grain);
  if (chunks == 1) {
    // Fast path: no chunk-index indirection for small ranges.
    body(begin, end);
    return;
  }
  detail::run_chunks(chunks, [&](int64_t c) {
    ChunkRange r = detail::chunk_bounds(n, chunks, c);
    body(begin + r.begin, begin + r.end);
  });
}

}  // namespace sf
