// Intra-op parallelism substrate: sf::parallel_for / sf::parallel_reduce.
//
// ScaleFold's kernel wins (§3.3.1) come from saturating the hardware with
// highly parallel fused kernels; on this CPU reproduction the analogue is
// running every hot kernel across a process-wide compute pool. Design
// constraints, in order of priority:
//
//   1. Determinism. The split of an index range into chunks depends ONLY
//      on (range length, grain), never on the thread count, and reduction
//      partials are combined in fixed chunk order. Kernel outputs are
//      therefore bitwise identical at SF_NUM_THREADS=1 and =N — the same
//      property the paper needs for its convergence-preserving claims.
//   2. Small tensors stay serial. `grain` is the minimum number of items
//      worth shipping to another thread; ranges that produce a single
//      chunk run inline with zero synchronization.
//   3. No deadlocks under nesting. A pool worker (or a caller already
//      inside a parallel region) that re-enters parallel_for runs the
//      chunks inline instead of waiting on the pool.
//   4. Exception safety. The first exception thrown by any chunk is
//      rethrown on the caller after all in-flight chunks finish; the pool
//      survives and later parallel calls work normally.
//
// Thread count resolution: set_num_threads() override, else SF_NUM_THREADS
// from the environment, else std::thread::hardware_concurrency(). That
// global count is then capped per thread by the innermost IntraOpBudget the
// thread holds: DDP and DAP rank threads each hold max(1, count / world),
// so W ranks together fork about `count` threads instead of W * count. The
// pool is created lazily on first parallel call with count - 1 workers and
// recreated if a later override asks for more.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace sf {

/// Intra-op thread count in effect on the calling thread (>= 1): the
/// global count, capped by the calling thread's IntraOpBudget.
int num_threads();

/// Override the global intra-op thread count at runtime (benches sweep
/// this). n >= 1 sets the override; n <= 0 clears it back to
/// SF_NUM_THREADS / hardware_concurrency.
void set_num_threads(int n);

/// True on a thread currently executing parallel_for/parallel_reduce
/// chunks (pool worker or participating caller). Nested parallel calls on
/// such a thread run inline.
bool in_parallel_region();

/// RAII per-thread intra-op budget: while it lives, num_threads() on this
/// thread returns min(global count, n), so each parallel region the thread
/// runs forks at most n - 1 helpers. Budgets nest by taking the minimum,
/// and the destructor restores the previous one. n = 1 runs every region
/// inline. Every parallelized kernel is bitwise identical at any thread
/// count, so a budget changes scheduling but never results.
class IntraOpBudget {
 public:
  explicit IntraOpBudget(int n);
  ~IntraOpBudget();
  IntraOpBudget(const IntraOpBudget&) = delete;
  IntraOpBudget& operator=(const IntraOpBudget&) = delete;

  /// The budget each of `world` rank threads holds: an equal share,
  /// max(1, num_threads() / world), of the calling thread's count, so the
  /// ranks together fork about num_threads() threads rather than world
  /// times that. Call it on the thread that starts the ranks (a new thread
  /// holds no budget of its own).
  static int rank_share(int world);

 private:
  int prev_;
};

struct ChunkRange {
  int64_t begin = 0;
  int64_t end = 0;
};

namespace detail {

/// Number of chunks a range of `n` items splits into. Depends only on
/// (n, grain): at most ceil(n/grain), capped by a fixed constant so huge
/// ranges don't drown in per-chunk overhead. Never depends on the thread
/// count (determinism requirement #1).
int64_t chunk_count(int64_t n, int64_t grain);

/// Half-open bounds of chunk `idx` within [0, n) under an `n_chunks`-way
/// balanced split (first n % n_chunks chunks get one extra item).
ChunkRange chunk_bounds(int64_t n, int64_t n_chunks, int64_t idx);

/// Run body(chunk_idx) for every chunk index in [0, n_chunks), on the
/// compute pool when profitable. Chunk-to-thread assignment is dynamic
/// (it does not affect results: chunks are data-disjoint by contract).
/// Returns once every chunk has finished, without waiting for helpers that
/// have not started: a helper that starts after the last chunk was claimed
/// claims nothing and never touches `body`. Rethrows the first chunk
/// exception after all chunks finish.
void run_chunks(int64_t n_chunks, const std::function<void(int64_t)>& body);

}  // namespace detail

/// Apply body(begin, end) over deterministic sub-ranges covering
/// [begin, end). Sub-ranges are disjoint; body must only write state owned
/// by its range. Ranges below ~grain items run inline on the caller.
void parallel_for(int64_t begin, int64_t end, int64_t grain,
                  const std::function<void(int64_t, int64_t)>& body);

/// Deterministic map-reduce: map(begin, end) -> T per chunk, partials
/// combined left-to-right in chunk-index order (fixed order regardless of
/// thread count, so floating-point results are reproducible). The chunked
/// evaluation runs even at one thread so the summation tree is identical
/// at every thread count.
template <typename T, typename Map, typename Combine>
T parallel_reduce(int64_t begin, int64_t end, int64_t grain, T init,
                  const Map& map, const Combine& combine) {
  const int64_t n = end - begin;
  if (n <= 0) return init;
  const int64_t chunks = detail::chunk_count(n, grain);
  std::vector<T> partials(static_cast<size_t>(chunks));
  detail::run_chunks(chunks, [&](int64_t c) {
    ChunkRange r = detail::chunk_bounds(n, chunks, c);
    partials[static_cast<size_t>(c)] = map(begin + r.begin, begin + r.end);
  });
  T acc = init;
  for (const T& p : partials) acc = combine(acc, p);
  return acc;
}

}  // namespace sf
