// Tests for the intra-op parallelism substrate (sf::parallel_for /
// sf::parallel_reduce) and the bitwise 1-vs-N-thread determinism of every
// parallelized kernel.
//
// The determinism contract is the load-bearing property: the chunk split
// depends only on (range, grain) and reduction partials combine in fixed
// chunk order, so SF_NUM_THREADS must never change a single output bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "kernels/attention.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "kernels/layernorm.h"
#include "kernels/optimizer_kernels.h"
#include "kernels/softmax.h"

namespace sf {
namespace {

/// RAII thread-count override so a failing test can't leak its setting
/// into the rest of the binary.
struct ThreadGuard {
  explicit ThreadGuard(int n) { set_num_threads(n); }
  ~ThreadGuard() { set_num_threads(0); }
};

std::vector<float> random_vec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  fill_normal(rng, v.data(), n, 0.0f, 1.0f);
  return v;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// ---------------------------------------------------------------------------
// Substrate semantics.
// ---------------------------------------------------------------------------

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadGuard tg(4);
  for (int64_t n : {0, 1, 7, 64, 1000, 100000}) {
    for (int64_t grain : {1, 16, 1 << 14}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      parallel_for(0, n, grain, [&](int64_t b, int64_t e) {
        ASSERT_LE(0, b);
        ASSERT_LE(b, e);
        ASSERT_LE(e, n);
        for (int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
      });
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " grain=" << grain;
      }
    }
  }
}

TEST(ParallelFor, NonZeroBeginOffsetsCorrectly) {
  ThreadGuard tg(4);
  std::vector<int> hits(50, 0);
  std::mutex mu;
  parallel_for(10, 40, 4, [&](int64_t b, int64_t e) {
    std::lock_guard<std::mutex> lock(mu);
    for (int64_t i = b; i < e; ++i) hits[i]++;
  });
  for (int64_t i = 0; i < 50; ++i) EXPECT_EQ(hits[i], (i >= 10 && i < 40));
}

TEST(ParallelFor, EmptyAndNegativeRangesAreNoops) {
  ThreadGuard tg(4);
  int calls = 0;
  parallel_for(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  parallel_for(5, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, ChunkSplitIndependentOfThreadCount) {
  // Record the exact (begin, end) decomposition at 1 and at 4 threads;
  // they must be identical sets. This is requirement #1 (determinism).
  auto decompose = [](int threads, int64_t n, int64_t grain) {
    set_num_threads(threads);
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> out;
    parallel_for(0, n, grain, [&](int64_t b, int64_t e) {
      std::lock_guard<std::mutex> lock(mu);
      out.emplace_back(b, e);
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  for (int64_t n : {1, 63, 64, 65, 4096, 1 << 20}) {
    for (int64_t grain : {1, 100, 1 << 14}) {
      auto s1 = decompose(1, n, grain);
      auto s4 = decompose(4, n, grain);
      auto s7 = decompose(7, n, grain);
      EXPECT_EQ(s1, s4) << "n=" << n << " grain=" << grain;
      EXPECT_EQ(s1, s7) << "n=" << n << " grain=" << grain;
    }
  }
  set_num_threads(0);
}

TEST(ParallelFor, SmallRangeRunsInlineOnCaller) {
  ThreadGuard tg(4);
  const auto caller = std::this_thread::get_id();
  std::thread::id body_thread;
  // One chunk (n < grain): must run on the calling thread, zero handoff.
  parallel_for(0, 10, 1 << 14,
               [&](int64_t, int64_t) { body_thread = std::this_thread::get_id(); });
  EXPECT_EQ(body_thread, caller);
}

TEST(ParallelReduce, MatchesSerialSum) {
  ThreadGuard tg(4);
  const int64_t n = 100000;
  auto v = random_vec(n, 42);
  double expect = 0.0;
  // Reference must replicate the chunked tree: chunk-local sums in chunk
  // order — simplest is calling the reduce itself at 1 thread (covered by
  // the determinism test below); here check against a loose serial sum.
  for (float f : v) expect += f;
  double got = parallel_reduce<double>(
      0, n, 1 << 12, 0.0,
      [&](int64_t b, int64_t e) {
        double s = 0.0;
        for (int64_t i = b; i < e; ++i) s += v[i];
        return s;
      },
      [](double a, double b) { return a + b; });
  EXPECT_NEAR(got, expect, 1e-6 * n);
}

TEST(ParallelReduce, BitwiseIdenticalAcrossThreadCounts) {
  const int64_t n = (1 << 18) + 37;  // non-multiple-of-anything
  auto v = random_vec(n, 7);
  auto run = [&](int threads) {
    set_num_threads(threads);
    float r = parallel_reduce<float>(
        0, n, 1 << 12, 0.0f,
        [&](int64_t b, int64_t e) {
          float s = 0.0f;
          for (int64_t i = b; i < e; ++i) s += v[i];
          return s;
        },
        [](float a, float b) { return a + b; });
    set_num_threads(0);
    return r;
  };
  float r1 = run(1);
  for (int t : {2, 3, 4, 8}) {
    float rt = run(t);
    EXPECT_EQ(std::memcmp(&r1, &rt, sizeof(float)), 0) << "threads=" << t;
  }
}

TEST(ParallelFor, ExceptionPropagatesAndPoolSurvives) {
  ThreadGuard tg(4);
  const int64_t n = 1 << 18;
  EXPECT_THROW(
      parallel_for(0, n, 1,
                   [&](int64_t b, int64_t) {
                     if (b >= n / 2) throw std::runtime_error("chunk boom");
                   }),
      std::runtime_error);
  // The pool must survive and subsequent regions must work normally.
  std::atomic<int64_t> sum{0};
  parallel_for(0, 1000, 1, [&](int64_t b, int64_t e) {
    int64_t local = 0;
    for (int64_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 1000 * 999 / 2);
}

TEST(ParallelFor, FirstErrorIsReported) {
  ThreadGuard tg(4);
  try {
    parallel_for(0, 1 << 16, 1, [&](int64_t, int64_t) {
      throw std::runtime_error("expected failure");
    });
    FAIL() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "expected failure");
  }
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  ThreadGuard tg(4);
  const int64_t outer = 64, inner = 1 << 16;
  std::vector<double> row_sums(outer, 0.0);
  auto v = random_vec(inner, 3);
  parallel_for(0, outer, 1, [&](int64_t b, int64_t e) {
    EXPECT_TRUE(in_parallel_region());
    for (int64_t r = b; r < e; ++r) {
      // Nested region: must run inline (no pool round-trip, no deadlock)
      // and still produce the same chunked-deterministic result.
      row_sums[r] = parallel_reduce<double>(
          0, inner, 1 << 12, 0.0,
          [&](int64_t lo, int64_t hi) {
            double s = 0.0;
            for (int64_t i = lo; i < hi; ++i) s += v[i];
            return s;
          },
          [](double a, double b) { return a + b; });
    }
  });
  for (int64_t r = 1; r < outer; ++r) EXPECT_EQ(row_sums[r], row_sums[0]);
  EXPECT_FALSE(in_parallel_region());
}

TEST(ParallelConfig, SetNumThreadsOverridesAndClears) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1);
  set_num_threads(0);  // back to env/hardware default
  EXPECT_GE(num_threads(), 1);
}

// ---------------------------------------------------------------------------
// Per-thread intra-op budgets and claimed-chunk completion.
// ---------------------------------------------------------------------------

TEST(IntraOpBudget, CapsNumThreadsNestsByMinimumAndRestores) {
  ThreadGuard tg(4);
  EXPECT_EQ(num_threads(), 4);
  {
    IntraOpBudget outer(2);
    EXPECT_EQ(num_threads(), 2);
    {
      IntraOpBudget looser(3);  // nesting takes the minimum
      EXPECT_EQ(num_threads(), 2);
      IntraOpBudget tighter(1);
      EXPECT_EQ(num_threads(), 1);
    }
    EXPECT_EQ(num_threads(), 2);
    set_num_threads(1);  // a global count below the budget wins
    EXPECT_EQ(num_threads(), 1);
    set_num_threads(4);
    // The budget is per thread: another thread sees the global count.
    int other = 0;
    std::thread([&] { other = num_threads(); }).join();
    EXPECT_EQ(other, 4);
  }
  EXPECT_EQ(num_threads(), 4);
  IntraOpBudget clamped(0);
  EXPECT_EQ(num_threads(), 1);
}

TEST(IntraOpBudget, RankShareSplitsTheCallersCount) {
  ThreadGuard tg(4);
  EXPECT_EQ(IntraOpBudget::rank_share(1), 4);
  EXPECT_EQ(IntraOpBudget::rank_share(2), 2);
  EXPECT_EQ(IntraOpBudget::rank_share(3), 1);
  EXPECT_EQ(IntraOpBudget::rank_share(4), 1);
  EXPECT_EQ(IntraOpBudget::rank_share(8), 1);  // never below one thread
  IntraOpBudget caller(2);  // the share is of the caller's own budget
  EXPECT_EQ(IntraOpBudget::rank_share(1), 2);
  EXPECT_EQ(IntraOpBudget::rank_share(2), 1);
}

TEST(IntraOpBudget, LimitsDistinctThreadsRunningChunks) {
  ThreadGuard tg(4);
  for (int budget : {1, 2}) {
    IntraOpBudget b(budget);
    EXPECT_EQ(num_threads(), budget);
    std::mutex mu;
    std::set<std::thread::id> ids;
    std::vector<std::atomic<int>> hits(64);
    parallel_for(0, 64, 1, [&](int64_t lo, int64_t hi) {
      {
        std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      }
      for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
      // Long enough that idle pool workers would join if they could.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), static_cast<size_t>(budget));
    EXPECT_TRUE(ids.count(std::this_thread::get_id()));
  }
}

namespace {
/// A one-shot gate with a bounded wait, so a regression fails a test
/// instead of hanging it.
class Gate {
 public:
  void open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void wait(std::chrono::seconds limit) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_for(lock, limit, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Runs a parallel_for of `threads` chunks at `threads` threads in which
/// every chunk waits until all `threads` chunks have started: it returns
/// only once the caller and threads - 1 pool workers each hold one chunk.
void run_all_workers_region(int threads, const std::function<void()>& hold) {
  std::atomic<int> entered{0};
  parallel_for(0, threads, 1, [&](int64_t, int64_t) {
    entered.fetch_add(1);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (entered.load() < threads &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    hold();
  });
  EXPECT_EQ(entered.load(), threads);
}
}  // namespace

TEST(ParallelFor, CallerDoesNotWaitForUnstartedHelpers) {
  // More threads than any other test asks for, so the region below
  // occupies every pool worker.
  constexpr int kThreads = 16;
  ThreadGuard tg(kThreads);
  Gate release;
  std::atomic<bool> workers_blocked{false};
  std::thread blocker([&] {
    run_all_workers_region(kThreads, [&] {
      workers_blocked.store(true);
      release.wait(std::chrono::seconds(60));
    });
  });
  while (!workers_blocked.load()) std::this_thread::yield();

  // Every pool worker is parked, so the helper this region submits cannot
  // start; the caller must run every chunk and return anyway.
  constexpr int64_t kChunks = 8;
  std::vector<std::atomic<int>> hits(kChunks);
  std::vector<std::thread::id> ran_on(kChunks);
  std::thread::id caller_id;
  std::promise<void> returned_p;
  std::future<void> returned = returned_p.get_future();
  std::thread caller([&] {
    caller_id = std::this_thread::get_id();
    IntraOpBudget budget(2);
    parallel_for(0, kChunks, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t c = lo; c < hi; ++c) {
        hits[c].fetch_add(1);
        ran_on[c] = std::this_thread::get_id();
      }
    });
    returned_p.set_value();
  });
  const bool returned_while_blocked =
      returned.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  release.open();
  caller.join();
  blocker.join();
  EXPECT_TRUE(returned_while_blocked)
      << "parallel_for waited for a helper that had not started";

  // The stale helper has run by the time every worker holds a chunk of a
  // later region (the pool queue is FIFO); it must have claimed nothing.
  run_all_workers_region(kThreads, [] {});
  for (int64_t c = 0; c < kChunks; ++c) {
    EXPECT_EQ(hits[c].load(), 1) << "chunk " << c;
    EXPECT_EQ(ran_on[c], caller_id) << "chunk " << c;
  }
  std::atomic<int64_t> sum{0};
  parallel_for(0, 1000, 1, [&](int64_t b, int64_t e) {
    int64_t local = 0;
    for (int64_t i = b; i < e; ++i) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 1000 * 999 / 2);
}

// ---------------------------------------------------------------------------
// Kernel bitwise determinism: run each parallelized kernel at 1 and at 4
// threads on identical inputs; outputs must match to the bit.
// ---------------------------------------------------------------------------

template <typename Fn>
void expect_bitwise_1v4(const Fn& run_into) {
  set_num_threads(1);
  auto ref = run_into();
  for (int t : {2, 4}) {
    set_num_threads(t);
    auto got = run_into();
    set_num_threads(0);
    ASSERT_EQ(ref.size(), got.size());
    for (size_t b = 0; b < ref.size(); ++b) {
      EXPECT_TRUE(bitwise_equal(ref[b], got[b]))
          << "buffer " << b << " differs at " << t << " threads";
    }
  }
}

TEST(KernelDeterminism, GemmAllTransposeCombos) {
  const int64_t m = 67, k = 129, n = 45;  // non-multiples of every tile dim
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      auto a = random_vec(m * k, 11);
      auto b = random_vec(k * n, 12);
      expect_bitwise_1v4([&]() {
        std::vector<float> c(m * n, 0.5f);
        kernels::gemm(a.data(), b.data(), c.data(), m, k, n, ta, tb, 1.3f,
                      1.0f);
        return std::vector<std::vector<float>>{c};
      });
    }
  }
}

TEST(KernelDeterminism, GemmBatched) {
  const int64_t items = 5, m = 33, k = 65, n = 17;
  std::vector<std::vector<float>> as, bs;
  for (int64_t i = 0; i < items; ++i) {
    as.push_back(random_vec(m * k, 100 + i));
    bs.push_back(random_vec(k * n, 200 + i));
  }
  expect_bitwise_1v4([&]() {
    std::vector<std::vector<float>> cs(items, std::vector<float>(m * n));
    std::vector<const float*> ap, bp;
    std::vector<float*> cp;
    for (int64_t i = 0; i < items; ++i) {
      ap.push_back(as[i].data());
      bp.push_back(bs[i].data());
      cp.push_back(cs[i].data());
    }
    kernels::gemm_batched(ap, bp, cp, m, k, n);
    return cs;
  });
}

TEST(KernelDeterminism, LinearGroupBatched) {
  const int64_t m = 33, k = 24;
  std::vector<int64_t> dims = {8, 12, 16, 20};
  std::vector<std::vector<float>> ws;
  auto x = random_vec(m * k, 31);
  for (size_t g = 0; g < dims.size(); ++g) {
    ws.push_back(random_vec(k * dims[g], 300 + g));
  }
  expect_bitwise_1v4([&]() {
    std::vector<std::vector<float>> outs;
    std::vector<const float*> wp;
    std::vector<float*> op;
    for (size_t g = 0; g < dims.size(); ++g) {
      outs.emplace_back(m * dims[g]);
      wp.push_back(ws[g].data());
    }
    for (auto& o : outs) op.push_back(o.data());
    kernels::linear_group_batched(x.data(), m, k, wp, dims, op);
    return outs;
  });
}

void mha_determinism_case(bool flash) {
  kernels::AttentionDims d;
  d.batch = 3;
  d.heads = 4;
  d.q_len = 37;
  d.k_len = 41;
  d.head_dim = 8;
  auto q = random_vec(d.qkv_numel(true), 1);
  auto k = random_vec(d.qkv_numel(false), 2);
  auto v = random_vec(d.qkv_numel(false), 3);
  auto bias = random_vec(d.bias_numel(), 4);
  auto dout = random_vec(d.qkv_numel(true), 5);
  std::vector<float> mask(d.batch * d.k_len, 0.0f);

  expect_bitwise_1v4([&]() {
    std::vector<float> out(d.qkv_numel(true));
    std::vector<float> dq(q.size()), dk(k.size()), dv(v.size());
    std::vector<float> dbias(bias.size());
    kernels::AttentionContext ctx;
    if (flash) {
      kernels::mha_forward_flash(d, q.data(), k.data(), v.data(), bias.data(),
                                 mask.data(), out.data(), &ctx, 16);
      kernels::mha_backward_flash(d, q.data(), k.data(), v.data(), bias.data(),
                                  mask.data(), out.data(), dout.data(), ctx,
                                  dq.data(), dk.data(), dv.data(),
                                  dbias.data(), 16);
    } else {
      kernels::mha_forward_naive(d, q.data(), k.data(), v.data(), bias.data(),
                                 mask.data(), out.data(), &ctx);
      kernels::mha_backward_naive(d, q.data(), k.data(), v.data(), dout.data(),
                                  ctx, dq.data(), dk.data(), dv.data(),
                                  dbias.data());
    }
    return std::vector<std::vector<float>>{out, dq, dk, dv, dbias};
  });
}

TEST(KernelDeterminism, MhaNaiveForwardBackward) { mha_determinism_case(false); }
TEST(KernelDeterminism, MhaFlashForwardBackward) { mha_determinism_case(true); }

TEST(KernelDeterminism, LayerNormFusedForwardBackward) {
  const int64_t rows = 123, cols = 65;
  auto x = random_vec(rows * cols, 21);
  auto gamma = random_vec(cols, 22);
  auto beta = random_vec(cols, 23);
  auto dy = random_vec(rows * cols, 24);
  expect_bitwise_1v4([&]() {
    std::vector<float> y(rows * cols), dx(rows * cols);
    std::vector<float> dgamma(cols), dbeta(cols);
    kernels::LayerNormStats stats;
    kernels::layernorm_forward_fused(x.data(), gamma.data(), beta.data(),
                                     y.data(), rows, cols, 1e-5f, &stats, 4);
    kernels::layernorm_backward_fused(x.data(), gamma.data(), dy.data(), stats,
                                      dx.data(), dgamma.data(), dbeta.data(),
                                      rows, cols, 8);
    return std::vector<std::vector<float>>{y, dx, dgamma, dbeta};
  });
}

TEST(KernelDeterminism, SoftmaxForwardBackward) {
  const int64_t rows = 173, cols = 61;
  auto x = random_vec(rows * cols, 61);
  auto dy = random_vec(rows * cols, 62);
  expect_bitwise_1v4([&]() {
    std::vector<float> y(rows * cols), dx(rows * cols);
    kernels::softmax_forward(x.data(), y.data(), rows, cols);
    kernels::softmax_backward(y.data(), dy.data(), dx.data(), rows, cols);
    return std::vector<std::vector<float>>{y, dx};
  });
}

TEST(KernelDeterminism, ElementwiseGelu) {
  const int64_t n = (1 << 17) + 13;
  auto x = random_vec(n, 41);
  auto dy = random_vec(n, 42);
  expect_bitwise_1v4([&]() {
    std::vector<float> y(n), dx(n);
    kernels::gelu_forward(x.data(), y.data(), n);
    kernels::gelu_backward(x.data(), dy.data(), dx.data(), n);
    return std::vector<std::vector<float>>{y, dx};
  });
}

TEST(KernelDeterminism, FusedAdamSwaStep) {
  const int64_t tensors = 9;
  std::vector<std::vector<float>> base_p, base_g, base_m, base_v, base_s;
  std::vector<int64_t> sizes;
  for (int64_t i = 0; i < tensors; ++i) {
    int64_t n = 1000 + 317 * i;
    sizes.push_back(n);
    base_p.push_back(random_vec(n, 400 + i));
    base_g.push_back(random_vec(n, 500 + i));
    base_m.push_back(random_vec(n, 600 + i));
    base_v.push_back(std::vector<float>(n, 0.25f));
    base_s.push_back(random_vec(n, 700 + i));
  }
  kernels::AdamHyper h;
  h.weight_decay = 0.01f;
  expect_bitwise_1v4([&]() {
    auto p = base_p, g = base_g, m = base_m, v = base_v, s = base_s;
    std::vector<kernels::ParamChunk> chunks;
    for (int64_t i = 0; i < tensors; ++i) {
      chunks.push_back({p[i].data(), g[i].data(), m[i].data(), v[i].data(),
                        s[i].data(), sizes[i]});
    }
    kernels::fused_adam_swa_step(chunks, h, 3, 0.99f, 0.5f);
    std::vector<std::vector<float>> out;
    for (int64_t i = 0; i < tensors; ++i) {
      out.push_back(p[i]);
      out.push_back(m[i]);
      out.push_back(v[i]);
      out.push_back(s[i]);
    }
    return out;
  });
}

TEST(KernelDeterminism, GradNormBucketed) {
  std::vector<std::vector<float>> buckets;
  std::vector<const float*> ptrs;
  std::vector<int64_t> sizes;
  for (int i = 0; i < 7; ++i) {
    buckets.push_back(random_vec(2000 + 431 * i, 800 + i));
    sizes.push_back(static_cast<int64_t>(buckets.back().size()));
  }
  for (auto& b : buckets) ptrs.push_back(b.data());
  expect_bitwise_1v4([&]() {
    float norm = kernels::grad_norm_bucketed(ptrs, sizes);
    return std::vector<std::vector<float>>{{norm}};
  });
}

}  // namespace
}  // namespace sf
