// Randomized property tests ("fuzzing" at unit scale):
//   - the prefetch loaders must deliver exactly-once under random delay
//     schedules and worker counts;
//   - attention kernels must stay finite under adversarial inputs;
//   - gradient-bucket assembly must place every parameter exactly once
//     and round-trip gradients bit-exactly for random shape mixes.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dap/sharded_stack.h"
#include "data/loader.h"
#include "kernels/attention.h"
#include "kernels/layernorm.h"
#include "train/bucket_store.h"

namespace sf {
namespace {

// ---- loader schedule fuzz ------------------------------------------------

TEST(LoaderFuzz, ExactlyOnceUnderRandomSchedules) {
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    const int64_t n = 20 + rng.uniform_int(30);
    std::vector<int> delays(n);
    for (auto& d : delays) {
      d = rng.bernoulli(0.15) ? static_cast<int>(rng.uniform_int(25)) : 0;
    }
    data::LoaderConfig lc;
    lc.num_workers = 1 + static_cast<int>(rng.uniform_int(4));
    lc.max_in_flight = lc.num_workers + static_cast<int>(rng.uniform_int(6));
    lc.policy = rng.bernoulli(0.5) ? data::YieldPolicy::kInOrder
                                   : data::YieldPolicy::kReadyFirst;
    data::PrefetchLoader loader(
        [&delays](int64_t i) {
          if (delays[i] > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(delays[i]));
          }
          data::Batch b;
          b.index = i;
          return b;
        },
        n, lc);
    std::set<int64_t> got;
    while (loader.has_next()) {
      auto b = loader.next();
      ASSERT_TRUE(got.insert(b.index).second)
          << "duplicate " << b.index << " trial " << trial;
    }
    ASSERT_EQ(got.size(), static_cast<size_t>(n)) << "trial " << trial;
    if (lc.policy == data::YieldPolicy::kInOrder) {
      const auto order = loader.stats_snapshot().yield_order;
      ASSERT_TRUE(std::is_sorted(order.begin(), order.end()));
    }
  }
}

// ---- kernel robustness fuzz -------------------------------------------

TEST(AttentionFuzz, FiniteUnderExtremeInputs) {
  Rng rng(5);
  kernels::AttentionDims d{2, 2, 6, 6, 4};
  for (int trial = 0; trial < 10; ++trial) {
    float scale_mag = static_cast<float>(std::pow(10.0, rng.uniform(-3, 3)));
    std::vector<float> q(d.qkv_numel(true)), k(d.qkv_numel(false)),
        v(d.qkv_numel(false)), bias(d.bias_numel()), out(d.qkv_numel(true));
    fill_normal(rng, q.data(), q.size(), 0.0f, scale_mag);
    fill_normal(rng, k.data(), k.size(), 0.0f, scale_mag);
    fill_normal(rng, v.data(), v.size(), 0.0f, 1.0f);
    fill_normal(rng, bias.data(), bias.size(), 0.0f, scale_mag);
    kernels::mha_forward_flash(d, q.data(), k.data(), v.data(), bias.data(),
                               nullptr, out.data(), nullptr);
    for (float val : out) {
      ASSERT_TRUE(std::isfinite(val)) << "magnitude " << scale_mag;
    }
  }
}

TEST(AttentionFuzz, FullyMaskedBatchYieldsFiniteZeros) {
  // Every key masked: softmax over -1e9s must not NaN; flash path returns
  // a well-defined (uniform) average, matching the naive kernel.
  kernels::AttentionDims d{1, 1, 2, 3, 2};
  Rng rng(6);
  std::vector<float> q(d.qkv_numel(true)), k(d.qkv_numel(false)),
      v(d.qkv_numel(false));
  fill_normal(rng, q.data(), q.size(), 0.0f, 1.0f);
  fill_normal(rng, k.data(), k.size(), 0.0f, 1.0f);
  fill_normal(rng, v.data(), v.size(), 0.0f, 1.0f);
  std::vector<float> mask(d.batch * d.k_len, -1e9f);
  std::vector<float> out_flash(d.qkv_numel(true)), out_naive(d.qkv_numel(true));
  kernels::mha_forward_flash(d, q.data(), k.data(), v.data(), nullptr,
                             mask.data(), out_flash.data(), nullptr);
  kernels::mha_forward_naive(d, q.data(), k.data(), v.data(), nullptr,
                             mask.data(), out_naive.data(), nullptr);
  for (size_t i = 0; i < out_flash.size(); ++i) {
    ASSERT_TRUE(std::isfinite(out_flash[i]));
    EXPECT_NEAR(out_flash[i], out_naive[i], 1e-4f);
  }
}

TEST(LayerNormFuzz, FiniteAcrossMagnitudes) {
  Rng rng(8);
  for (int trial = 0; trial < 12; ++trial) {
    const int64_t rows = 4, cols = 16;
    float mag = static_cast<float>(std::pow(10.0, rng.uniform(-4, 4)));
    std::vector<float> x(rows * cols), gamma(cols, 1.0f), beta(cols, 0.0f),
        y(rows * cols);
    fill_normal(rng, x.data(), x.size(), 0.0f, mag);
    kernels::layernorm_forward_fused(x.data(), gamma.data(), beta.data(),
                                     y.data(), rows, cols, 1e-5f, nullptr);
    for (float val : y) ASSERT_TRUE(std::isfinite(val)) << "mag " << mag;
  }
}

// ---- gradient-bucket assembly fuzz -----------------------------------

// Random parameter lists (counts, shapes, capacities) against the
// BucketStore invariants: every parameter lands in exactly one bucket
// with contiguous offsets, the capacity is respected except for
// single-oversized-tensor buckets, readiness in any order completes each
// bucket exactly once, and pack -> unpack(1.0) round-trips gradients
// bit-exactly.
TEST(BucketStoreFuzz, RandomShapesAssembleAndRoundTrip) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    const int num_params = 1 + static_cast<int>(rng.uniform_int(24));
    const int64_t capacity_bytes = 4 + static_cast<int64_t>(
        rng.uniform_int(4096));
    std::vector<autograd::Var> params;
    for (int i = 0; i < num_params; ++i) {
      const int64_t n = 1 + static_cast<int64_t>(rng.uniform_int(600));
      Tensor t = Tensor::zeros({n});
      fill_normal(rng, t.data(), n, 0.0f, 1.0f);
      params.emplace_back(std::move(t), /*requires_grad=*/true);
    }
    train::BucketStore store(params, capacity_bytes);
    const int64_t capacity_elems =
        std::max<int64_t>(1, capacity_bytes / sizeof(float));

    // Every parameter exactly once; offsets contiguous within buckets;
    // capacity respected unless the bucket is one oversized tensor.
    std::vector<int> seen(num_params, 0);
    for (int b = 0; b < store.num_buckets(); ++b) {
      int64_t offset = 0;
      for (const train::BucketSlice& s : store.bucket(b)) {
        ASSERT_LT(s.param_index, params.size());
        ++seen[s.param_index];
        EXPECT_EQ(store.bucket_of(s.param_index), b);
        EXPECT_EQ(s.offset, offset);
        EXPECT_EQ(s.numel, params[s.param_index].numel());
        offset += s.numel;
      }
      EXPECT_EQ(offset, store.bucket_numel(b));
      if (store.bucket_numel(b) > capacity_elems) {
        EXPECT_EQ(store.bucket(b).size(), 1u)
            << "over-capacity bucket must be a single oversized tensor";
      }
    }
    for (int i = 0; i < num_params; ++i) {
      EXPECT_EQ(seen[i], 1) << "param " << i;
    }

    // Random grads (some deliberately left undefined -> packed as zeros).
    std::vector<std::vector<float>> want(num_params);
    for (int i = 0; i < num_params; ++i) {
      const int64_t n = params[i].numel();
      want[i].assign(n, 0.0f);
      if (rng.uniform_int(5) != 0) {
        fill_normal(rng, want[i].data(), n, 0.0f, 3.0f);
        params[i].node()->grad = Tensor::zeros({n});
        std::memcpy(params[i].node()->grad.data(), want[i].data(),
                    sizeof(float) * n);
      }
    }

    // Readiness in a random order completes each bucket exactly once.
    store.reset_pending();
    std::vector<size_t> order(num_params);
    for (int i = 0; i < num_params; ++i) order[i] = i;
    for (int i = num_params - 1; i > 0; --i) {
      std::swap(order[i], order[rng.uniform_int(i + 1)]);
    }
    std::vector<int> completions(store.num_buckets(), 0);
    for (size_t pi : order) {
      const int b = store.on_grad_ready(pi);
      if (b >= 0) ++completions[b];
    }
    for (int b = 0; b < store.num_buckets(); ++b) {
      EXPECT_EQ(completions[b], 1) << "bucket " << b;
    }

    // pack -> clobber -> unpack(1.0) restores every gradient bit-exactly.
    for (int b = 0; b < store.num_buckets(); ++b) store.pack(b);
    for (int i = 0; i < num_params; ++i) {
      auto node = params[i].node();
      if (node->grad.defined()) {
        std::memset(node->grad.data(), 0xAB,
                    sizeof(float) * node->grad.numel());
      }
    }
    for (int b = 0; b < store.num_buckets(); ++b) store.unpack(b, 1.0f);
    for (int i = 0; i < num_params; ++i) {
      const Tensor& g = params[i].node()->grad;
      ASSERT_TRUE(g.defined());
      ASSERT_EQ(g.numel(), params[i].numel());
      EXPECT_EQ(std::memcmp(g.data(), want[i].data(),
                            sizeof(float) * g.numel()),
                0)
          << "param " << i << " grad not bit-exact after round trip";
    }
  }
}

TEST(BucketStoreFuzz, ReBucketingIsDeterministicAcrossWorldSizes) {
  // The elastic re-shard invariant: the bucket layout is a pure function
  // of (parameter shape list, capacity). Random shape lists, rebuilt into
  // stores any number of times — simulating every rank of any world size,
  // and the rebuilds a shrink -> grow performs — must produce identical
  // layouts, so resized trainers re-bucket without negotiation.
  Rng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    const int num_params = 1 + static_cast<int>(rng.uniform_int(32));
    const int64_t capacity_bytes =
        4 + static_cast<int64_t>(rng.uniform_int(8192));
    std::vector<int64_t> shapes(num_params);
    for (int i = 0; i < num_params; ++i) {
      shapes[i] = 1 + static_cast<int64_t>(rng.uniform_int(800));
    }
    auto make_store = [&] {
      // Fresh tensors each time: only the shapes may matter.
      std::vector<autograd::Var> params;
      for (int i = 0; i < num_params; ++i) {
        Tensor t = Tensor::zeros({shapes[i]});
        fill_normal(rng, t.data(), shapes[i], 0.0f, 1.0f);
        params.emplace_back(std::move(t), /*requires_grad=*/true);
      }
      return train::BucketStore(std::move(params), capacity_bytes);
    };

    // "world sizes" 2, 4, then a shrink -> grow rebuild: 7 independent
    // constructions in total.
    train::BucketStore ref = make_store();
    for (int rebuild = 0; rebuild < 6; ++rebuild) {
      train::BucketStore other = make_store();
      ASSERT_EQ(other.num_buckets(), ref.num_buckets())
          << "trial " << trial << " rebuild " << rebuild;
      for (int b = 0; b < ref.num_buckets(); ++b) {
        const auto& ra = ref.bucket(b);
        const auto& rb = other.bucket(b);
        ASSERT_EQ(rb.size(), ra.size());
        EXPECT_EQ(other.bucket_numel(b), ref.bucket_numel(b));
        for (size_t j = 0; j < ra.size(); ++j) {
          EXPECT_EQ(rb[j].param_index, ra[j].param_index);
          EXPECT_EQ(rb[j].offset, ra[j].offset);
          EXPECT_EQ(rb[j].numel, ra[j].numel);
        }
      }
      for (int i = 0; i < num_params; ++i) {
        EXPECT_EQ(other.bucket_of(i), ref.bucket_of(i));
      }
    }
  }
}

// ---- DAP chunked transpose round-trip fuzz ----------------------------

namespace {

void run_ranks(int world, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  for (int r = 0; r < world; ++r) threads.emplace_back(fn, r);
  for (auto& t : threads) t.join();
}

/// Fill with values exactly representable in float so any misplacement,
/// duplication, or dropped element changes bits.
void fill_unique(Tensor& t, int64_t salt) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(salt * 100000 + i);
  }
}

/// Rows [begin, begin + count) of `full` along its leading axis.
Tensor leading_rows(const Tensor& full, int64_t begin, int64_t count) {
  Shape shape = full.shape();
  const int64_t row = full.numel() / shape[0];
  shape[0] = count;
  Tensor out(shape);
  std::memcpy(out.data(), full.data() + begin * row,
              count * row * sizeof(float));
  return out;
}

}  // namespace

TEST(DapShardFuzz, AsyncTransposerChunksCoverExactlyOnceAndRoundTrip) {
  Rng rng(2718);
  for (int iter = 0; iter < 20; ++iter) {
    const int world = 1 + static_cast<int>(rng.uniform_int(4));
    const int64_t la = 1 + static_cast<int64_t>(rng.uniform_int(3));
    const int64_t lb = 1 + static_cast<int64_t>(rng.uniform_int(3));
    const int64_t c = 1 + static_cast<int64_t>(rng.uniform_int(4));
    const int64_t a = la * world, b = lb * world;
    const int64_t nchunks = 1 + static_cast<int64_t>(rng.uniform_int(4));
    Tensor full({a, b, c});
    fill_unique(full, iter);

    dap::Communicator comm(world);
    std::vector<std::vector<Tensor>> chunks(world);
    std::vector<Tensor> round_trip(world);
    run_ranks(world, [&](int rank) {
      Tensor shard = leading_rows(full, rank * la, la);
      dap::AsyncTransposer tx(comm, rank, a, b, c, nchunks, 7000);
      tx.launch(shard);
      for (int64_t t = 0; t < tx.num_chunks(); ++t) {
        Tensor got = tx.wait_chunk(t);
        tx.launch_back(t, got);  // identity compute: pure round trip
        chunks[rank].push_back(std::move(got));
      }
      Tensor backT(shard.shape());
      tx.collect_back(backT);
      round_trip[rank] = std::move(backT);
    });

    for (int rank = 0; rank < world; ++rank) {
      const std::string at = "iter " + std::to_string(iter) + " world " +
                             std::to_string(world) + " rank " +
                             std::to_string(rank);
      // Every one of this rank's B-columns arrives in exactly one chunk,
      // holding the full A axis bit-exactly.
      std::vector<int> seen(lb, 0);
      int64_t col_cursor = 0;
      for (const auto& chunk : chunks[rank]) {
        const int64_t cb = chunk.shape()[0];
        for (int64_t jj = 0; jj < cb; ++jj) {
          const int64_t gcol = rank * lb + col_cursor + jj;
          ++seen[col_cursor + jj];
          for (int64_t aa = 0; aa < a; ++aa) {
            ASSERT_EQ(std::memcmp(chunk.data() + (jj * a + aa) * c,
                                  full.data() + (aa * b + gcol) * c,
                                  c * sizeof(float)),
                      0)
                << at << " col " << gcol << " row " << aa;
          }
        }
        col_cursor += cb;
      }
      EXPECT_EQ(col_cursor, lb) << at;
      for (int64_t j = 0; j < lb; ++j) {
        EXPECT_EQ(seen[j], 1) << at << ": column " << j
                              << " not placed exactly once";
      }
      // Reverse exchange restores the original A-shard bit for bit.
      Tensor expect_shard = leading_rows(full, rank * la, la);
      EXPECT_EQ(std::memcmp(round_trip[rank].data(), expect_shard.data(),
                            expect_shard.numel() * sizeof(float)),
                0)
          << at;
    }
  }
}

}  // namespace
}  // namespace sf
