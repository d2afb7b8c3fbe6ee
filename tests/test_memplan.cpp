// Whole-step capture + static memory planner (graph/mem_plan.h,
// graph/capture.h): allocator seam, lifetime packing, fuzzed plans with
// poison-checked replay, capture/replay differential vs eager across
// thread counts and SIMD tiers, the zero-steady-state-allocation claim,
// and the arena-backed serving path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/parallel.h"
#include "dap/sharded_stack.h"
#include "data/protein_sample.h"
#include "graph/capture.h"
#include "graph/mem_plan.h"
#include "model/alphafold.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "tensor/allocator.h"
#include "train/trainer.h"

namespace sf {
namespace {

using graph::ArenaAllocator;
using graph::BufferLife;
using graph::MemoryPlan;
using graph::MemoryPlanner;
using graph::StepPlanner;

// ---- Allocator seam --------------------------------------------------------

TEST(Allocator, TensorTrafficIsCountedAndMirrored) {
  const auto before = heap_alloc_stats();
  const double count_before =
      obs::Registry::global().counter("tensor.alloc.count").value();
  {
    Tensor t({64});
    Tensor u = t.clone();
  }
  const auto after = heap_alloc_stats();
  EXPECT_EQ(after.allocs - before.allocs, 2);
  EXPECT_EQ(after.frees - before.frees, 2);
  EXPECT_EQ(after.bytes - before.bytes, 2 * 64 * 4);
  EXPECT_EQ(after.live_bytes, before.live_bytes);
  EXPECT_EQ(
      obs::Registry::global().counter("tensor.alloc.count").value() -
          count_before,
      2.0);
}

TEST(Allocator, ScopeOverridesOnlyThisThread) {
  auto counting =
      std::make_shared<CountingAllocator>(heap_allocator());
  {
    AllocatorScope scope(counting);
    Tensor t({16});
    EXPECT_EQ(counting->stats().allocs, 1);
    EXPECT_EQ(counting->stats().live_bytes, 16 * 4);
  }
  // The buffer returns to the allocator that produced it even though the
  // scope is gone (the deleter pins the owner).
  EXPECT_EQ(counting->stats().frees, 1);
  EXPECT_EQ(counting->stats().live_bytes, 0);
  Tensor outside({16});  // back on the default heap
  EXPECT_EQ(counting->stats().allocs, 1);
}

TEST(Allocator, CountingPeakTracksHighWatermark) {
  auto counting =
      std::make_shared<CountingAllocator>(heap_allocator());
  AllocatorScope scope(counting);
  {
    Tensor a({100});
    Tensor b({50});
    EXPECT_EQ(counting->stats().peak_bytes, 150 * 4);
  }
  Tensor c({10});
  EXPECT_EQ(counting->stats().peak_bytes, 150 * 4);
  counting->reset_peak();
  EXPECT_EQ(counting->stats().peak_bytes, 10 * 4);
}

// ---- Planner unit tests ----------------------------------------------------

std::vector<BufferLife> make_lives(
    std::initializer_list<std::tuple<int64_t, int64_t, int64_t>> specs) {
  // (numel, def_tick, free_tick) with dense ids in order.
  std::vector<BufferLife> lives;
  int64_t id = 0;
  for (const auto& [numel, def, free] : specs) {
    BufferLife b;
    b.id = id++;
    b.numel = numel;
    b.def_tick = def;
    b.free_tick = free;
    lives.push_back(b);
  }
  return lives;
}

TEST(MemoryPlanner, DisjointLifetimesShareOneSlot) {
  // b0 dies before b1 is born: both fit in a single 64-byte-aligned slot.
  auto lives = make_lives({{16, 0, 1}, {16, 2, 3}});
  MemoryPlan plan = MemoryPlanner().plan(lives);
  EXPECT_EQ(plan.offsets[0], 0);
  EXPECT_EQ(plan.offsets[1], 0);
  EXPECT_EQ(plan.arena_bytes, 64);
  EXPECT_EQ(plan.eager_peak_bytes, 16 * 4);
  std::string err;
  EXPECT_TRUE(MemoryPlanner::validate(plan, lives, &err)) << err;
}

TEST(MemoryPlanner, OverlappingLifetimesStayApart) {
  auto lives = make_lives({{16, 0, 3}, {16, 1, 2}});
  MemoryPlan plan = MemoryPlanner().plan(lives);
  EXPECT_NE(plan.offsets[0], plan.offsets[1]);
  EXPECT_EQ(plan.arena_bytes, 128);
  EXPECT_EQ(plan.eager_peak_bytes, 2 * 16 * 4);
  std::string err;
  EXPECT_TRUE(MemoryPlanner::validate(plan, lives, &err)) << err;
}

TEST(MemoryPlanner, EscapingBufferStaysOnHeap) {
  auto lives = make_lives({{16, 0, 2}, {32, 1, -1}});
  MemoryPlan plan = MemoryPlanner().plan(lives);
  EXPECT_GE(plan.offsets[0], 0);
  EXPECT_EQ(plan.offsets[1], -1);
  EXPECT_EQ(plan.num_escaping(), 1);
  std::string err;
  EXPECT_TRUE(MemoryPlanner::validate(plan, lives, &err)) << err;
}

TEST(MemoryPlanner, ValidateCatchesCorruptPlans) {
  auto lives = make_lives({{16, 0, 3}, {16, 1, 2}});
  MemoryPlan plan = MemoryPlanner().plan(lives);
  std::string err;
  MemoryPlan bad = plan;
  bad.offsets[1] = bad.offsets[0];  // force a live-range overlap
  EXPECT_FALSE(MemoryPlanner::validate(bad, lives, &err));
  EXPECT_NE(err.find("overlap"), std::string::npos) << err;
  bad = plan;
  bad.offsets[0] = bad.arena_bytes;  // out of bounds
  EXPECT_FALSE(MemoryPlanner::validate(bad, lives, &err));
}

// ---- Fuzz: random op DAG lifetimes -> plan -> poisoned replay --------------

struct FuzzTrace {
  std::vector<BufferLife> lives;
  /// Replay script: tick-ordered (is_def, id) pairs.
  std::vector<std::pair<bool, int64_t>> script;
};

FuzzTrace random_trace(Rng& rng, int64_t max_events) {
  FuzzTrace t;
  std::vector<int64_t> live;  // ids currently alive
  int64_t tick = 0;
  while (tick < max_events) {
    const bool do_alloc = live.empty() || rng.uniform_int(3) != 0;
    if (do_alloc) {
      BufferLife b;
      b.id = static_cast<int64_t>(t.lives.size());
      b.numel = 1 + static_cast<int64_t>(rng.uniform_int(257));
      b.def_tick = tick++;
      t.lives.push_back(b);
      t.script.emplace_back(true, b.id);
      live.push_back(b.id);
    } else {
      const size_t pick =
          static_cast<size_t>(rng.uniform_int(static_cast<uint64_t>(live.size())));
      const int64_t id = live[pick];
      live.erase(live.begin() + static_cast<int64_t>(pick));
      t.lives[static_cast<size_t>(id)].free_tick = tick++;
      t.script.emplace_back(false, id);
    }
  }
  // Free the survivors too (no escaping buffers: ArenaAllocator replay
  // requires every arena buffer returned for a clean step).
  for (int64_t id : live) {
    t.lives[static_cast<size_t>(id)].free_tick = tick++;
    t.script.emplace_back(false, id);
  }
  return t;
}

TEST(MemoryPlannerFuzz, RandomTracesValidateAndReplayPoisonClean) {
  Rng rng(20260810);
  for (int iter = 0; iter < 60; ++iter) {
    FuzzTrace t = random_trace(rng, 120);
    MemoryPlan plan = MemoryPlanner().plan(t.lives);
    std::string err;
    ASSERT_TRUE(MemoryPlanner::validate(plan, t.lives, &err))
        << "iter " << iter << ": " << err;
    ASSERT_EQ(plan.num_escaping(), 0) << "iter " << iter;

    // Replay the exact trace through the arena with poison checks: any
    // offset aliasing that violates lifetimes trips the poison assert.
    ArenaAllocator arena(plan);
    arena.set_poison_checks(true);
    for (int step = 0; step < 2; ++step) {
      arena.begin_step();
      std::vector<float*> ptrs(t.lives.size(), nullptr);
      for (const auto& [is_def, id] : t.script) {
        const int64_t numel = t.lives[static_cast<size_t>(id)].numel;
        if (is_def) {
          ptrs[static_cast<size_t>(id)] = arena.allocate(numel);
          // Write real data over the slot, as a kernel would.
          std::memset(ptrs[static_cast<size_t>(id)], 0x42,
                      static_cast<size_t>(numel) * sizeof(float));
        } else {
          arena.deallocate(ptrs[static_cast<size_t>(id)], numel);
        }
      }
      ASSERT_TRUE(arena.end_step()) << "iter " << iter << " step " << step;
    }
    EXPECT_EQ(arena.divergences(), 0);
  }
}

TEST(ArenaAllocator, OffPlanRequestFallsBackToHeapAndCounts) {
  auto lives = make_lives({{16, 0, 1}, {16, 2, 3}});
  MemoryPlan plan = MemoryPlanner().plan(lives);
  ArenaAllocator arena(plan);
  arena.begin_step();
  float* a = arena.allocate(16);
  arena.deallocate(a, 16);
  float* odd = arena.allocate(999);  // size mismatch: diverges
  EXPECT_FALSE(arena.end_step());
  EXPECT_EQ(arena.divergences(), 1);
  EXPECT_GE(arena.heap_fallbacks(), 1);
  arena.deallocate(odd, 999);  // heap buffer: frees fine after the step

  // The next step starts fresh from the plan and can still be clean.
  arena.begin_step();
  float* b = arena.allocate(16);
  arena.deallocate(b, 16);
  float* c = arena.allocate(16);
  arena.deallocate(c, 16);
  EXPECT_TRUE(arena.end_step());
}

TEST(ArenaAllocator, AbortedStepIsNotADivergenceButItsLeakIs) {
  auto lives = make_lives({{16, 0, 1}, {16, 2, 3}});
  ArenaAllocator arena(MemoryPlanner().plan(lives));
  arena.begin_step();
  float* a = arena.allocate(16);
  arena.deallocate(a, 16);
  arena.abort_step();
  EXPECT_EQ(arena.divergences(), 0);

  // A buffer the aborted step never returned makes the next step diverge.
  arena.begin_step();
  float* leaked = arena.allocate(16);
  arena.abort_step();
  EXPECT_EQ(arena.divergences(), 0);
  arena.begin_step();
  float* b = arena.allocate(16);
  EXPECT_FALSE(arena.end_step());
  EXPECT_EQ(arena.divergences(), 1);
  arena.deallocate(b, 16);
  arena.deallocate(leaked, 16);
}

TEST(StepPlanner, ThrowingReplayIsNotCountedAsADivergence) {
  obs::Counter& counter =
      obs::Registry::global().counter("memplan.divergences");
  const double counter_before = counter.value();
  StepPlanner planner;
  bool fail = false;
  auto step = [&] {
    Tensor a({16});
    if (fail) throw std::runtime_error("injected");
    Tensor b({16});
  };
  planner.run(step);  // capture
  fail = true;
  EXPECT_THROW(planner.run(step), std::runtime_error);
  EXPECT_EQ(planner.stats().divergences, 0);
  fail = false;
  planner.run(step);
  const StepPlanner::Stats st = planner.stats();
  EXPECT_EQ(st.replays, 1);
  EXPECT_EQ(st.clean_replays, 1);
  EXPECT_EQ(st.divergences, 0);
  EXPECT_EQ(counter.value(), counter_before);
}

// ---- Trainer capture: differential + zero-allocation claim -----------------

model::ModelConfig tiny_config() {
  model::ModelConfig c;
  c.crop_len = 12;
  c.msa_rows = 3;
  c.c_m = 8;
  c.c_z = 8;
  c.c_s = 8;
  c.heads = 2;
  c.head_dim = 4;
  c.evoformer_blocks = 1;
  c.extra_msa_blocks = 0;
  c.template_pair_blocks = 0;
  c.use_extra_msa_stack = false;
  c.use_template_stack = false;
  c.opm_dim = 2;
  c.transition_factor = 2;
  c.structure_layers = 1;
  return c;
}

data::DatasetConfig tiny_data() {
  data::DatasetConfig c;
  c.num_samples = 8;
  c.crop_len = 12;
  c.msa_rows = 3;
  c.msa_work_cap = 60;
  c.seed = 99;
  return c;
}

std::vector<float> run_trainer(bool capture, int steps,
                               train::TrainConfig base = {}) {
  data::SyntheticProteinDataset ds(tiny_data());
  auto b0 = ds.prepare_batch(0);
  auto b1 = ds.prepare_batch(1);
  model::MiniAlphaFold net(tiny_config(), 11);
  train::TrainConfig tc = base;
  tc.min_recycles = 1;
  tc.max_recycles = 1;
  tc.capture_step = capture;
  train::Trainer trainer(net, tc);
  for (int s = 0; s < steps; ++s) {
    auto r = trainer.train_step(s % 2 == 0 ? b0 : b1);
    EXPECT_TRUE(std::isfinite(r.loss)) << "step " << s;
  }
  std::vector<float> flat;
  for (const auto& p : net.params().all()) {
    const float* d = p.value().data();
    flat.insert(flat.end(), d, d + p.numel());
  }
  return flat;
}

TEST(TrainerCapture, PlannedStepsBitwiseMatchEager) {
  const auto eager = run_trainer(false, 6);
  const auto planned = run_trainer(true, 6);
  ASSERT_EQ(eager.size(), planned.size());
  EXPECT_EQ(std::memcmp(eager.data(), planned.data(),
                        eager.size() * sizeof(float)),
            0);
}

TEST(TrainerCapture, BitwiseAcrossThreadsAndSimdTiers) {
  struct ThreadGuard {
    ~ThreadGuard() {
      set_num_threads(0);
      simd::clear_tier();
    }
  } guard;
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::best_available() != simd::Tier::kScalar) {
    tiers.push_back(simd::best_available());
  }
  for (simd::Tier tier : tiers) {
    ASSERT_TRUE(simd::set_tier(tier));
    for (int threads : {1, 4}) {
      set_num_threads(threads);
      const auto eager = run_trainer(false, 4);
      const auto planned = run_trainer(true, 4);
      ASSERT_EQ(eager.size(), planned.size());
      EXPECT_EQ(std::memcmp(eager.data(), planned.data(),
                            eager.size() * sizeof(float)),
                0)
          << "tier " << simd::tier_name(tier) << " threads " << threads;
    }
  }
}

TEST(TrainerCapture, SteadyStateStepsMakeZeroHeapAllocations) {
  data::SyntheticProteinDataset ds(tiny_data());
  auto batch = ds.prepare_batch(0);
  model::MiniAlphaFold net(tiny_config(), 11);
  train::TrainConfig tc;
  tc.min_recycles = 1;
  tc.max_recycles = 1;
  tc.capture_step = true;
  train::Trainer trainer(net, tc);

  trainer.train_step(batch);  // warm-up (eager; persistent state lands)
  trainer.train_step(batch);  // capture
  trainer.train_step(batch);  // first replay

  // Steady state: replayed steps allocate nothing from the heap.
  const auto before = heap_alloc_stats();
  for (int s = 0; s < 3; ++s) trainer.train_step(batch);
  const auto after = heap_alloc_stats();
  EXPECT_EQ(after.allocs - before.allocs, 0)
      << "steady-state captured steps must not touch the heap";

  const auto stats = trainer.capture_stats();
  EXPECT_EQ(stats.captures, 1);
  EXPECT_EQ(stats.replays, 4);
  EXPECT_EQ(stats.clean_replays, 4);
  EXPECT_EQ(stats.divergences, 0);
  EXPECT_EQ(stats.escaping_buffers, 0)
      << "post-warm-up steps must not leak buffers past the step";
  EXPECT_GT(stats.planned_buffers, 0);
  EXPECT_GT(stats.arena_bytes, 0);
  // Aliasing must not cost memory: the packed arena stays within the
  // (aligned) envelope of the eager live peak.
  EXPECT_LE(stats.arena_bytes,
            (stats.eager_peak_bytes / 64 + stats.planned_buffers) * 64);
  EXPECT_EQ(trainer.num_captured_shapes(), 1);
}

TEST(TrainerCapture, NanSkipDivergesGracefullyAndRecovers) {
  data::SyntheticProteinDataset ds(tiny_data());
  auto batch = ds.prepare_batch(0);
  auto poisoned = ds.prepare_batch(1);
  for (int64_t i = 0; i < poisoned.msa_feat.numel(); ++i) {
    poisoned.msa_feat.data()[i] = std::numeric_limits<float>::quiet_NaN();
  }
  model::MiniAlphaFold net(tiny_config(), 21);
  train::TrainConfig tc;
  tc.min_recycles = 1;
  tc.max_recycles = 1;
  tc.capture_step = true;
  train::Trainer trainer(net, tc);

  trainer.train_step(batch);  // warm-up
  trainer.train_step(batch);  // capture
  std::vector<Tensor> before;
  for (const auto& p : net.params().all()) before.push_back(p.value().clone());

  // A NaN-skipped replay takes a different code path (no optimizer
  // update). The replay machinery must absorb it either way: when the
  // skipped path's allocation trace still matches the plan (the fused
  // optimizer allocates no tensors) the replay is clean; when it does not,
  // the arena falls back to the heap and counts a divergence. In neither
  // case may the step fail or the weights move.
  auto r = trainer.train_step(poisoned);
  EXPECT_TRUE(r.skipped);
  auto all = net.params().all();
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].value().max_abs_diff(before[i]), 0.0f) << "param " << i;
  }

  // The plan survives: the next clean batch replays cleanly again.
  const int64_t clean_before = trainer.capture_stats().clean_replays;
  auto r2 = trainer.train_step(batch);
  EXPECT_FALSE(r2.skipped);
  EXPECT_TRUE(std::isfinite(r2.loss));
  EXPECT_GT(trainer.capture_stats().clean_replays, clean_before);
}

TEST(TrainerCapture, ZeroGradKeepsGradStorageStable) {
  autograd::Var p(Tensor::ones({8}), true);
  p.node()->accumulate_grad(Tensor::ones({8}));
  const float* before = p.node()->grad.data();
  p.zero_grad();
  ASSERT_TRUE(p.node()->grad.defined());
  EXPECT_EQ(p.node()->grad.data(), before)
      << "zero_grad must fill in place, not reallocate";
  for (int64_t i = 0; i < 8; ++i) EXPECT_EQ(p.node()->grad.at(i), 0.0f);
  // A never-allocated grad stays lazily undefined.
  autograd::Var q(Tensor::ones({4}), true);
  q.zero_grad();
  EXPECT_FALSE(q.node()->grad.defined());
}

TEST(TrainerCapture, ReplaySpansCarryPlannedTagAndKernelCensusMatches) {
  data::SyntheticProteinDataset ds(tiny_data());
  auto batch = ds.prepare_batch(0);
  model::MiniAlphaFold net(tiny_config(), 11);
  train::TrainConfig tc;
  tc.min_recycles = 1;
  tc.max_recycles = 1;
  tc.capture_step = true;
  train::Trainer trainer(net, tc);
  trainer.train_step(batch);  // warm-up
  trainer.train_step(batch);  // capture

  auto kernel_spans = [] {
    int64_t n = 0;
    for (const auto& ev : obs::snapshot()) {
      n += std::strcmp(ev.category, "kernel") == 0 ? 1 : 0;
    }
    return n;
  };

  obs::set_trace_enabled(true);
  obs::reset();
  trainer.train_step(batch);  // replay
  const int64_t planned_kernels = kernel_spans();
  const std::string json = obs::to_chrome_json();
  obs::reset();
  obs::set_trace_enabled(false);
  EXPECT_NE(json.find("step.planned"), std::string::npos);
  EXPECT_NE(json.find("\"planned\":1"), std::string::npos);

  // The replayed step runs the same kernels as an eager step, so the
  // Table 1 census substrate is unaffected by planning.
  model::MiniAlphaFold net2(tiny_config(), 11);
  train::TrainConfig tc2 = tc;
  tc2.capture_step = false;
  train::Trainer eager(net2, tc2);
  eager.train_step(batch);
  obs::set_trace_enabled(true);
  obs::reset();
  eager.train_step(batch);
  const int64_t eager_kernels = kernel_spans();
  obs::reset();
  obs::set_trace_enabled(false);
  EXPECT_EQ(planned_kernels, eager_kernels);
}

// ---- Serving: per-worker arenas --------------------------------------------

TEST(ServingCapture, ArenaBackedForwardsBitwiseMatchEager) {
  data::DatasetConfig dc;
  dc.num_samples = 10;
  dc.crop_len = 12;
  dc.msa_rows = 3;
  dc.msa_work_cap = 60;
  dc.len_log_mean = 2.2;
  dc.len_log_sigma = 0.5;
  dc.min_seq_len = 6;
  dc.max_seq_len = 12;
  dc.seed = 77;

  serve::ServeConfig sc;
  sc.scheduler.bucket_lens = {12};
  sc.scheduler.max_batch = 2;
  sc.feature_workers = 1;
  sc.model_workers = 1;
  sc.num_recycles = 1;

  auto run = [&](bool planned) {
    serve::ServeConfig cfg = sc;
    cfg.planned_arenas = planned;
    serve::Service svc(cfg, dc, tiny_config());
    for (int round = 0; round < 4; ++round) {
      for (int64_t i = 0; i < 3; ++i) svc.submit(i);
    }
    auto responses = svc.wait_all();
    std::map<int64_t, std::vector<float>> by_sample;
    for (const auto& r : responses) {
      EXPECT_TRUE(r.ok);
      const float* d = r.positions.data();
      by_sample[r.sample_index] =
          std::vector<float>(d, d + r.positions.numel());
    }
    auto stats = svc.stats();
    if (planned) {
      EXPECT_GE(stats.plan_captures, 1);
      EXPECT_GE(stats.plan_clean_replays, 1);
      EXPECT_GT(stats.plan_arena_bytes, 0);
    } else {
      EXPECT_EQ(stats.plan_captures, 0);
    }
    return by_sample;
  };

  auto planned = run(true);
  auto eager = run(false);
  ASSERT_EQ(planned.size(), eager.size());
  for (const auto& [sample, pos] : eager) {
    ASSERT_TRUE(planned.count(sample));
    ASSERT_EQ(planned[sample].size(), pos.size());
    EXPECT_EQ(std::memcmp(planned[sample].data(), pos.data(),
                          pos.size() * sizeof(float)),
              0)
        << "sample " << sample;
  }
}

// ---- DAP real leg under whole-step capture ---------------------------------

TEST(TrainerCapture, DapShardedStepsReplayWithZeroAllocationsPerRank) {
  // The sharded Evoformer runs one StepPlanner per rank (plus the
  // trainer's planner on the step thread), so a captured DAP step makes
  // zero steady-state tensor heap allocations on *every* thread.
  model::ModelConfig mc = tiny_config();
  mc.crop_len = 8;   // divisible by dap_world
  mc.msa_rows = 4;   // divisible by the virtual-shard count
  data::DatasetConfig dc = tiny_data();
  dc.crop_len = 8;
  dc.msa_rows = 4;
  data::SyntheticProteinDataset ds(dc);
  auto batch = ds.prepare_batch(0);

  model::MiniAlphaFold net(mc, 11);
  train::TrainConfig tc;
  tc.min_recycles = 1;
  tc.max_recycles = 1;
  tc.capture_step = true;
  tc.dap_world = 2;
  train::Trainer trainer(net, tc);

  trainer.train_step(batch);  // trainer warm-up; rank planners capture
  trainer.train_step(batch);  // trainer capture; rank replays begin
  trainer.train_step(batch);  // full replay everywhere

  const auto before = heap_alloc_stats();
  for (int s = 0; s < 3; ++s) {
    auto r = trainer.train_step(batch);
    EXPECT_TRUE(std::isfinite(r.loss)) << "step " << s;
  }
  const auto after = heap_alloc_stats();
  EXPECT_EQ(after.allocs - before.allocs, 0)
      << "steady-state sharded steps must not touch the heap on any rank";

  const auto cap = trainer.capture_stats();
  EXPECT_EQ(cap.captures, 1);
  EXPECT_EQ(cap.divergences, 0);

  ASSERT_NE(trainer.dap_executor(), nullptr);
  const auto est = trainer.dap_executor()->stats();
  EXPECT_EQ(est.capture.captures, 2);  // one per rank
  EXPECT_EQ(est.capture.divergences, 0)
      << "rank replays must follow their captured allocation trace";
  EXPECT_EQ(est.capture.escaping_buffers, 0)
      << "nothing rank-allocated may outlive the rank's step leg";
  EXPECT_GT(est.capture.replays, 0);
  EXPECT_EQ(est.capture.replays, est.capture.clean_replays);
}

TEST(TrainerCapture, DapCapturedStepsBitwiseMatchUncapturedEager) {
  model::ModelConfig mc = tiny_config();
  mc.crop_len = 8;
  mc.msa_rows = 4;
  data::DatasetConfig dc = tiny_data();
  dc.crop_len = 8;
  dc.msa_rows = 4;
  data::SyntheticProteinDataset ds(dc);
  auto b0 = ds.prepare_batch(0);
  auto b1 = ds.prepare_batch(1);

  auto train = [&](bool capture, int dap_world) {
    model::MiniAlphaFold net(mc, 11);
    train::TrainConfig tc;
    tc.min_recycles = 1;
    tc.max_recycles = 1;
    tc.capture_step = capture;
    tc.dap_world = dap_world;
    train::Trainer trainer(net, tc);
    for (int s = 0; s < 5; ++s) trainer.train_step(s % 2 == 0 ? b0 : b1);
    std::vector<float> flat;
    for (const auto& p : net.params().all()) {
      const float* d = p.value().data();
      flat.insert(flat.end(), d, d + p.numel());
    }
    return flat;
  };
  const auto eager = train(false, 0);
  const auto dap_captured = train(true, 2);
  ASSERT_EQ(eager.size(), dap_captured.size());
  EXPECT_EQ(std::memcmp(eager.data(), dap_captured.data(),
                        eager.size() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace sf
