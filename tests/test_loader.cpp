// Tests for the data-pipeline loaders: PyTorch-style in-order vs
// ScaleFold's non-blocking ready-first queue (§3.2 / Fig. 5).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include "common/fault.h"
#include "common/timer.h"
#include "data/loader.h"
#include "obs/metrics.h"

namespace sf::data {
namespace {

// Batch factory with controllable per-index delays.
PrefetchLoader::BatchFn delayed_batches(std::vector<int> delays_ms) {
  return [delays = std::move(delays_ms)](int64_t i) {
    if (i < static_cast<int64_t>(delays.size()) && delays[i] > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delays[i]));
    }
    Batch b;
    b.index = i;
    b.prep_seconds = delays.size() > static_cast<size_t>(i)
                         ? delays[i] * 1e-3
                         : 0.0;
    return b;
  };
}

// The reordering the loader's own window bounds, however the host schedules
// its workers: batch i is claimed only while fewer than `in_flight` claimed
// batches are unyielded, so at least i - in_flight + 1 batches yield before
// it. How late a batch yields has no such bound: a descheduled worker turns
// a 0-delay batch into a slow one, and ready-first lets later batches
// overtake it. The late side the loader does control is that it never
// passes over a batch that is ready (LoaderStats::ready_overtakes == 0).
void expect_none_early_beyond_window(const std::vector<int64_t>& order,
                                     int in_flight) {
  for (size_t pos = 0; pos < order.size(); ++pos) {
    EXPECT_LT(order[pos] - static_cast<int64_t>(pos), in_flight)
        << "index " << order[pos] << " at position " << pos;
  }
}

LoaderConfig config(YieldPolicy policy, int workers = 2, int in_flight = 4) {
  LoaderConfig c;
  c.policy = policy;
  c.num_workers = workers;
  c.max_in_flight = in_flight;
  return c;
}

TEST(Loader, DeliversExactlyOnceInOrderPolicy) {
  const int64_t n = 40;
  PrefetchLoader loader(delayed_batches({}), n,
                        config(YieldPolicy::kInOrder, 4, 8));
  std::vector<int64_t> got;
  while (loader.has_next()) got.push_back(loader.next().index);
  ASSERT_EQ(got.size(), static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) EXPECT_EQ(got[i], i);
}

TEST(Loader, DeliversExactlyOnceReadyFirstPolicy) {
  const int64_t n = 60;
  // Random-ish delays to force reordering.
  std::vector<int> delays(n);
  for (int64_t i = 0; i < n; ++i) delays[i] = (i * 7) % 4;
  PrefetchLoader loader(delayed_batches(delays), n,
                        config(YieldPolicy::kReadyFirst, 4, 8));
  std::set<int64_t> got;
  while (loader.has_next()) {
    auto b = loader.next();
    EXPECT_TRUE(got.insert(b.index).second) << "duplicate " << b.index;
  }
  EXPECT_EQ(got.size(), static_cast<size_t>(n));
  EXPECT_EQ(*got.begin(), 0);
  EXPECT_EQ(*got.rbegin(), n - 1);
}

TEST(Loader, ReadyFirstReorderingBoundedByWindow) {
  const int64_t n = 50;
  const int in_flight = 6;
  std::vector<int> delays(n, 0);
  delays[10] = 60;  // slow batch
  PrefetchLoader loader(delayed_batches(delays), n,
                        config(YieldPolicy::kReadyFirst, 3, in_flight));
  std::vector<int64_t> order;
  while (loader.has_next()) order.push_back(loader.next().index);
  // Every index exactly once.
  std::set<int64_t> seen(order.begin(), order.end());
  EXPECT_EQ(order.size(), static_cast<size_t>(n));
  EXPECT_EQ(seen.size(), static_cast<size_t>(n));
  // The window the loader controls: at no instant more than in_flight
  // indices claimed and not yet yielded.
  const LoaderStats stats = loader.stats_snapshot();
  EXPECT_GE(stats.max_in_flight_seen, 1);
  EXPECT_LE(stats.max_in_flight_seen, in_flight);
  expect_none_early_beyond_window(order, in_flight);
  EXPECT_EQ(stats.ready_overtakes, 0);
  // The slow batch still arrives, late.
  auto it = std::find(order.begin(), order.end(), 10);
  ASSERT_NE(it, order.end());
  EXPECT_GE(it - order.begin(), 10);
}

TEST(Loader, SlowBatchBlocksInOrderButNotReadyFirst) {
  // The Fig. 5 scenario: batch 'b' is slow; 'c' is ready. In-order makes
  // the consumer wait for 'b'; ready-first yields 'c' immediately.
  auto run = [&](YieldPolicy policy) {
    std::vector<int> delays{0, 120, 0, 0, 0, 0};
    PrefetchLoader loader(delayed_batches(delays), 6, config(policy, 3, 6));
    // Consume batch 0 (fast).
    loader.next();
    // Now ask for the next batch while batch 1 is still cooking.
    Timer t;
    Batch second = loader.next();
    double wait = t.elapsed();
    return std::pair<double, int64_t>(wait, second.index);
  };
  auto [wait_blocking, idx_blocking] = run(YieldPolicy::kInOrder);
  auto [wait_ready, idx_ready] = run(YieldPolicy::kReadyFirst);
  EXPECT_EQ(idx_blocking, 1);        // strict order
  EXPECT_GT(wait_blocking, 0.05);    // had to wait for the slow batch
  EXPECT_NE(idx_ready, 1);           // overtook the slow batch
  EXPECT_LT(wait_ready, 0.05);
}

TEST(Loader, ReadyFirstStillDeliversSlowBatchLater) {
  std::vector<int> delays{0, 80, 0, 0};
  PrefetchLoader loader(delayed_batches(delays), 4,
                        config(YieldPolicy::kReadyFirst, 2, 4));
  std::vector<int64_t> order;
  while (loader.has_next()) order.push_back(loader.next().index);
  EXPECT_NE(std::find(order.begin(), order.end(), 1), order.end());
}

TEST(Loader, PriorityQueueYieldsSmallestReadyIndex) {
  // All ready simultaneously: ready-first must still prefer index order
  // (best-effort order preservation via the priority queue).
  const int64_t n = 12;
  PrefetchLoader loader(delayed_batches(std::vector<int>(n, 5)), n,
                        config(YieldPolicy::kReadyFirst, 4, 12));
  // Give workers time to fill the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  std::vector<int64_t> order;
  while (loader.has_next()) order.push_back(loader.next().index);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(Loader, StatsTrackWaitAndOrder) {
  std::vector<int> delays{30, 0, 0};
  PrefetchLoader loader(delayed_batches(delays), 3,
                        config(YieldPolicy::kInOrder, 2, 4));
  while (loader.has_next()) loader.next();
  const auto s = loader.stats_snapshot();
  EXPECT_EQ(s.batches_yielded, 3);
  EXPECT_EQ(s.yield_order.size(), 3u);
  EXPECT_EQ(s.prep_seconds.size(), 3u);
  EXPECT_GT(s.consumer_wait_seconds, 0.0);
}

TEST(Loader, StatsSnapshotSafeWhileWorkersRun) {
  // Regression: stats() used to hand out a reference into mutex-guarded
  // state, racing the workers. Only the locked snapshot remains; polling
  // it concurrently with prep/yield must be TSan-clean and consistent.
  const int64_t n = 30;
  PrefetchLoader loader(delayed_batches(std::vector<int>(n, 3)), n,
                        config(YieldPolicy::kReadyFirst, 3, 6));
  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load()) {
      const auto s = loader.stats_snapshot();
      EXPECT_LE(s.batches_yielded, n);
      EXPECT_EQ(s.yield_order.size(),
                static_cast<size_t>(s.batches_yielded));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  while (loader.has_next()) loader.next();
  done.store(true);
  poller.join();
  EXPECT_EQ(loader.stats_snapshot().batches_yielded, n);
}

TEST(Loader, NextPastEndThrows) {
  PrefetchLoader loader(delayed_batches({}), 1,
                        config(YieldPolicy::kReadyFirst));
  loader.next();
  EXPECT_FALSE(loader.has_next());
  EXPECT_THROW(loader.next(), Error);
}

TEST(Loader, DestructionWithUnconsumedBatchesIsClean) {
  auto loader = std::make_unique<PrefetchLoader>(
      delayed_batches(std::vector<int>(20, 10)), 20,
      config(YieldPolicy::kInOrder, 2, 4));
  loader->next();
  loader.reset();  // must join workers without deadlock
  SUCCEED();
}

TEST(Loader, InFlightBudgetMustCoverWorkers) {
  EXPECT_THROW(PrefetchLoader(delayed_batches({}), 4,
                              config(YieldPolicy::kInOrder, 4, 2)),
               Error);
}

TEST(Loader, ZeroBatches) {
  PrefetchLoader loader(delayed_batches({}), 0,
                        config(YieldPolicy::kReadyFirst));
  EXPECT_FALSE(loader.has_next());
}

TEST(Loader, StressManyBatchesManyWorkers) {
  const int64_t n = 300;
  std::vector<int> delays(n);
  for (int64_t i = 0; i < n; ++i) delays[i] = i % 3;
  PrefetchLoader loader(delayed_batches(delays), n,
                        config(YieldPolicy::kReadyFirst, 8, 16));
  std::set<int64_t> got;
  while (loader.has_next()) got.insert(loader.next().index);
  EXPECT_EQ(got.size(), static_cast<size_t>(n));
}

TEST(Loader, ConsumerThroughputReadyFirstBeatsInOrderUnderStraggler) {
  // End-to-end time with a periodic straggler: ready-first should finish
  // faster because the consumer never parks behind the slow batch.
  auto run = [&](YieldPolicy policy) {
    const int64_t n = 24;
    std::vector<int> delays(n, 0);
    for (int64_t i = 4; i < n; i += 8) delays[i] = 50;
    PrefetchLoader loader(delayed_batches(delays), n, config(policy, 2, 6));
    Timer t;
    while (loader.has_next()) {
      loader.next();
      // Consumer "training step" of 5ms.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return t.elapsed();
  };
  double blocking = run(YieldPolicy::kInOrder);
  double ready = run(YieldPolicy::kReadyFirst);
  EXPECT_LT(ready, blocking * 1.05);
}


TEST(Loader, WorkerExceptionSurfacesAtNext) {
  // A throwing preparation function must not terminate the process; the
  // consumer sees the exception on its own thread (PyTorch semantics).
  for (auto policy : {YieldPolicy::kInOrder, YieldPolicy::kReadyFirst}) {
    PrefetchLoader loader(
        [](int64_t i) -> Batch {
          if (i == 2) throw Error("featurization failed");
          Batch b;
          b.index = i;
          return b;
        },
        6, config(policy, 2, 4));
    bool threw = false;
    try {
      for (int k = 0; k < 6; ++k) loader.next();
    } catch (const Error& e) {
      threw = true;
      EXPECT_NE(std::string(e.what()).find("featurization"),
                std::string::npos);
    }
    EXPECT_TRUE(threw);
  }
}

// ---- Fault tolerance (§ "Fault model" in DESIGN.md) -----------------------

class LoaderFault : public ::testing::Test {
 protected:
  void TearDown() override { fault::reset(); }
};

TEST_F(LoaderFault, TransientPrepFailuresAreRetriedAndDelivered) {
  const int64_t n = 40;
  fault::SiteConfig fc;
  fc.probability = 0.25;  // ~1/4 of preparation attempts fail...
  fc.max_fires = -1;
  fc.seed = 3;
  fault::arm("loader.prep", fc);
  LoaderConfig c = config(YieldPolicy::kReadyFirst, 4, 8);
  c.max_retries = 8;  // ...but 8 retries make total loss vanishingly rare
  c.retry_backoff_seconds = 1e-4;
  PrefetchLoader loader(delayed_batches({}), n, c);
  std::set<int64_t> got;
  while (loader.has_next()) {
    EXPECT_TRUE(got.insert(loader.next().index).second);
  }
  EXPECT_EQ(got.size(), static_cast<size_t>(n));
  const auto s = loader.stats_snapshot();
  EXPECT_GT(s.retries, 0);
  EXPECT_EQ(s.worker_deaths, 0);
}

TEST_F(LoaderFault, ExhaustedRetriesSurfaceFirstErrorWithBatchIndex) {
  fault::SiteConfig fc;
  fc.max_fires = -1;  // every attempt on every batch fails
  fault::arm("loader.prep", fc);
  LoaderConfig c = config(YieldPolicy::kInOrder, 2, 4);
  c.max_retries = 2;
  c.retry_backoff_seconds = 1e-4;
  PrefetchLoader loader(delayed_batches({}), 8, c);
  try {
    loader.next();
    FAIL() << "expected the worker error to surface at next()";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("batch "), std::string::npos) << msg;
    EXPECT_NE(msg.find("preparation failed after 3 attempts"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("injected fault at loader.prep"), std::string::npos)
        << msg;
  }
  EXPECT_GE(loader.stats_snapshot().retries, 2);
}

TEST_F(LoaderFault, WorkerKillMidRunStillDeliversExactlyOnce) {
  // Acceptance scenario: a worker thread "crashes" mid-run; its claimed
  // batch is reclaimed at the deadline and every batch is still delivered
  // exactly once, with reordering bounded on both sides by the loader.
  const int64_t n = 40;
  fault::SiteConfig fc;
  fc.kill = true;
  fc.skip_hits = 5;  // die on the 6th batch claim, well into the stream
  fault::arm("loader.worker.kill", fc);
  const int in_flight = 6;
  LoaderConfig c = config(YieldPolicy::kReadyFirst, 3, in_flight);
  c.prep_timeout_seconds = 0.03;
  PrefetchLoader loader(delayed_batches(std::vector<int>(n, 1)), n, c);
  std::vector<int64_t> order;
  std::set<int64_t> got;
  while (loader.has_next()) {
    Batch b = loader.next();
    order.push_back(b.index);
    EXPECT_TRUE(got.insert(b.index).second) << "duplicate " << b.index;
  }
  EXPECT_EQ(got.size(), static_cast<size_t>(n));
  auto s = loader.stats_snapshot();
  EXPECT_EQ(s.worker_deaths, 1);
  EXPECT_GE(s.timeouts, 1);
  EXPECT_GE(s.requeues, 1);
  // Late side: a batch is overtaken only while it is in flight (being
  // prepared, or reclaimed and requeued), never once it is ready. How long
  // it stays in flight is up to the host's scheduler, so the bound is on
  // what the loader decides, not on positions.
  EXPECT_EQ(s.ready_overtakes, 0);
  // Early side: the claim window holds through the kill and the requeue.
  EXPECT_LE(s.max_in_flight_seen, in_flight);
  expect_none_early_beyond_window(order, in_flight);
}

TEST_F(LoaderFault, HungPreparationIsRequeuedAndDuplicateDropped) {
  // A preparation attempt hangs past the deadline; the batch is requeued
  // to a healthy worker and the late original result is dropped.
  const int64_t n = 24;
  fault::SiteConfig fc;
  fc.delay_seconds = 0.12;  // hang one attempt well past the deadline
  fc.throws = false;
  fc.skip_hits = 3;
  fault::arm("loader.prep", fc);
  LoaderConfig c = config(YieldPolicy::kReadyFirst, 3, 6);
  c.prep_timeout_seconds = 0.03;
  PrefetchLoader loader(delayed_batches(std::vector<int>(n, 1)), n, c);
  std::set<int64_t> got;
  while (loader.has_next()) {
    EXPECT_TRUE(got.insert(loader.next().index).second);
  }
  EXPECT_EQ(got.size(), static_cast<size_t>(n));
  // Let the hung attempt finish and get dropped as a duplicate.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  auto s = loader.stats_snapshot();
  EXPECT_GE(s.timeouts, 1);
  EXPECT_GE(s.requeues, 1);
  EXPECT_GE(s.dropped_duplicates, 1);
  EXPECT_EQ(s.worker_deaths, 0);
}

TEST_F(LoaderFault, RegistryCountersTrackRetryRequeueAndDeathStats) {
  // The sf_obs metrics registry must see the same fault-path events the
  // per-loader LoaderStats records: retries, requeues, worker deaths and
  // dropped duplicates (counters are global, so compare deltas).
  auto& reg = obs::Registry::global();
  const int64_t retries0 = reg.counter("loader.retries").value();
  const int64_t requeues0 = reg.counter("loader.requeues").value();
  const int64_t deaths0 = reg.counter("loader.worker_deaths").value();
  const int64_t dupes0 = reg.counter("loader.dropped_duplicates").value();

  const int64_t n = 24;
  // One transient prep failure (retried), then a kill on the prep path.
  fault::SiteConfig retry_fc;
  retry_fc.skip_hits = 1;
  retry_fc.max_fires = 1;
  fault::arm("loader.prep", retry_fc);
  fault::SiteConfig kill_fc;
  kill_fc.kill = true;
  kill_fc.skip_hits = 5;
  fault::arm("loader.worker.kill", kill_fc);
  LoaderConfig c = config(YieldPolicy::kReadyFirst, 3, 6);
  c.prep_timeout_seconds = 0.03;
  c.max_retries = 4;
  c.retry_backoff_seconds = 1e-4;
  PrefetchLoader loader(delayed_batches(std::vector<int>(n, 1)), n, c);
  std::set<int64_t> got;
  while (loader.has_next()) {
    EXPECT_TRUE(got.insert(loader.next().index).second);
  }
  EXPECT_EQ(got.size(), static_cast<size_t>(n));

  const auto s = loader.stats_snapshot();
  EXPECT_GE(s.retries, 1);
  EXPECT_EQ(s.worker_deaths, 1);
  EXPECT_GE(s.requeues, 1);
  EXPECT_EQ(reg.counter("loader.retries").value() - retries0, s.retries);
  EXPECT_EQ(reg.counter("loader.requeues").value() - requeues0, s.requeues);
  EXPECT_EQ(reg.counter("loader.worker_deaths").value() - deaths0,
            s.worker_deaths);
  EXPECT_EQ(reg.counter("loader.dropped_duplicates").value() - dupes0,
            s.dropped_duplicates);
}

TEST_F(LoaderFault, PrepPathKillCountsAsWorkerDeathInRegistry) {
  // Regression: the prep-path WorkerKill catch used to update only the
  // local LoaderStats, never the registry counter.
  auto& reg = obs::Registry::global();
  const int64_t deaths0 = reg.counter("loader.worker_deaths").value();
  fault::SiteConfig fc;
  fc.kill = true;
  fc.skip_hits = 2;
  fault::arm("loader.prep", fc);  // fires inside the preparation attempt
  const int64_t n = 12;
  LoaderConfig c = config(YieldPolicy::kReadyFirst, 3, 6);
  c.prep_timeout_seconds = 0.03;
  PrefetchLoader loader(delayed_batches(std::vector<int>(n, 1)), n, c);
  std::set<int64_t> got;
  while (loader.has_next()) {
    EXPECT_TRUE(got.insert(loader.next().index).second);
  }
  EXPECT_EQ(got.size(), static_cast<size_t>(n));
  const auto s = loader.stats_snapshot();
  EXPECT_EQ(s.worker_deaths, 1);
  EXPECT_EQ(reg.counter("loader.worker_deaths").value() - deaths0,
            s.worker_deaths);
}

TEST_F(LoaderFault, EarlyDestructionCleanUnderBothPoliciesWithWatchdog) {
  for (auto policy : {YieldPolicy::kInOrder, YieldPolicy::kReadyFirst}) {
    LoaderConfig c = config(policy, 3, 6);
    c.prep_timeout_seconds = 0.02;  // deadlines close to the prep time:
                                    // requeues race the shutdown
    auto loader = std::make_unique<PrefetchLoader>(
        delayed_batches(std::vector<int>(30, 15)), 30, c);
    loader->next();
    loader.reset();  // must join workers without deadlock
    auto untouched = std::make_unique<PrefetchLoader>(
        delayed_batches(std::vector<int>(30, 15)), 30, c);
    untouched.reset();  // destruction before any batch is consumed
  }
  SUCCEED();
}

}  // namespace
}  // namespace sf::data
