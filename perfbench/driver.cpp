// Benchmark driver: runs one workload of the repository benchmark through
// the public API and writes its raw measurements as one JSON document.
//
//   perfbench_driver --workload train|dap4|ddp4|serve --seed N --seconds S
//                    --trace 0|1 --out raw.json [--trace-out trace.json]
//                    [--serve-rate R] [--serve-outstanding C]
//
// perfbench/run.py builds this binary, turns the raw measurements into the
// benchmark's metrics and decides correctness from the recorded checks.
// The driver exits non-zero only on bad arguments or an exception.
//
// Every measurement is taken from outside the program: wall time around
// calls into public functions, plus the counters and stats the layers
// already expose. With --trace 1 the run measures twice, untraced then
// traced, so the trace overhead is known; the traced half also records
// benchmark-side spans (category "bench") around each public call.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/timer.h"
#include "core/session.h"
#include "dap/sharded_stack.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "tensor/allocator.h"
#include "train/data_parallel.h"

using namespace sf;

namespace {

// ---- minimal JSON emission -------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out + "\"";
}

template <class T>
std::string nums(const std::vector<T>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += num(static_cast<double>(v[i]));
  }
  return out + "]";
}

std::string list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out += ',';
    out += items[i];
  }
  return out + "]";
}

/// JSON object built from already-serialized member values.
class Obj {
 public:
  Obj& put(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += quote(key) + ":" + json;
    return *this;
  }
  Obj& put(const std::string& key, double v) { return put(key, num(v)); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string counters_json(const std::map<std::string, double>& c) {
  Obj o;
  for (const auto& [k, v] : c) o.put(k, v);
  return o.str();
}

// ---- arguments -------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string trace_out;
  double serve_rate = 0.0;
  int serve_outstanding = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    SF_CHECK(i + 1 < argc) << "missing value for" << flag;
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = (v == "1");
    else if (flag == "--out") a.out = v;
    else if (flag == "--trace-out") a.trace_out = v;
    else if (flag == "--serve-rate") a.serve_rate = std::stod(v);
    else if (flag == "--serve-outstanding") a.serve_outstanding = std::stoi(v);
    else SF_CHECK(false) << "unknown flag" << flag;
  }
  SF_CHECK(!a.out.empty()) << "--out is required";
  SF_CHECK(a.seconds > 0.0);
  SF_CHECK(!a.trace || !a.trace_out.empty()) << "--trace 1 needs --trace-out";
  return a;
}

// ---- shared helpers --------------------------------------------------------

/// Correctness checks, recorded for run.py (which fails the run on any).
class Checks {
 public:
  void add(const std::string& name, bool ok, const std::string& detail = "") {
    items_.push_back(Obj()
                         .put("name", quote(name))
                         .put("ok", ok ? "true" : "false")
                         .put("detail", quote(detail))
                         .str());
  }
  std::string json() const { return list(items_); }

 private:
  std::vector<std::string> items_;
};

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

bool all_finite(const std::vector<float>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](float x) { return std::isfinite(x); });
}

double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

std::string provenance_json(const Args& a) {
  auto env = [](const char* name) {
    const char* v = std::getenv(name);
    return quote(v != nullptr ? v : "");
  };
  return Obj()
      .put("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .put("sf_num_threads", static_cast<double>(sf::num_threads()))
      .put("env_SF_NUM_THREADS", env("SF_NUM_THREADS"))
      .put("simd_tier", quote(simd::tier_name(simd::active_tier())))
      .put("env_SF_SIMD", env("SF_SIMD"))
      .put("build_type", quote(PERFBENCH_BUILD_TYPE))
      .put("workload", quote(a.workload))
      .put("seed", static_cast<double>(a.seed))
      .str();
}

/// Turns span recording on for one measured pass and writes the Chrome
/// trace when the pass ends.
class TracedPass {
 public:
  TracedPass(bool on, std::string path) : on_(on), path_(std::move(path)) {
    if (!on_) return;
    obs::reset();
    obs::set_trace_enabled(true);
  }
  ~TracedPass() {
    if (!on_) return;
    obs::set_trace_enabled(false);
    obs::write_chrome_trace(path_);
  }
  TracedPass(const TracedPass&) = delete;
  TracedPass& operator=(const TracedPass&) = delete;

 private:
  bool on_;
  std::string path_;
};

struct StepSample {
  int64_t recycles = 0;
  double wall_s = 0.0;  ///< outside wall time attributed to the step
  double step_s = 0.0;  ///< the program's own step timer
  double wait_s = 0.0;  ///< loader wait before the step
  float loss = 0.0f;
  bool bad = false;     ///< skipped by the NaN guard or lost to a fault
};

std::string steps_json(const std::vector<StepSample>& steps) {
  std::vector<std::string> rows;
  rows.reserve(steps.size());
  for (const auto& s : steps) {
    rows.push_back(Obj()
                       .put("r", static_cast<double>(s.recycles))
                       .put("wall", s.wall_s)
                       .put("step", s.step_s)
                       .put("wait", s.wait_s)
                       .put("loss", s.loss)
                       .put("bad", s.bad ? "true" : "false")
                       .str());
  }
  return list(rows);
}

/// Set-ups per run; setup_s is their median, and the last one is measured.
constexpr int kSetups = 3;

template <class Fn>
std::vector<double> timed_setups(Fn&& one_setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetups; ++i) seconds.push_back(one_setup(i == kSetups - 1));
  return seconds;
}

// ---- train / dap4: core::TrainingSession ----------------------------------

/// The trainer draws each step's recycling count from Rng(TrainConfig::seed)
/// once per step; StepRecord does not carry the count, so the benchmark
/// replays the same draws. run.py rejects a run whose replayed counts do
/// not separate the step times (see check "recycle_replay").
class RecycleReplay {
 public:
  explicit RecycleReplay(const train::TrainConfig& c)
      : rng_(c.seed), lo_(c.min_recycles),
        n_(static_cast<uint64_t>(c.max_recycles - c.min_recycles + 1)) {}
  int64_t next() { return lo_ + static_cast<int64_t>(rng_.uniform_int(n_)); }

 private:
  Rng rng_;
  int64_t lo_;
  uint64_t n_;
};

/// Trainer seed for a workload seed: the first of a fixed sequence of
/// candidates whose first draws hold every recycling count exactly twice,
/// so capture warm-up takes the same number of steps for every workload
/// seed and setup_s does not depend on the luck of the draw.
uint64_t balanced_trainer_seed(train::TrainConfig c, uint64_t seed) {
  const int64_t counts = c.max_recycles - c.min_recycles + 1;
  for (uint64_t k = 0;; ++k) {
    c.seed = 0x5ca1ef00ULL + seed * 1000 + k;
    RecycleReplay replay(c);
    std::vector<int> seen(static_cast<size_t>(counts), 0);
    for (int64_t i = 0; i < 2 * counts; ++i) {
      ++seen[static_cast<size_t>(replay.next() - c.min_recycles)];
    }
    if (std::all_of(seen.begin(), seen.end(), [](int n) { return n == 2; })) {
      return c.seed;
    }
  }
}

core::ScaleFoldOptions training_options(uint64_t seed, int dap_world,
                                        bool capture) {
  core::ScaleFoldOptions o;  // every ScaleFold switch on; bf16 stays off
  o.capture_step = capture;
  o.bf16_activations = false;
  o.eval_every_steps = 0;
  o.seed = 1000 + seed;  // model init
  o.dataset.seed = seed;
  o.train.dap_world = dap_world;
  o.train.seed = balanced_trainer_seed(o.train, seed);
  return o;
}

struct Training {
  std::unique_ptr<core::TrainingSession> session;
  std::unique_ptr<RecycleReplay> recycles;
  std::vector<float> warmup_losses;  ///< deterministic: one batch per run()
};

/// Session construction plus capture warm-up: one run(1) at a time until
/// every step shape (recycling count) has been captured.
Training start_training(const core::ScaleFoldOptions& o) {
  Training t;
  t.session = std::make_unique<core::TrainingSession>(o);
  const auto& tc = t.session->options().train;
  t.recycles = std::make_unique<RecycleReplay>(tc);
  const int64_t shapes = tc.max_recycles - tc.min_recycles + 1;
  auto& trainer = t.session->trainer();
  while (!tc.capture_step ? t.warmup_losses.empty()
                          : trainer.num_captured_shapes() < shapes) {
    SF_CHECK(t.warmup_losses.size() < 64) << "capture warm-up never finished";
    for (const auto& r : t.session->run(1)) t.warmup_losses.push_back(r.loss);
    t.recycles->next();
  }
  return t;
}

/// `steps` more deterministic single-batch steps (no loader reordering).
std::vector<float> single_steps(Training& t, int64_t steps) {
  std::vector<float> losses;
  for (int64_t i = 0; i < steps; ++i) {
    for (const auto& r : t.session->run(1)) losses.push_back(r.loss);
    t.recycles->next();
  }
  return losses;
}

std::map<std::string, double> training_counters(core::TrainingSession& s) {
  std::map<std::string, double> c;
  const AllocStats a = heap_alloc_stats();
  c["tensor.allocs"] = static_cast<double>(a.allocs);
  c["tensor.alloc_bytes"] = static_cast<double>(a.bytes);
  auto& tr = s.trainer();
  const auto cs = tr.capture_stats();
  c["graph.replays"] = static_cast<double>(cs.replays);
  c["graph.divergences"] = static_cast<double>(cs.divergences);
  c["graph.arena_bytes"] = static_cast<double>(cs.arena_bytes);
  c["train.skipped_steps"] = static_cast<double>(tr.skipped_steps());
  if (auto* d = tr.dap_executor()) {
    const auto st = d->stats();
    c["dap.exchange_span_s"] = st.exchange_span_s;
    c["dap.blocked_wait_s"] = st.blocked_wait_s;
    c["graph.replays"] += static_cast<double>(st.capture.replays);
    c["graph.divergences"] += static_cast<double>(st.capture.divergences);
    c["graph.arena_bytes"] += static_cast<double>(st.capture.arena_bytes);
    const auto cm = d->comm_stats();
    c["comm.collectives"] = static_cast<double>(cm.collectives);
    c["comm.bytes"] = static_cast<double>(cm.total_bytes());
  }
  return c;
}

/// One measured pass: TrainingSession::run in chunks of up to 8 steps until
/// `seconds` have elapsed. Each step is credited with its own step and
/// loader-wait timers plus an equal share of the rest of its chunk's
/// outside wall time (loader start-up and bookkeeping).
std::string training_pass(Training& t, double seconds, bool traced,
                          const std::string& trace_out) {
  auto& s = *t.session;
  const auto before = training_counters(s);
  std::vector<StepSample> steps;
  double measured_s = 0.0;
  {
    TracedPass tp(traced, trace_out);
    Timer window;
    double mean_step = 0.25;
    while (window.elapsed() < seconds) {
      const double left = seconds - window.elapsed();
      const int64_t chunk = std::clamp<int64_t>(
          static_cast<int64_t>(std::ceil(left / mean_step)), 1, 8);
      Timer wall;
      std::vector<core::StepRecord> recs;
      {
        obs::TraceSpan span("bench", "train.run");
        recs = s.run(chunk);
      }
      const double chunk_s = wall.elapsed();
      measured_s += chunk_s;
      double inside = 0.0;
      for (const auto& r : recs) inside += r.step_seconds + r.data_wait_seconds;
      const double share = (chunk_s - inside) / static_cast<double>(recs.size());
      for (const auto& r : recs) {
        steps.push_back({t.recycles->next(),
                         r.step_seconds + r.data_wait_seconds + share,
                         r.step_seconds, r.data_wait_seconds, r.loss,
                         !std::isfinite(r.loss)});
      }
      mean_step = measured_s / static_cast<double>(steps.size());
    }
  }
  const auto after = training_counters(s);
  return Obj()
      .put("traced", traced ? "true" : "false")
      .put("samples_per_step", 1.0)
      .put("steps", steps_json(steps))
      .put("before", counters_json(before))
      .put("after", counters_json(after))
      .str();
}

void run_training(const Args& a, int dap_world, Obj& out, Checks& checks) {
  const auto opts = training_options(a.seed, dap_world, /*capture=*/true);
  Training live;
  std::vector<std::vector<float>> warmups;
  const auto setup_s = timed_setups([&](bool keep) {
    live = Training{};  // release the previous setup before timing the next
    obs::TraceSpan span("bench", "setup");
    Timer timer;
    Training t = start_training(opts);
    const double s = timer.elapsed();
    warmups.push_back(t.warmup_losses);
    if (keep) live = std::move(t);
    return s;
  });
  out.put("setup_s", nums(setup_s));

  const bool repeat_ok = std::all_of(
      warmups.begin(), warmups.end(),
      [&](const std::vector<float>& w) { return bitwise_equal(w, warmups[0]); });
  checks.add("repeat_setup_losses_bitwise", repeat_ok,
             std::to_string(warmups.size()) + " setups");

  // Deterministic prefix: the warm-up plus single-batch steps until the
  // captured plans have been replayed a few times. It is compared with a
  // plain (unsharded, eager) session below.
  std::vector<float> prefix = live.warmup_losses;
  for (int i = 0; i < 16 && live.session->trainer().capture_stats().replays < 4;
       ++i) {
    const auto more = single_steps(live, 1);
    prefix.insert(prefix.end(), more.begin(), more.end());
  }

  std::vector<std::string> passes;
  if (a.trace) {
    passes.push_back(training_pass(live, a.seconds / 2, false, ""));
    passes.push_back(training_pass(live, a.seconds / 2, true, a.trace_out));
  } else {
    passes.push_back(training_pass(live, a.seconds, false, ""));
  }
  out.put("passes", list(passes));

  const auto final_counters = training_counters(*live.session);
  checks.add("no_skipped_steps", final_counters.at("train.skipped_steps") == 0);
  checks.add("graph_divergences_zero",
             final_counters.at("graph.divergences") == 0,
             num(final_counters.at("graph.divergences")));
  live = Training{};

  Training plain = start_training(training_options(a.seed, 0, false));
  std::vector<float> ref = plain.warmup_losses;
  const auto more = single_steps(
      plain, static_cast<int64_t>(prefix.size()) -
                 static_cast<int64_t>(ref.size()));
  ref.insert(ref.end(), more.begin(), more.end());
  checks.add("losses_match_plain_eager_bitwise",
             bitwise_equal(prefix, ref) && all_finite(prefix),
             std::to_string(prefix.size()) + " steps vs unsharded eager");
}

// ---- ddp4: train::DataParallelTrainer -------------------------------------

constexpr int kDdpWorld = 4;

struct Ddp {
  std::unique_ptr<data::SyntheticProteinDataset> dataset;
  std::unique_ptr<train::DataParallelTrainer> trainer;
  int64_t next_index = 0;
  int64_t train_space = 0;

  std::vector<data::Batch> next_batches() {
    std::vector<data::Batch> b;
    for (int r = 0; r < trainer->world_size(); ++r) {
      obs::TraceSpan span("bench", "data.prepare_batch");
      b.push_back(dataset->prepare_batch(next_index++ % train_space));
    }
    return b;
  }
};

Ddp start_ddp(uint64_t seed) {
  auto o = training_options(seed, 0, /*capture=*/false);
  o.sync_dims();
  Ddp d;
  d.dataset = std::make_unique<data::SyntheticProteinDataset>(o.dataset);
  d.train_space = d.dataset->size();
  d.trainer = std::make_unique<train::DataParallelTrainer>(
      o.model, o.train, kDdpWorld, o.seed);
  return d;
}

std::map<std::string, double> ddp_counters(const Ddp& d) {
  std::map<std::string, double> c;
  const AllocStats a = heap_alloc_stats();
  c["tensor.allocs"] = static_cast<double>(a.allocs);
  c["tensor.alloc_bytes"] = static_cast<double>(a.bytes);
  const auto cm = d.trainer->comm_stats();
  c["comm.collectives"] = static_cast<double>(cm.collectives);
  c["comm.bytes"] = static_cast<double>(cm.total_bytes());
  const auto* store = d.trainer->bucket_store(0);
  c["ddp.buckets"] = store != nullptr ? store->num_buckets() : 0;
  return c;
}

StepSample ddp_step(Ddp& d) {
  auto batches = d.next_batches();
  Timer wall;
  train::StepResult r;
  {
    obs::TraceSpan span("bench", "ddp.train_step");
    r = d.trainer->train_step(batches);
  }
  return {r.recycles, wall.elapsed(), r.seconds, 0.0, r.loss,
          r.skipped || r.lost_to_fault || !std::isfinite(r.loss)};
}

std::string ddp_pass(Ddp& d, double seconds, bool traced,
                     const std::string& trace_out) {
  const auto before = ddp_counters(d);
  std::vector<StepSample> steps;
  double measured_s = 0.0;
  {
    TracedPass tp(traced, trace_out);
    Timer window;
    while (window.elapsed() < seconds) {
      steps.push_back(ddp_step(d));
      measured_s += steps.back().wall_s;
    }
  }
  const auto after = ddp_counters(d);
  return Obj()
      .put("traced", traced ? "true" : "false")
      .put("samples_per_step", static_cast<double>(kDdpWorld))
      .put("world", static_cast<double>(kDdpWorld))
      .put("steps", steps_json(steps))
      .put("before", counters_json(before))
      .put("after", counters_json(after))
      .str();
}

void run_ddp(const Args& a, Obj& out, Checks& checks) {
  Ddp live;
  std::vector<float> warm;
  bool repeat_ok = true;
  const auto setup_s = timed_setups([&](bool keep) {
    live = Ddp{};
    obs::TraceSpan span("bench", "setup");
    Timer timer;
    Ddp d = start_ddp(a.seed);
    const StepSample first = ddp_step(d);  // first-touch allocations
    const double s = timer.elapsed();
    if (warm.empty()) warm.push_back(first.loss);
    repeat_ok = repeat_ok && bitwise_equal(warm, {first.loss}) && !first.bad;
    if (keep) live = std::move(d);
    return s;
  });
  out.put("setup_s", nums(setup_s));
  checks.add("repeat_setup_losses_bitwise", repeat_ok,
             std::to_string(kSetups) + " setups");

  std::vector<std::string> passes;
  if (a.trace) {
    passes.push_back(ddp_pass(live, a.seconds / 2, false, ""));
    passes.push_back(ddp_pass(live, a.seconds / 2, true, a.trace_out));
  } else {
    passes.push_back(ddp_pass(live, a.seconds, false, ""));
  }
  out.put("passes", list(passes));

  float worst = 0.0f;
  for (int r = 0; r < live.trainer->world_size(); ++r) {
    worst = std::max(worst, live.trainer->replica_divergence(r));
  }
  checks.add("replica_divergence_zero", worst == 0.0f, num(worst));
  checks.add("world_size_kept", live.trainer->world_size() == kDdpWorld);
}

// ---- serve: serve::Service --------------------------------------------------

model::ModelConfig serve_model() {
  model::ModelConfig c;  // the bench_serving shape
  c.crop_len = 32;
  c.msa_rows = 4;
  c.c_m = 16;
  c.c_z = 16;
  c.c_s = 16;
  c.heads = 2;
  c.head_dim = 8;
  c.evoformer_blocks = 2;
  c.use_extra_msa_stack = false;
  c.use_template_stack = false;
  c.opm_dim = 4;
  c.transition_factor = 2;
  c.structure_layers = 1;
  return c;
}

data::DatasetConfig serve_dataset(uint64_t seed) {
  data::DatasetConfig c;
  c.num_samples = 8192;
  c.crop_len = 32;
  c.msa_rows = 4;
  c.len_log_mean = 2.7;  // median ~15 residues, long tail
  c.len_log_sigma = 0.6;
  c.min_seq_len = 6;
  c.max_seq_len = 48;  // bounds the featurize tail: work ~ full length
  // Deep MSAs with a raised work cap: a cache miss pays a featurization
  // that is a visible share of the request, as in real structure serving.
  c.msa_log_mean = 9.0;
  c.msa_log_sigma = 0.5;
  c.msa_work_cap = 20000;
  c.seed = 7000 + seed;
  return c;
}

serve::ServeConfig serve_config() {
  serve::ServeConfig c;
  c.scheduler.bucket_lens = {12, 16, 24, 32};
  c.scheduler.max_batch = 8;
  c.cache.enabled = true;
  c.feature_workers = 2;
  c.model_workers = 1;
  c.num_recycles = 1;
  c.planned_arenas = true;
  return c;
}

/// Seeded request stream with a fixed composition. Every block of kBlock
/// scheduled instants sends kPerBucket[b] of them to length bucket b;
/// kHotPerBlock of them (spread over the buckets) use a small hot key set,
/// and two (one hot, one cold) send two requests for the same key at once.
/// The rest are distinct cold keys, each used once. Seeds change the keys
/// and the order inside a block, never the mix, so the mix adds no
/// run-to-run spread.
class RequestMix {
 public:
  static constexpr int kBlock = 20;
  static constexpr int kPerBucket[4] = {8, 5, 3, 4};
  static constexpr int kHotPerBlock = 6;
  static constexpr int kHotPerBucket = 2;
  static constexpr int kWarmPerBucket = 3;

  RequestMix(const data::SyntheticProteinDataset& ds,
             const std::vector<int64_t>& buckets, uint64_t seed)
      : rng_(0xb0a710adULL + seed), hot_(buckets.size()), cold_(buckets.size()) {
    SF_CHECK(buckets.size() == 4) << "the mix is defined for four buckets";
    std::vector<int64_t> order(static_cast<size_t>(ds.size()));
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
    shuffle(order);
    // Per bucket: kWarmPerBucket warm-up keys (eager forward, capture,
    // first replay), then kHotPerBucket hot keys; the rest are cold.
    std::vector<int> warm(buckets.size(), 0);
    for (int64_t key : order) {
      const int64_t len = ds.meta(key).seq_len;
      size_t b = buckets.size() - 1;
      for (size_t i = 0; i < buckets.size(); ++i) {
        if (len <= buckets[i]) {
          b = i;
          break;
        }
      }
      if (warm[b] < kWarmPerBucket) {
        ++warm[b];
        warmup.push_back(key);
      } else if (hot_[b].size() < static_cast<size_t>(kHotPerBucket)) {
        hot_[b].push_back(key);
      } else {
        cold_[b].push_back(key);
      }
    }
  }

  /// Keys sent together at the next scheduled instant (one, or a repeat).
  std::vector<int64_t> next_slot() {
    if (next_ == block_.size()) refill();
    const Slot s = block_[next_++];
    int64_t key;
    if (s.hot) {
      key = hot_[s.bucket][rng_.uniform_int(hot_[s.bucket].size())];
    } else {
      SF_CHECK(next_cold_[s.bucket] < cold_[s.bucket].size())
          << "request mix ran out of keys";
      key = cold_[s.bucket][next_cold_[s.bucket]++];
    }
    if (s.repeat) return {key, key};
    return {key};
  }

  std::vector<int64_t> warmup;

 private:
  struct Slot {
    size_t bucket = 0;
    bool hot = false;
    bool repeat = false;
  };

  template <class T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng_.uniform_int(i)]);
    }
  }

  void refill() {
    block_.clear();
    for (size_t b = 0; b < 4; ++b) {
      for (int i = 0; i < kPerBucket[b]; ++i) block_.push_back({b, false, false});
    }
    SF_CHECK(block_.size() == static_cast<size_t>(kBlock));
    shuffle(block_);
    for (int i = 0; i < kHotPerBlock; ++i) block_[static_cast<size_t>(i)].hot = true;
    block_[static_cast<size_t>(kHotPerBlock)].repeat = true;  // a cold repeat
    block_[0].repeat = true;                                  // a hot repeat
    shuffle(block_);
    next_ = 0;
  }

  Rng rng_;
  std::vector<std::vector<int64_t>> hot_, cold_;
  size_t next_cold_[4] = {0, 0, 0, 0};
  std::vector<Slot> block_;
  size_t next_ = 0;
};

struct Sent {
  int phase = 0;         ///< 0 = open loop, 1 = closed loop
  int cycle = 0;         ///< which open/closed round
  double sched_s = 0.0;  ///< when it was due (open loop), else = sent_s
  double sent_s = 0.0;   ///< just before submit()
};

using SteadyClock = std::chrono::steady_clock;

double since(SteadyClock::time_point origin) {
  return std::chrono::duration<double>(SteadyClock::now() - origin).count();
}

std::map<std::string, double> serve_counters(const serve::Service& svc) {
  const auto s = svc.stats();
  const AllocStats a = heap_alloc_stats();
  return {{"serve.submitted", static_cast<double>(s.submitted)},
          {"serve.rejected", static_cast<double>(s.rejected)},
          {"serve.batches", static_cast<double>(s.batches_dispatched)},
          {"serve.dispatched", static_cast<double>(s.requests_dispatched)},
          {"serve.cache_hits", static_cast<double>(s.cache_hits)},
          {"serve.cache_misses", static_cast<double>(s.cache_misses)},
          {"graph.replays", static_cast<double>(s.plan_replays)},
          {"graph.divergences", static_cast<double>(s.plan_divergences)},
          {"graph.arena_bytes", static_cast<double>(s.plan_arena_bytes)},
          {"tensor.allocs", static_cast<double>(a.allocs)},
          {"tensor.alloc_bytes", static_cast<double>(a.bytes)}};
}

/// Rounds of a serving pass. Each round is one repeated measurement (an
/// open-loop segment, then a closed-loop segment); run.py reports the
/// median over rounds, so host contention in a round or two does not move
/// the result.
constexpr int kCycles = 8;

/// One measured serving pass: an open loop of `open_slots` scheduled
/// instants at `rate` and a closed loop holding `outstanding` requests in
/// flight for `closed_s` seconds, split over kCycles rounds. Returns the
/// pass JSON; appends checks.
std::string serve_pass(serve::Service& svc, RequestMix& mix,
                       const data::SyntheticProteinDataset& ds,
                       int64_t open_slots, double rate, int outstanding,
                       double closed_s, bool traced,
                       const std::string& trace_out, Checks& checks) {
  const auto before = serve_counters(svc);
  std::map<int64_t, Sent> sent;
  std::vector<serve::Response> got;
  const auto origin = SteadyClock::now();
  auto submit = [&](int64_t key, int phase, int cycle, double sched_s) {
    const double t = since(origin);
    int64_t id;
    {
      obs::TraceSpan span("bench", "serve.submit");
      id = svc.submit(key);
    }
    sent[id] = {phase, cycle, phase == 0 ? sched_s : t, t};
  };
  auto collect = [&](std::vector<serve::Response> rs) {
    for (auto& r : rs) got.push_back(std::move(r));
  };
  std::vector<std::string> closed_rounds;  // {done, s} per round
  {
    TracedPass tp(traced, trace_out);
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      const int64_t first = open_slots * cycle / kCycles;
      const int64_t last = open_slots * (cycle + 1) / kCycles;
      const double start = since(origin) + 1e-3;
      for (int64_t i = first; i < last; ++i) {
        const double due = start + static_cast<double>(i - first) / rate;
        std::this_thread::sleep_until(
            origin + std::chrono::duration_cast<SteadyClock::duration>(
                         std::chrono::duration<double>(due)));
        for (int64_t key : mix.next_slot()) submit(key, 0, cycle, due);
      }
      {
        obs::TraceSpan span("bench", "serve.wait_all");
        collect(svc.wait_all());
      }

      const double closed_start = since(origin);
      int64_t in_flight = 0, closed_done = 0;
      auto top_up = [&] {
        while (in_flight < outstanding) {
          for (int64_t key : mix.next_slot()) {
            submit(key, 1, cycle, 0.0);
            ++in_flight;
          }
        }
      };
      top_up();
      while (since(origin) - closed_start < closed_s / kCycles) {
        std::vector<serve::Response> rs;
        {
          obs::TraceSpan span("bench", "serve.drain");
          rs = svc.drain();
        }
        if (rs.empty()) {
          // Coarse polling: with `outstanding` requests queued the service
          // never idles on this delay, and the generator stays off the
          // cores.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        in_flight -= static_cast<int64_t>(rs.size());
        closed_done += static_cast<int64_t>(rs.size());
        collect(std::move(rs));
        top_up();
      }
      closed_rounds.push_back(
          Obj()
              .put("done", static_cast<double>(closed_done))
              .put("s", since(origin) - closed_start)
              .str());
      {
        obs::TraceSpan span("bench", "serve.wait_all");
        collect(svc.wait_all());
      }
    }
  }
  const auto after = serve_counters(svc);

  // Exactly one response per submitted request; finite [bucket_len, 3]
  // positions on every OK response.
  std::map<int64_t, int> seen;
  int64_t bad_positions = 0;
  std::vector<std::string> rows;
  rows.reserve(got.size());
  for (const auto& r : got) {
    ++seen[r.id];
    bool pos_ok = !r.ok;
    if (r.ok) {
      const auto& p = r.positions;
      pos_ok = p.defined() && p.rank() == 2 && p.dim(0) == r.bucket_len &&
               p.dim(1) == 3 &&
               std::all_of(p.span().begin(), p.span().end(),
                           [](float x) { return std::isfinite(x); });
    }
    bad_positions += pos_ok ? 0 : 1;
    const auto it = sent.find(r.id);
    const Sent s = it != sent.end() ? it->second : Sent{};
    rows.push_back(Obj()
                       .put("phase", s.phase)
                       .put("cycle", s.cycle)
                       .put("key", static_cast<double>(r.sample_index))
                       .put("len", static_cast<double>(
                                       ds.meta(r.sample_index).seq_len))
                       .put("ok", r.ok ? "true" : "false")
                       .put("bucket", static_cast<double>(r.bucket_len))
                       .put("batch", static_cast<double>(r.batch_size))
                       .put("hit", r.cache_hit ? "true" : "false")
                       .put("queue", r.queue_s)
                       .put("featurize", r.featurize_s)
                       .put("batch_wait", r.batch_wait_s)
                       .put("forward", r.forward_s)
                       .put("total", r.total_s)
                       .put("sched", s.sched_s)
                       .put("sent", s.sent_s)
                       .str());
  }
  bool once = seen.size() == sent.size();
  for (const auto& [id, n] : seen) once = once && n == 1 && sent.count(id);
  checks.add("serve_exactly_one_response", once,
             std::to_string(got.size()) + " responses for " +
                 std::to_string(sent.size()) + " requests");
  checks.add("serve_positions_finite", bad_positions == 0,
             std::to_string(bad_positions) + " bad");

  return Obj()
      .put("traced", traced ? "true" : "false")
      .put("closed_rounds", list(closed_rounds))
      .put("responses", list(rows))
      .put("before", counters_json(before))
      .put("after", counters_json(after))
      .str();
}

void run_serve(const Args& a, Obj& out, Checks& checks) {
  SF_CHECK(a.serve_rate > 0 && a.serve_outstanding > 0)
      << "serve needs --serve-rate and --serve-outstanding";
  const auto dcfg = serve_dataset(a.seed);
  const data::SyntheticProteinDataset ds(dcfg);
  const auto scfg = serve_config();
  RequestMix mix(ds, scfg.scheduler.bucket_lens, a.seed);

  std::unique_ptr<serve::Service> live;
  const auto setup_s = timed_setups([&](bool keep) {
    live.reset();
    obs::TraceSpan span("bench", "setup");
    Timer timer;
    auto svc = std::make_unique<serve::Service>(scfg, dcfg, serve_model());
    for (int64_t key : mix.warmup) {  // one at a time: every forward counts
      svc->submit(key);
      svc->wait_all();
    }
    const double s = timer.elapsed();
    if (keep) live = std::move(svc);
    return s;
  });
  out.put("setup_s", nums(setup_s));

  // At least 1000 open-loop instants (1100 requests) per measured pass,
  // so p99 has ten samples beyond it.
  constexpr int64_t kMinOpen = 1000;
  std::vector<std::string> passes;
  if (a.trace) {
    passes.push_back(serve_pass(*live, mix, ds, 0, a.serve_rate,
                                a.serve_outstanding, a.seconds * 0.25, false,
                                "", checks));
    passes.push_back(serve_pass(
        *live, mix, ds, static_cast<int64_t>(a.serve_rate * a.seconds * 0.5),
        a.serve_rate, a.serve_outstanding, a.seconds * 0.25, true,
        a.trace_out, checks));
  } else {
    const auto slots = std::max<int64_t>(
        kMinOpen, static_cast<int64_t>(a.serve_rate * a.seconds * 0.6));
    passes.push_back(serve_pass(*live, mix, ds, slots, a.serve_rate,
                                a.serve_outstanding, a.seconds * 0.4, false,
                                "", checks));
  }
  out.put("passes", list(passes));
  checks.add("graph_divergences_zero", live->stats().plan_divergences == 0);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    Obj out;
    Checks checks;
    if (a.workload == "train") run_training(a, 0, out, checks);
    else if (a.workload == "dap4") run_training(a, 4, out, checks);
    else if (a.workload == "ddp4") run_ddp(a, out, checks);
    else if (a.workload == "serve") run_serve(a, out, checks);
    else SF_CHECK(false) << "unknown workload" << a.workload;
    out.put("checks", checks.json());
    out.put("peak_rss_kb", peak_rss_kb());
    out.put("provenance", provenance_json(a));
    std::ofstream f(a.out, std::ios::binary | std::ios::trunc);
    f << out.str() << "\n";
    SF_CHECK(f.good()) << "cannot write" << a.out;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
