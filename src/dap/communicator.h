// In-process communicator for Dynamic Axial Parallelism (§2.3) and the
// data-parallel gradient all-reduce (§3.3.1).
//
// DAP splits one sample's activations along a non-reductive axis across N
// ranks, inserting all-gather and all-to-all collectives in forward and
// backward. This communicator provides those collectives for N threads in
// one process: deterministic (rank-ordered reductions), sense-reversing
// barriers, and per-collective byte accounting so benches can report DAP
// communication volume (the quantity the simulator's
// kDapCommBytesPerStep models at paper scale).
//
// Blocking collectives rendezvous all ranks inside the call. The *async*
// all-reduce instead deposits a buffer and returns a handle immediately:
// a dedicated communication thread performs the rank-ordered reduction as
// soon as the last rank has contributed, concurrently with whatever the
// rank threads do next — this is what lets DDP gradient buckets reduce
// while backward is still running. Collectives are matched across ranks
// by per-rank launch index (every rank must issue the same async sequence
// in the same order; a `tag` cross-checks the match). The reduction order
// is rank-ordered per element, exactly like the blocking path, so the
// result bits are identical no matter how launches and waits interleave.
//
// abort()/recover() provide bounded-time failure propagation for *all*
// collectives: async waiters throw from wait(), and blocking callers are
// woken out of their rendezvous barriers and throw — a rank that dies
// mid-collective can never hang its peers. recover() (threads joined
// first) returns the communicator to a clean state; the elastic trainer
// instead rebuilds it at the survivors' world size.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace sf::dap {

class Communicator {
 public:
  explicit Communicator(int world_size);
  ~Communicator();

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  int world_size() const { return n_; }

  /// Rendezvous for all ranks.
  void barrier(int rank);

  /// Each rank contributes `chunk` (equal numel across ranks); on return
  /// every rank's `out` (numel = world_size * chunk) holds all chunks in
  /// rank order.
  void all_gather(int rank, std::span<const float> chunk,
                  std::span<float> out);

  /// Element-wise sum across ranks, result visible to every rank in `buf`
  /// (equal numel across ranks). Reduction order is rank order —
  /// deterministic.
  void all_reduce_sum(int rank, std::span<float> buf);

  /// Rank r's `send` is split into world_size equal chunks; chunk j goes
  /// to rank j. On return `recv` holds, in rank order, the chunks destined
  /// for this rank.
  void all_to_all(int rank, std::span<const float> send,
                  std::span<float> recv);

  /// Reduce-scatter: element-wise sum of every rank's `full` buffer, of
  /// which this rank receives only its own 1/world_size slice in `out`
  /// (full.size() % world_size == 0). Half the volume of an all-reduce —
  /// the §2.3 "communication optimization opportunity" DAP enables when
  /// the consumer of a reduction is itself sharded.
  void reduce_scatter_sum(int rank, std::span<const float> full,
                          std::span<float> out);

  // ---- Non-blocking all-reduce ------------------------------------------

  struct AsyncSlot;

  /// Completion handle for an async collective. Value-semantic; default
  /// constructed handles are "already done".
  class AsyncHandle {
   public:
    AsyncHandle() = default;

    /// Block until the reduction has been written back to this rank's
    /// buffer. Throws sf::Error if the collective failed or the
    /// communicator was aborted; rethrowable any number of times.
    void wait();

    bool valid() const { return comm_ != nullptr; }

   private:
    friend class Communicator;
    AsyncHandle(Communicator* comm, std::shared_ptr<AsyncSlot> slot)
        : comm_(comm), slot_(std::move(slot)) {}

    Communicator* comm_ = nullptr;
    std::shared_ptr<AsyncSlot> slot_;
  };

  /// Non-blocking element-wise sum across ranks, in place in `buf`, which
  /// must stay alive and untouched until wait() returns. Rank r's k-th
  /// async launch is matched with every other rank's k-th launch; `tag`
  /// and the buffer size are cross-checked against the peers (a mismatch
  /// aborts the communicator — it means ranks diverged on launch order).
  /// The reduction runs on the communicator's own thread as soon as the
  /// last rank has deposited, overlapping the callers' ongoing compute;
  /// bits match the blocking all_reduce_sum exactly.
  AsyncHandle all_reduce_sum_async(int rank, std::span<float> buf,
                                   int64_t tag = -1);

  /// Non-blocking all-to-all: like all_to_all, but deposits the buffers
  /// and returns immediately. `send` and `recv` must be distinct, stay
  /// alive and untouched until wait() returns. Matched across ranks by
  /// the same per-rank launch index as the async all-reduce (one shared
  /// sequence — every rank must issue all async collectives in the same
  /// order); `tag` and sizes are cross-checked. The exchange runs on the
  /// communicator thread once the last rank deposits, overlapping the
  /// callers' compute — this is what lets the sharded Evoformer overlap
  /// axis-transpose communication with attention compute (DESIGN.md §14).
  /// Pure data movement: result bits match the blocking all_to_all.
  AsyncHandle all_to_all_async(int rank, std::span<const float> send,
                               std::span<float> recv, int64_t tag = -1);

  /// Fail every pending and future collective — async *and* blocking —
  /// with `reason`, waking all waiters. Called by a rank that hit an
  /// error (or died) mid-step so its peers cannot hang on collectives the
  /// failed rank will never join: async waiters throw from wait(),
  /// blocking callers throw from inside their rendezvous barrier. This is
  /// the bounded-time failure-detection primitive the elastic resize
  /// protocol builds on.
  void abort(const std::string& reason);

  /// Clear the aborted state, all pending async collectives, and any
  /// half-formed blocking rendezvous, making the communicator usable
  /// again. Only call when no rank thread is inside a collective (e.g.
  /// after joining the step's threads).
  void recover();

  /// True while abort() is in effect.
  bool async_aborted() const;

  struct Stats {
    uint64_t collectives = 0;
    uint64_t bytes_gathered = 0;
    uint64_t bytes_reduced = 0;
    uint64_t bytes_exchanged = 0;
    uint64_t bytes_scattered = 0;
    uint64_t total_bytes() const {
      return bytes_gathered + bytes_reduced + bytes_exchanged +
             bytes_scattered;
    }
  };
  /// Aggregate over all ranks since construction.
  Stats stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  void reset_stats() {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = Stats{};
  }

 private:
  void barrier_locked(std::unique_lock<std::mutex>& lock);
  void comm_thread_main();
  void start_comm_thread_locked();

  const int n_;
  std::mutex mu_;
  std::condition_variable cv_;
  int arrived_ = 0;
  uint64_t generation_ = 0;
  bool sync_aborted_ = false;       ///< abort() observed by blocking path
  std::string sync_abort_reason_;

  // Staging pointers deposited by each rank before a collective.
  std::vector<const float*> send_ptr_;
  std::vector<float*> recv_ptr_;
  std::vector<size_t> count_;
  std::vector<float> reduce_buf_;

  // ---- async machinery (own lock: never contends with the sync path) ----
  mutable std::mutex async_mu_;
  std::condition_variable async_cv_;
  std::thread comm_thread_;
  bool shutdown_ = false;
  bool aborted_ = false;
  std::string abort_reason_;
  std::vector<uint64_t> next_seq_;             ///< per-rank launch counter
  std::map<uint64_t, std::shared_ptr<AsyncSlot>> slots_;  ///< keyed by seq

  // Counters are bumped from both the sync path (under mu_) and the
  // async path (under async_mu_), so they need their own leaf lock.
  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace sf::dap
