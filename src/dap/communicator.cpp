#include "dap/communicator.h"

#include <cstring>

#include "common/error.h"
#include "common/fault.h"
#include "obs/trace.h"

namespace sf::dap {

/// One in-flight async collective: per-rank buffers, arrival count, and a
/// state machine driven by the communicator thread.
struct Communicator::AsyncSlot {
  enum class State { kFilling, kReady, kReducing, kDone, kError };
  enum class Op { kReduce, kExchange };

  uint64_t seq = 0;
  int64_t tag = -1;
  Op op = Op::kReduce;
  size_t size = 0;
  std::vector<float*> bufs;  ///< per-rank in-place (reduce) / recv buffers
  std::vector<const float*> send_bufs;  ///< per-rank send buffers (exchange)
  int arrived = 0;
  State state = State::kFilling;
  std::string error;
};

Communicator::Communicator(int world_size) : n_(world_size) {
  SF_CHECK(world_size >= 1);
  send_ptr_.assign(n_, nullptr);
  recv_ptr_.assign(n_, nullptr);
  count_.assign(n_, 0);
  next_seq_.assign(n_, 0);
}

Communicator::~Communicator() {
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    shutdown_ = true;
  }
  async_cv_.notify_all();
  if (comm_thread_.joinable()) comm_thread_.join();
}

void Communicator::barrier_locked(std::unique_lock<std::mutex>& lock) {
  // A peer that died mid-step will never arrive; abort() wakes everyone
  // parked here so a single failed rank cannot hang the rendezvous.
  if (sync_aborted_) {
    throw Error("collective aborted: " + sync_abort_reason_);
  }
  uint64_t gen = generation_;
  if (++arrived_ == n_) {
    arrived_ = 0;
    ++generation_;
    cv_.notify_all();
  } else {
    cv_.wait(lock, [&] { return generation_ != gen || sync_aborted_; });
    if (generation_ == gen) {
      // Woken by abort, not by barrier completion: this rendezvous will
      // never finish. (If the barrier completed *and* an abort raced in,
      // let the rank through — it throws at its next barrier.)
      throw Error("collective aborted: " + sync_abort_reason_);
    }
  }
}

void Communicator::barrier(int rank) {
  SF_TRACE_SPAN_ID("dap", "barrier", rank);
  SF_CHECK(rank >= 0 && rank < n_);
  std::unique_lock<std::mutex> lock(mu_);
  barrier_locked(lock);
}

void Communicator::all_gather(int rank, std::span<const float> chunk,
                              std::span<float> out) {
  SF_TRACE_SPAN_ID("dap", "all_gather", rank);
  SF_CHECK(rank >= 0 && rank < n_);
  SF_FAULT_POINT("dap.all_gather", rank);
  SF_CHECK(out.size() == chunk.size() * static_cast<size_t>(n_))
      << "all_gather output must hold world_size chunks";
  std::unique_lock<std::mutex> lock(mu_);
  send_ptr_[rank] = chunk.data();
  count_[rank] = chunk.size();
  if (rank == 0) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.collectives;
    stats_.bytes_gathered += sizeof(float) * chunk.size() * (n_ - 1);
  }
  barrier_locked(lock);
  SF_CHECK(count_[0] == chunk.size()) << "all_gather chunk size mismatch";
  lock.unlock();
  for (int r = 0; r < n_; ++r) {
    std::memcpy(out.data() + static_cast<size_t>(r) * chunk.size(),
                send_ptr_[r], sizeof(float) * chunk.size());
  }
  lock.lock();
  barrier_locked(lock);  // keep every rank's chunk alive until all copied
}

void Communicator::all_reduce_sum(int rank, std::span<float> buf) {
  SF_TRACE_SPAN_ID("dap", "all_reduce", rank);
  SF_CHECK(rank >= 0 && rank < n_);
  SF_FAULT_POINT("dap.all_reduce", rank);
  std::unique_lock<std::mutex> lock(mu_);
  recv_ptr_[rank] = buf.data();
  count_[rank] = buf.size();
  if (rank == 0) {
    reduce_buf_.assign(buf.size(), 0.0f);
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.collectives;
    stats_.bytes_reduced +=
        2.0 * sizeof(float) * buf.size() * (n_ - 1) / n_;
  }
  barrier_locked(lock);
  SF_CHECK(count_[0] == buf.size()) << "all_reduce size mismatch";
  // Each rank reduces its slice across all ranks (rank order: exact
  // determinism regardless of thread scheduling).
  const size_t len = buf.size();
  const size_t begin = len * rank / n_;
  const size_t end = len * (rank + 1) / n_;
  lock.unlock();
  for (size_t i = begin; i < end; ++i) {
    float acc = 0.0f;
    for (int r = 0; r < n_; ++r) acc += recv_ptr_[r][i];
    reduce_buf_[i] = acc;
  }
  lock.lock();
  barrier_locked(lock);
  lock.unlock();
  std::memcpy(buf.data(), reduce_buf_.data(), sizeof(float) * len);
  lock.lock();
  barrier_locked(lock);
}

void Communicator::reduce_scatter_sum(int rank, std::span<const float> full,
                                      std::span<float> out) {
  SF_TRACE_SPAN_ID("dap", "reduce_scatter", rank);
  SF_CHECK(rank >= 0 && rank < n_);
  SF_FAULT_POINT("dap.reduce_scatter", rank);
  SF_CHECK(full.size() % n_ == 0);
  const size_t slice = full.size() / n_;
  SF_CHECK(out.size() == slice);
  std::unique_lock<std::mutex> lock(mu_);
  send_ptr_[rank] = full.data();
  count_[rank] = full.size();
  if (rank == 0) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.collectives;
    stats_.bytes_scattered += sizeof(float) * slice * (n_ - 1);
  }
  barrier_locked(lock);
  SF_CHECK(count_[0] == full.size()) << "reduce_scatter size mismatch";
  lock.unlock();
  // Each rank reduces its own slice across all ranks, rank order.
  const size_t begin = slice * rank;
  for (size_t i = 0; i < slice; ++i) {
    float acc = 0.0f;
    for (int r = 0; r < n_; ++r) acc += send_ptr_[r][begin + i];
    out[i] = acc;
  }
  lock.lock();
  barrier_locked(lock);
}

void Communicator::start_comm_thread_locked() {
  if (!comm_thread_.joinable()) {
    comm_thread_ = std::thread([this] { comm_thread_main(); });
  }
}

Communicator::AsyncHandle Communicator::all_reduce_sum_async(
    int rank, std::span<float> buf, int64_t tag) {
  SF_TRACE_SPAN_ID("dap", "all_reduce_async_launch", rank);
  SF_CHECK(rank >= 0 && rank < n_);
  if (n_ == 1) {
    // Identity reduction: already "done", no thread involved.
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.collectives;
    return AsyncHandle{};
  }
  std::unique_lock<std::mutex> lock(async_mu_);
  if (aborted_) {
    throw Error("async all-reduce launch after abort: " + abort_reason_);
  }
  start_comm_thread_locked();
  const uint64_t seq = next_seq_[rank]++;
  auto it = slots_.find(seq);
  std::shared_ptr<AsyncSlot> slot;
  if (it == slots_.end()) {
    slot = std::make_shared<AsyncSlot>();
    slot->seq = seq;
    slot->tag = tag;
    slot->size = buf.size();
    slot->bufs.assign(n_, nullptr);
    slots_.emplace(seq, slot);
  } else {
    slot = it->second;
  }
  if (slot->tag != tag || slot->size != buf.size() ||
      slot->op != AsyncSlot::Op::kReduce) {
    // Ranks diverged on launch order — a programming error that would
    // otherwise silently sum unrelated buffers. Poison the communicator.
    abort_reason_ = "async all-reduce mismatch at seq " +
                    std::to_string(seq) + ": tag/size/op diverged across ranks";
    aborted_ = true;
    async_cv_.notify_all();
    throw Error(abort_reason_);
  }
  SF_CHECK(slot->bufs[rank] == nullptr)
      << "rank" << rank << "launched seq" << seq << "twice";
  slot->bufs[rank] = buf.data();
  if (++slot->arrived == n_) {
    slot->state = AsyncSlot::State::kReady;
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.collectives;
      stats_.bytes_reduced +=
          2.0 * sizeof(float) * slot->size * (n_ - 1) / n_;
    }
    async_cv_.notify_all();
  }
  return AsyncHandle{this, std::move(slot)};
}

Communicator::AsyncHandle Communicator::all_to_all_async(
    int rank, std::span<const float> send, std::span<float> recv,
    int64_t tag) {
  SF_TRACE_SPAN_ID("dap", "all_to_all_async_launch", rank);
  SF_CHECK(rank >= 0 && rank < n_);
  SF_CHECK(send.size() == recv.size());
  SF_CHECK(send.size() % n_ == 0) << "all_to_all needs equal chunks";
  if (n_ == 1) {
    // Identity exchange: complete inline, no thread involved.
    std::memcpy(recv.data(), send.data(), sizeof(float) * send.size());
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.collectives;
    return AsyncHandle{};
  }
  std::unique_lock<std::mutex> lock(async_mu_);
  if (aborted_) {
    throw Error("async all-to-all launch after abort: " + abort_reason_);
  }
  start_comm_thread_locked();
  const uint64_t seq = next_seq_[rank]++;
  auto it = slots_.find(seq);
  std::shared_ptr<AsyncSlot> slot;
  if (it == slots_.end()) {
    slot = std::make_shared<AsyncSlot>();
    slot->seq = seq;
    slot->tag = tag;
    slot->op = AsyncSlot::Op::kExchange;
    slot->size = send.size();
    slot->bufs.assign(n_, nullptr);
    slot->send_bufs.assign(n_, nullptr);
    slots_.emplace(seq, slot);
  } else {
    slot = it->second;
  }
  if (slot->tag != tag || slot->size != send.size() ||
      slot->op != AsyncSlot::Op::kExchange) {
    abort_reason_ = "async all-to-all mismatch at seq " +
                    std::to_string(seq) + ": tag/size/op diverged across ranks";
    aborted_ = true;
    async_cv_.notify_all();
    throw Error(abort_reason_);
  }
  SF_CHECK(slot->bufs[rank] == nullptr)
      << "rank" << rank << "launched seq" << seq << "twice";
  slot->bufs[rank] = recv.data();
  slot->send_bufs[rank] = send.data();
  if (++slot->arrived == n_) {
    slot->state = AsyncSlot::State::kReady;
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      ++stats_.collectives;
      stats_.bytes_exchanged +=
          sizeof(float) * (send.size() / n_) * (n_ - 1);
    }
    async_cv_.notify_all();
  }
  return AsyncHandle{this, std::move(slot)};
}

void Communicator::AsyncHandle::wait() {
  if (comm_ == nullptr) return;  // world size 1 or default handle
  SF_TRACE_SPAN("dap", "all_reduce_async_wait");
  std::unique_lock<std::mutex> lock(comm_->async_mu_);
  comm_->async_cv_.wait(lock, [&] {
    // On abort/shutdown, still hold out a slot the comm thread is
    // actively copying (kReducing): returning earlier would let the
    // caller free buffers the copy is writing into. The transition out
    // of kReducing is bounded (pure memcpy/sum, no rendezvous).
    return slot_->state == AsyncSlot::State::kDone ||
           slot_->state == AsyncSlot::State::kError ||
           ((comm_->aborted_ || comm_->shutdown_) &&
            slot_->state != AsyncSlot::State::kReducing);
  });
  if (slot_->state == AsyncSlot::State::kError) {
    throw Error("async all-reduce failed: " + slot_->error);
  }
  if (slot_->state != AsyncSlot::State::kDone) {
    throw Error(comm_->aborted_
                    ? "async all-reduce aborted: " + comm_->abort_reason_
                    : "async all-reduce abandoned at shutdown");
  }
  // Completed: drop the table entry. Ranks that have not waited yet keep
  // the slot alive through their handle's shared_ptr; re-erasing is a
  // no-op. Sequence numbers only restart at recover(), which also
  // clears the table, so a stale erase can never hit a fresh slot.
  comm_->slots_.erase(slot_->seq);
}

void Communicator::abort(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    if (!aborted_) {
      aborted_ = true;
      abort_reason_ = reason;
    }
  }
  async_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!sync_aborted_) {
      sync_aborted_ = true;
      sync_abort_reason_ = reason;
    }
  }
  cv_.notify_all();
}

void Communicator::recover() {
  {
    std::lock_guard<std::mutex> lock(async_mu_);
    slots_.clear();
    std::fill(next_seq_.begin(), next_seq_.end(), 0);
    aborted_ = false;
    abort_reason_.clear();
  }
  async_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Ranks that threw out of a rendezvous left their arrival counted;
    // with every thread joined the count is garbage — reset it so the
    // next barrier starts clean. The generation counter keeps advancing
    // monotonically so no stale waiter can ever match a fresh barrier.
    arrived_ = 0;
    ++generation_;
    sync_aborted_ = false;
    sync_abort_reason_.clear();
  }
  cv_.notify_all();
}

bool Communicator::async_aborted() const {
  std::lock_guard<std::mutex> lock(async_mu_);
  return aborted_;
}

void Communicator::comm_thread_main() {
  std::vector<float> scratch;
  std::unique_lock<std::mutex> lock(async_mu_);
  for (;;) {
    async_cv_.wait(lock, [&] {
      if (shutdown_) return true;
      if (aborted_) return false;  // idle until recover()
      for (const auto& [seq, slot] : slots_) {
        if (slot->state == AsyncSlot::State::kReady) return true;
      }
      return false;
    });
    if (shutdown_) return;
    // Reduce ready slots in sequence order (std::map iterates ordered).
    std::shared_ptr<AsyncSlot> slot;
    for (const auto& [seq, s] : slots_) {
      if (s->state == AsyncSlot::State::kReady) {
        slot = s;
        break;
      }
    }
    if (!slot) continue;
    slot->state = AsyncSlot::State::kReducing;
    std::vector<float*> bufs = slot->bufs;
    std::vector<const float*> send_bufs = slot->send_bufs;
    const AsyncSlot::Op op = slot->op;
    const size_t len = slot->size;
    lock.unlock();
    try {
      if (op == AsyncSlot::Op::kExchange) {
        SF_TRACE_SPAN_ID("dap", "async_exchange", slot->tag);
        // Same wiring as the blocking all_to_all: recv[dst] chunk src =
        // send[src] chunk dst. Pure data movement — bitwise-free.
        const size_t chunk = len / n_;
        for (int dst = 0; dst < n_; ++dst) {
          for (int src = 0; src < n_; ++src) {
            std::memcpy(bufs[dst] + static_cast<size_t>(src) * chunk,
                        send_bufs[src] + static_cast<size_t>(dst) * chunk,
                        sizeof(float) * chunk);
          }
        }
      } else {
        SF_TRACE_SPAN_ID("dap", "async_reduce", slot->tag);
        SF_FAULT_POINT("dap.async_reduce", slot->tag);
        // Rank-ordered per-element sum — bit-identical to the blocking
        // all_reduce_sum regardless of launch/wait interleaving. Reduce
        // into scratch first: the outputs alias the inputs.
        scratch.resize(len);
        for (size_t i = 0; i < len; ++i) {
          float acc = 0.0f;
          for (int r = 0; r < n_; ++r) acc += bufs[r][i];
          scratch[i] = acc;
        }
        for (int r = 0; r < n_; ++r) {
          std::memcpy(bufs[r], scratch.data(), sizeof(float) * len);
        }
      }
      lock.lock();
      slot->state = AsyncSlot::State::kDone;
    } catch (const std::exception& e) {
      lock.lock();
      slot->state = AsyncSlot::State::kError;
      slot->error = e.what();
      if (!aborted_) {
        aborted_ = true;
        abort_reason_ = slot->error;
      }
    }
    async_cv_.notify_all();
  }
}

void Communicator::all_to_all(int rank, std::span<const float> send,
                              std::span<float> recv) {
  SF_TRACE_SPAN_ID("dap", "all_to_all", rank);
  SF_CHECK(rank >= 0 && rank < n_);
  SF_FAULT_POINT("dap.all_to_all", rank);
  SF_CHECK(send.size() == recv.size());
  SF_CHECK(send.size() % n_ == 0) << "all_to_all needs equal chunks";
  const size_t chunk = send.size() / n_;
  std::unique_lock<std::mutex> lock(mu_);
  send_ptr_[rank] = send.data();
  count_[rank] = send.size();
  if (rank == 0) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.collectives;
    stats_.bytes_exchanged += sizeof(float) * chunk * (n_ - 1);
  }
  barrier_locked(lock);
  SF_CHECK(count_[0] == send.size()) << "all_to_all size mismatch";
  lock.unlock();
  for (int r = 0; r < n_; ++r) {
    // Receive chunk destined for `rank` from rank r.
    std::memcpy(recv.data() + static_cast<size_t>(r) * chunk,
                send_ptr_[r] + static_cast<size_t>(rank) * chunk,
                sizeof(float) * chunk);
  }
  lock.lock();
  barrier_locked(lock);
}

}  // namespace sf::dap
