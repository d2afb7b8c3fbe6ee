#include "dap/sharded_stack.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "autograd/blocked.h"
#include "autograd/ops.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "obs/trace.h"

namespace sf::dap {

using autograd::Var;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::pair<int64_t, int64_t> chunk_bounds(int64_t total, int64_t chunks,
                                         int64_t t) {
  const int64_t base = total / chunks;
  const int64_t rem = total % chunks;
  const int64_t begin = t * base + std::min(t, rem);
  return {begin, begin + base + (t < rem ? 1 : 0)};
}

/// Contiguous leading-axis slice [row0, row0+rows) as a fresh tensor.
Tensor slice_rows(const Tensor& full, int64_t row0, int64_t rows) {
  Shape s = full.shape();
  const int64_t inner = full.numel() / s[0];
  s[0] = rows;
  Tensor out(std::move(s));
  std::memcpy(out.data(), full.data() + row0 * inner,
              sizeof(float) * static_cast<size_t>(rows * inner));
  return out;
}

/// Equal-extent all-gather along the leading axis (divisible splits only).
Tensor all_gather_rows(Communicator& comm, int rank, const Tensor& local,
                       int64_t full_rows) {
  Shape s = local.shape();
  s[0] = full_rows;
  Tensor out(std::move(s));
  comm.all_gather(rank, local.span(), out.span());
  return out;
}

/// Row-wise dropout scaling: row r of `t` is multiplied by
/// row_vals[row0 + r]. Kept as its own pass (never fused with the residual
/// add) so the float op sequence matches the eager dropout_rows-then-add
/// exactly — a fused a + m*u could contract to an FMA and change bits.
void scale_rows_inplace(Tensor& t, const float* row_vals, int64_t row0) {
  const int64_t rows = t.shape()[0];
  const int64_t inner = t.numel() / rows;
  float* d = t.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float v = row_vals[row0 + r];
    for (int64_t i = 0; i < inner; ++i) d[r * inner + i] *= v;
  }
}

void add_inplace(Tensor& dst, const Tensor& src) {
  SF_CHECK(dst.numel() == src.numel()) << "dap residual add shape mismatch";
  float* d = dst.data();
  const float* s = src.data();
  for (int64_t i = 0; i < dst.numel(); ++i) d[i] += s[i];
}

/// One virtual shard's partial outer-product sum, replicating the loop of
/// autograd::outer_product_mean verbatim (same iteration order, same
/// per-element op sequence) over `rows` local MSA rows starting at row0.
/// `out` must be zero-initialized (R*R*u*v floats).
void opm_partial(const float* a, const float* b, int64_t row0, int64_t rows,
                 int64_t r, int64_t u, int64_t v, float inv_s, float* out) {
  for (int64_t ss = row0; ss < row0 + rows; ++ss) {
    for (int64_t i = 0; i < r; ++i) {
      const float* ai = a + (ss * r + i) * u;
      for (int64_t j = 0; j < r; ++j) {
        const float* bj = b + (ss * r + j) * v;
        float* oij = out + (i * r + j) * u * v;
        for (int64_t uu = 0; uu < u; ++uu) {
          const float av = ai[uu] * inv_s;
          for (int64_t vv = 0; vv < v; ++vv) oij[uu * v + vv] += av * bj[vv];
        }
      }
    }
  }
}

/// Local rows of triangle_multiply, same k-ascending accumulation as the
/// unsharded op. `a_local` holds rows [i_off, i_off+rows) for outgoing;
/// incoming reads both operands from the gathered full tensors.
void trimul_rows_outgoing(const float* a_local, const float* b_full,
                          int64_t rows, int64_t r, int64_t c, float* out) {
  for (int64_t il = 0; il < rows; ++il) {
    for (int64_t j = 0; j < r; ++j) {
      float* oij = out + (il * r + j) * c;
      for (int64_t k = 0; k < r; ++k) {
        const float* av = a_local + (il * r + k) * c;
        const float* bv = b_full + (j * r + k) * c;
        for (int64_t cc = 0; cc < c; ++cc) oij[cc] += av[cc] * bv[cc];
      }
    }
  }
}

void trimul_rows_incoming(const float* a_full, const float* b_full,
                          int64_t i_off, int64_t rows, int64_t r, int64_t c,
                          float* out) {
  for (int64_t il = 0; il < rows; ++il) {
    const int64_t i = i_off + il;
    for (int64_t j = 0; j < r; ++j) {
      float* oij = out + (il * r + j) * c;
      for (int64_t k = 0; k < r; ++k) {
        const float* av = a_full + (k * r + i) * c;
        const float* bv = b_full + (k * r + j) * c;
        for (int64_t cc = 0; cc < c; ++cc) oij[cc] += av[cc] * bv[cc];
      }
    }
  }
}

}  // namespace

// ---- AsyncTransposer ------------------------------------------------------

AsyncTransposer::AsyncTransposer(Communicator& comm, int rank, int64_t full_a,
                                 int64_t full_b, int64_t c,
                                 int64_t num_chunks, int64_t tag_base)
    : comm_(comm),
      rank_(rank),
      n_(comm.world_size()),
      a_(full_a),
      b_(full_b),
      c_(c),
      la_(full_a / n_),
      lb_(full_b / n_),
      chunks_(std::clamp<int64_t>(num_chunks, 1, std::max<int64_t>(lb_, 1))),
      tag_base_(tag_base) {
  SF_CHECK(a_ % n_ == 0 && b_ % n_ == 0)
      << "AsyncTransposer needs divisible axes:" << a_ << "x" << b_
      << "across" << n_ << "ranks";
  send_.resize(chunks_);
  recv_.resize(chunks_);
  back_send_.resize(chunks_);
  back_recv_.resize(chunks_);
  fwd_handles_.resize(chunks_);
  back_handles_.resize(chunks_);
  launch_ts_.assign(chunks_, 0.0);
  back_launch_ts_.assign(chunks_, 0.0);
}

AsyncTransposer::~AsyncTransposer() {
  // Normal completion leaves every handle already waited (a second wait
  // is a cheap no-op). On an exception unwind some exchanges are still
  // outstanding; block until the comm thread is provably done with our
  // buffers before they are freed. Abort guarantees these waits are
  // bounded; any error they surface was already reported by the throw
  // that started the unwind.
  for (auto& h : fwd_handles_) {
    try {
      h.wait();
    } catch (...) {
    }
  }
  for (auto& h : back_handles_) {
    try {
      h.wait();
    } catch (...) {
    }
  }
}

void AsyncTransposer::launch(const Tensor& shard) {
  SF_CHECK(shard.numel() == la_ * b_ * c_) << "transpose shard size";
  const float* sd = shard.data();
  for (int64_t t = 0; t < chunks_; ++t) {
    auto [t0, t1] = chunk_bounds(lb_, chunks_, t);
    const int64_t cbt = t1 - t0;
    send_[t] = Tensor({n_ * cbt * la_ * c_});
    recv_[t] = Tensor({n_ * cbt * la_ * c_});
    float* pk = send_[t].data();
    // Chunk for dst rank j carries j's B-columns of our A-rows, laid out
    // [jj][a][c] so the receiver can splice contiguous [a][c] runs.
    for (int64_t j = 0; j < n_; ++j) {
      for (int64_t jj = 0; jj < cbt; ++jj) {
        const int64_t gcol = j * lb_ + t0 + jj;
        for (int64_t aa = 0; aa < la_; ++aa) {
          std::memcpy(pk + ((j * cbt + jj) * la_ + aa) * c_,
                      sd + (aa * b_ + gcol) * c_,
                      sizeof(float) * static_cast<size_t>(c_));
        }
      }
    }
    SF_FAULT_POINT("dap.transpose_launch", rank_);
    launch_ts_[t] = now_s();
    fwd_handles_[t] = comm_.all_to_all_async(rank_, send_[t].span(),
                                             recv_[t].span(), tag_base_ + t);
    ++exchanges_;
  }
}

Tensor AsyncTransposer::wait_chunk(int64_t t) {
  SF_FAULT_POINT("dap.transpose_wait", rank_);
  const double w0 = now_s();
  fwd_handles_[t].wait();
  const double w1 = now_s();
  blocked_s_ += w1 - w0;
  span_s_ += w1 - launch_ts_[t];
  auto [t0, t1] = chunk_bounds(lb_, chunks_, t);
  const int64_t cbt = t1 - t0;
  Tensor out({cbt, a_, c_});
  const float* rd = recv_[t].data();
  for (int64_t r = 0; r < n_; ++r) {
    for (int64_t jj = 0; jj < cbt; ++jj) {
      std::memcpy(out.data() + (jj * a_ + r * la_) * c_,
                  rd + ((r * cbt + jj) * la_) * c_,
                  sizeof(float) * static_cast<size_t>(la_ * c_));
    }
  }
  return out;
}

void AsyncTransposer::launch_back(int64_t t, const Tensor& chunk) {
  auto [t0, t1] = chunk_bounds(lb_, chunks_, t);
  const int64_t cbt = t1 - t0;
  SF_CHECK(chunk.numel() == cbt * a_ * c_) << "transpose back-chunk size";
  back_send_[t] = Tensor({n_ * cbt * la_ * c_});
  back_recv_[t] = Tensor({n_ * cbt * la_ * c_});
  float* pk = back_send_[t].data();
  const float* cd = chunk.data();
  for (int64_t j = 0; j < n_; ++j) {
    for (int64_t jj = 0; jj < cbt; ++jj) {
      std::memcpy(pk + ((j * cbt + jj) * la_) * c_,
                  cd + (jj * a_ + j * la_) * c_,
                  sizeof(float) * static_cast<size_t>(la_ * c_));
    }
  }
  SF_FAULT_POINT("dap.transpose_launch", rank_);
  back_launch_ts_[t] = now_s();
  back_handles_[t] = comm_.all_to_all_async(
      rank_, back_send_[t].span(), back_recv_[t].span(),
      tag_base_ + kBackTagOffset + t);
  ++exchanges_;
}

void AsyncTransposer::collect_back(Tensor& out) {
  SF_CHECK(out.numel() == la_ * b_ * c_) << "transpose output size";
  for (int64_t t = 0; t < chunks_; ++t) {
    SF_FAULT_POINT("dap.transpose_wait", rank_);
    const double w0 = now_s();
    back_handles_[t].wait();
    const double w1 = now_s();
    blocked_s_ += w1 - w0;
    span_s_ += w1 - back_launch_ts_[t];
    auto [t0, t1] = chunk_bounds(lb_, chunks_, t);
    const int64_t cbt = t1 - t0;
    const float* rd = back_recv_[t].data();
    for (int64_t r = 0; r < n_; ++r) {
      for (int64_t jj = 0; jj < cbt; ++jj) {
        const int64_t gcol = r * lb_ + t0 + jj;
        for (int64_t aa = 0; aa < la_; ++aa) {
          std::memcpy(out.data() + (aa * b_ + gcol) * c_,
                      rd + ((r * cbt + jj) * la_ + aa) * c_,
                      sizeof(float) * static_cast<size_t>(c_));
        }
      }
    }
  }
}

// ---- ShardedEvoformer -----------------------------------------------------

struct ShardedEvoformer::RankScratch {
  double blocked_s = 0.0;
  double span_s = 0.0;
  int64_t exchanges = 0;
  std::exception_ptr error;
  bool abort_echo = false;  ///< secondary "communicator aborted" failure
};

ShardedEvoformer::ShardedEvoformer(const model::MiniAlphaFold& net,
                                   int world_size)
    : net_(net),
      blocks_(&net.evoformer_blocks()),
      world_(world_size),
      comm_(world_size) {
  SF_CHECK(world_size == 1 || world_size == 2 || world_size == 4)
      << "dap_world must be 1, 2, or 4; got" << world_size;
}

void ShardedEvoformer::set_capture(bool on) {
  capture_ = on;
  rank_planners_.clear();
  if (on) {
    for (int r = 0; r < world_; ++r) {
      rank_planners_.push_back(std::make_unique<graph::StepPlanner>());
    }
  }
}

ShardedEvoformer::StackStats ShardedEvoformer::stats() const {
  StackStats s = stats_;
  for (const auto& p : rank_planners_) {
    const auto ps = p->stats();
    s.capture.captures += ps.captures;
    s.capture.replays += ps.replays;
    s.capture.clean_replays += ps.clean_replays;
    s.capture.divergences += ps.divergences;
    s.capture.arena_bytes += ps.arena_bytes;
    s.capture.eager_peak_bytes += ps.eager_peak_bytes;
    s.capture.planned_buffers += ps.planned_buffers;
    s.capture.escaping_buffers += ps.escaping_buffers;
  }
  return s;
}

void ShardedEvoformer::reset_stats() {
  stats_ = StackStats{};
  comm_.reset_stats();
}

std::pair<Var, Var> ShardedEvoformer::run(const Var& msa, const Var& pair,
                                          const Tensor& residue_mask,
                                          Rng* dropout_rng, float msa_dropout,
                                          float pair_dropout) {
  const int64_t s = msa.shape()[0];
  const int64_t r = msa.shape()[1];
  const bool use_dropout = dropout_rng != nullptr;
  const Rng snapshot = use_dropout ? *dropout_rng : Rng(0);
  const Tensor mask_copy =
      residue_mask.defined() ? residue_mask.clone() : Tensor();
  const float md = msa_dropout, pd = pair_dropout;

  std::pair<Var, Var> result;
  if (!autograd::grad_enabled()) {
    auto [m, p] = forward_sharded(msa.value(), pair.value(), mask_copy,
                                  use_dropout ? &snapshot : nullptr, md, pd);
    result = {Var(std::move(m), false), Var(std::move(p), false)};
  } else {
    // Mode-switching checkpoint body: checkpoint_multi invokes it once
    // under NoGradGuard (the cheap forward -> the multi-rank sharded
    // path) and once with gradients enabled during backward (the
    // recompute -> the ordinary eager stack, which is the repo's
    // existing bitwise-equal checkpointed backward).
    auto fn = [this, mask_copy, snapshot, use_dropout, md,
               pd](const std::vector<Var>& in) {
      if (!autograd::grad_enabled()) {
        auto [m, p] =
            forward_sharded(in[0].value(), in[1].value(), mask_copy,
                            use_dropout ? &snapshot : nullptr, md, pd);
        return std::vector<Var>{Var(std::move(m), false),
                                Var(std::move(p), false)};
      }
      Rng local = snapshot;  // identical dropout draws on every replay
      const Tensor* mask_ptr = mask_copy.defined() ? &mask_copy : nullptr;
      model::EvoformerBlock::State st{in[0], in[1]};
      for (const auto& block : *blocks_) {
        st = block(st, mask_ptr, use_dropout ? &local : nullptr, md, pd);
      }
      return std::vector<Var>{st.msa, st.pair};
    };
    auto outs = autograd::checkpoint_multi(fn, {msa, pair});
    result = {outs[0], outs[1]};
  }

  if (use_dropout) {
    // Advance the live stream by exactly the draws the eager stack
    // consumes (see the checkpointing branch of MiniAlphaFold::run_trunk).
    for (size_t b = 0; b < blocks_->size(); ++b) {
      if (md > 0.0f) {
        for (int64_t i = 0; i < s; ++i) (void)dropout_rng->bernoulli(md);
      }
      if (pd > 0.0f) {
        for (int64_t k = 0; k < 4 * r; ++k) (void)dropout_rng->bernoulli(pd);
      }
    }
  }
  return result;
}

std::pair<Tensor, Tensor> ShardedEvoformer::forward_sharded(
    const Tensor& msa_in, const Tensor& pair_in, const Tensor& residue_mask,
    const Rng* rng_snapshot, float msa_dropout, float pair_dropout) {
  SF_CHECK(msa_in.rank() == 3 && pair_in.rank() == 3) << "dap stack shapes";
  const int64_t s = msa_in.shape()[0];
  const int64_t r = msa_in.shape()[1];
  SF_CHECK(pair_in.shape()[0] == r && pair_in.shape()[1] == r)
      << "pair rep must be [R,R,c_z]";
  SF_CHECK(s % autograd::kVirtualShards == 0)
      << "dap stack needs S divisible by" << autograd::kVirtualShards
      << "(got" << s << ") for virtual-shard-exact reductions";
  SF_CHECK(r % world_ == 0)
      << "dap stack needs R divisible by world size:" << r << "%" << world_;

  // Additive row-attention mask, built once like EvoformerBlock does.
  Tensor add_mask;
  if (residue_mask.defined() && residue_mask.numel() > 0) {
    SF_CHECK(residue_mask.numel() == r) << "residue mask length";
    add_mask = Tensor({s, r});
    for (int64_t i = 0; i < s; ++i) {
      for (int64_t j = 0; j < r; ++j) {
        add_mask.at(i * r + j) = residue_mask.at(j) > 0.5f ? 0.0f : -1e9f;
      }
    }
  }

  // Pre-draw the per-row dropout values in the exact eager order (per
  // block: S row-attention rows, then R rows for each of the four dropped
  // pair updates); ranks scale their row slices with these shared values.
  std::vector<std::vector<float>> msa_masks, pair_masks;
  if (rng_snapshot) {
    Rng rng = *rng_snapshot;
    for (size_t b = 0; b < blocks_->size(); ++b) {
      std::vector<float> mv, pv;
      if (msa_dropout > 0.0f) {
        const float keep = 1.0f / (1.0f - msa_dropout);
        mv.resize(s);
        for (int64_t i = 0; i < s; ++i) {
          mv[i] = rng.bernoulli(msa_dropout) ? 0.0f : keep;
        }
      }
      if (pair_dropout > 0.0f) {
        const float keep = 1.0f / (1.0f - pair_dropout);
        pv.resize(4 * r);
        for (int64_t k = 0; k < 4 * r; ++k) {
          pv[k] = rng.bernoulli(pair_dropout) ? 0.0f : keep;
        }
      }
      msa_masks.push_back(std::move(mv));
      pair_masks.push_back(std::move(pv));
    }
  }

  Tensor msa_out(msa_in.shape());
  Tensor pair_out(pair_in.shape());
  std::vector<RankScratch> scratch(world_);
  {
    SF_TRACE_SPAN("dap", "dap.sharded_stack");
    // Each rank computes its shard with an equal share of the intra-op
    // threads (the ranks themselves are the rest of the parallelism).
    // Kernel results per row are independent of the thread count, so the
    // share changes scheduling, never bits.
    const int budget = IntraOpBudget::rank_share(world_);
    std::vector<std::thread> threads;
    threads.reserve(world_);
    for (int rank = 0; rank < world_; ++rank) {
      threads.emplace_back([&, rank] {
        IntraOpBudget share(budget);
        auto body = [&] {
          rank_body(rank, msa_in, pair_in, add_mask, msa_masks, pair_masks,
                    msa_out, pair_out, scratch[rank]);
        };
        try {
          if (capture_) {
            rank_planners_[rank]->run(body);
          } else {
            body();
          }
        } catch (const fault::InjectedFault& e) {
          // An injected failure is a root cause by construction, even
          // though its message may be quoted inside later abort echoes.
          scratch[rank].error = std::current_exception();
          comm_.abort("dap rank " + std::to_string(rank) +
                      " failed: " + e.what());
        } catch (const std::exception& e) {
          scratch[rank].error = std::current_exception();
          // If the communicator was already aborted when this rank
          // failed, the failure is fallout from being flushed out of a
          // collective (or from launching into a dead communicator),
          // not the original fault.
          scratch[rank].abort_echo = comm_.async_aborted();
          comm_.abort("dap rank " + std::to_string(rank) +
                      " failed: " + e.what());
        } catch (...) {
          scratch[rank].error = std::current_exception();
          comm_.abort("dap rank " + std::to_string(rank) + " failed");
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  // Prefer the root cause over the "communicator aborted" echoes the
  // surviving ranks throw while being flushed out of their collectives.
  std::exception_ptr first, root_cause;
  for (const auto& sc : scratch) {
    if (!sc.error) continue;
    if (!first) first = sc.error;
    if (!root_cause && !sc.abort_echo) root_cause = sc.error;
  }
  if (root_cause) std::rethrow_exception(root_cause);
  if (first) std::rethrow_exception(first);

  ++stats_.runs;
  for (const auto& sc : scratch) {
    stats_.async_exchanges += sc.exchanges;
    stats_.exchange_span_s += sc.span_s;
    stats_.blocked_wait_s += sc.blocked_s;
  }
  return {std::move(msa_out), std::move(pair_out)};
}

void ShardedEvoformer::rank_body(
    int rank, const Tensor& msa_in, const Tensor& pair_in,
    const Tensor& add_mask,
    const std::vector<std::vector<float>>& msa_masks,
    const std::vector<std::vector<float>>& pair_masks, Tensor& msa_out,
    Tensor& pair_out, RankScratch& scratch) {
  const int64_t s = msa_in.shape()[0];
  const int64_t r = msa_in.shape()[1];
  const int64_t c_m = msa_in.shape()[2];
  const int64_t c_z = pair_in.shape()[2];
  const int64_t ls = s / world_, lr = r / world_;
  const int64_t s_off = rank * ls, r_off = rank * lr;

  autograd::NoGradGuard no_grad;
  SF_TRACE_SPAN_ID("dap", "dap.stack_forward", rank);

  Tensor msa_loc = slice_rows(msa_in, s_off, ls);
  Tensor pair_loc = slice_rows(pair_in, r_off, lr);
  Tensor mask_loc;
  if (add_mask.defined()) mask_loc = slice_rows(add_mask, s_off, ls);
  const Tensor* mask_ptr = mask_loc.defined() ? &mask_loc : nullptr;

  int64_t bi = 0;
  for (const auto& block : *blocks_) {
    const float* mvals =
        (!msa_masks.empty() && !msa_masks[bi].empty()) ? msa_masks[bi].data()
                                                       : nullptr;
    const float* pvals =
        (!pair_masks.empty() && !pair_masks[bi].empty())
            ? pair_masks[bi].data()
            : nullptr;
    const int64_t tag0 = bi * 1000;

    {  // MSA row attention with pair bias (gather the projected bias only).
      Var z = block.row_attn.ln_pair(Var(pair_loc));
      Var y = block.row_attn.bias_proj(z);  // [lr, R, H]
      Tensor yfull = all_gather_rows(comm_, rank, y.value(), r);
      Var bias = autograd::permute3(Var(yfull), {2, 0, 1});  // [H, R, R]
      Var m = block.row_attn.ln_msa(Var(msa_loc));
      Var upd = block.row_attn.attn(m, &bias, mask_ptr);
      Tensor u = upd.value();
      if (mvals) scale_rows_inplace(u, mvals, s_off);
      add_inplace(msa_loc, u);
    }

    {  // MSA column attention: chunked async transpose S-shard <-> R-shard,
       // attention on chunk t overlapping the exchange of chunk t+1.
      Var m = block.col_attn.ln(Var(msa_loc));  // [ls, R, c_m]
      AsyncTransposer tx(comm_, rank, s, r, c_m, /*num_chunks=*/4,
                         tag0 + 100);
      tx.launch(m.value());
      Tensor upd({ls, r, c_m});
      for (int64_t t = 0; t < tx.num_chunks(); ++t) {
        Tensor cols = tx.wait_chunk(t);  // [cb_t, S, c_m]
        Var out = block.col_attn.attn(Var(cols), nullptr, nullptr);
        tx.launch_back(t, out.value());
      }
      tx.collect_back(upd);
      add_inplace(msa_loc, upd);
      scratch.blocked_s += tx.blocked_seconds();
      scratch.span_s += tx.span_seconds();
      scratch.exchanges += tx.exchanges();
    }

    {  // MSA transition (purely row-local).
      Var u = block.msa_transition(Var(msa_loc));
      add_inplace(msa_loc, u.value());
    }

    {  // Outer product mean: exchange partial sums at *virtual shard*
       // granularity and combine in ascending order — the identical
       // summation tree the unsharded blocked reduction builds.
      Var m = block.opm.ln(Var(msa_loc));
      Var a = block.opm.a_proj(m);  // [ls, R, u]
      Var b = block.opm.b_proj(m);  // [ls, R, v]
      const int64_t u_dim = a.shape()[2], v_dim = b.shape()[2];
      const int64_t uv = u_dim * v_dim;
      const int64_t nv = autograd::kVirtualShards;
      const int64_t vs = s / nv, nvloc = nv / world_;
      const float inv_s = 1.0f / static_cast<float>(s);
      Tensor parts({nvloc, r * r * uv});
      for (int64_t k = 0; k < nvloc; ++k) {
        opm_partial(a.value().data(), b.value().data(), k * vs, vs, r, u_dim,
                    v_dim, inv_s, parts.data() + k * r * r * uv);
      }
      Tensor gathered({nv, r * r * uv});
      comm_.all_gather(rank, parts.span(), gathered.span());
      Tensor op_rows({lr, r, uv});
      const int64_t slice = lr * r * uv;
      std::memcpy(op_rows.data(), gathered.data() + r_off * r * uv,
                  sizeof(float) * static_cast<size_t>(slice));
      for (int64_t g = 1; g < nv; ++g) {
        const float* src = gathered.data() + g * r * r * uv + r_off * r * uv;
        float* dst = op_rows.data();
        for (int64_t i = 0; i < slice; ++i) dst[i] += src[i];
      }
      Var out = block.opm.out_proj(Var(op_rows));  // [lr, R, c_z]
      add_inplace(pair_loc, out.value());
    }

    // Triangle multiplicative updates (outgoing: leg 0; incoming: leg 1).
    for (int leg = 0; leg < 2; ++leg) {
      const auto& tm = leg == 0 ? block.tri_mul_out : block.tri_mul_in;
      Var x = tm.ln_in(Var(pair_loc));
      Var a = autograd::glu(tm.a_proj(x), tm.a_gate(x));  // [lr, R, c_z]
      Var b = autograd::glu(tm.b_proj(x), tm.b_gate(x));
      Tensor t_loc({lr, r, c_z});
      if (tm.outgoing) {
        Tensor bfull = all_gather_rows(comm_, rank, b.value(), r);
        trimul_rows_outgoing(a.value().data(), bfull.data(), lr, r, c_z,
                             t_loc.data());
      } else {
        Tensor afull = all_gather_rows(comm_, rank, a.value(), r);
        Tensor bfull = all_gather_rows(comm_, rank, b.value(), r);
        trimul_rows_incoming(afull.data(), bfull.data(), r_off, lr, r, c_z,
                             t_loc.data());
      }
      Var t = tm.ln_out(Var(t_loc));
      Var u = autograd::glu(tm.out_proj(t), tm.out_gate(x));
      Tensor uu = u.value();
      if (pvals) scale_rows_inplace(uu, pvals + leg * r, r_off);
      add_inplace(pair_loc, uu);
    }

    {  // Triangle attention, starting node (bias gather, row-local attn).
      Var x = block.tri_attn_start.ln(Var(pair_loc));
      Var y = block.tri_attn_start.bias_proj(x);  // [lr, R, H]
      Tensor yfull = all_gather_rows(comm_, rank, y.value(), r);
      Var bias = autograd::permute3(Var(yfull), {2, 0, 1});
      Var out = block.tri_attn_start.attn(x, &bias, nullptr);
      Tensor u = out.value();
      if (pvals) scale_rows_inplace(u, pvals + 2 * r, r_off);
      add_inplace(pair_loc, u);
    }

    {  // Triangle attention, ending node: the bias is projected from the
       // *untransposed* local rows and rearranged after the gather
       // (bias_t[h][p][q] = proj(x[q][p])[h]), so the bias build overlaps
       // the chunked transpose exchange of the activations.
      Var x = block.tri_attn_end.ln(Var(pair_loc));  // [lr, R, c_z]
      Var y = block.tri_attn_end.bias_proj(x);       // [lr, R, H]
      AsyncTransposer tx(comm_, rank, r, r, c_z, /*num_chunks=*/4,
                         tag0 + 300);
      tx.launch(x.value());
      Tensor yfull = all_gather_rows(comm_, rank, y.value(), r);
      Var bias = autograd::permute3(Var(yfull), {2, 1, 0});  // [H, R, R]
      Tensor upd({lr, r, c_z});
      for (int64_t t = 0; t < tx.num_chunks(); ++t) {
        Tensor cols = tx.wait_chunk(t);  // [cb_t, R, c_z]
        Var out = block.tri_attn_end.attn(Var(cols), &bias, nullptr);
        tx.launch_back(t, out.value());
      }
      tx.collect_back(upd);
      if (pvals) scale_rows_inplace(upd, pvals + 3 * r, r_off);
      add_inplace(pair_loc, upd);
      scratch.blocked_s += tx.blocked_seconds();
      scratch.span_s += tx.span_seconds();
      scratch.exchanges += tx.exchanges();
    }

    {  // Pair transition (row-local).
      Var u = block.pair_transition(Var(pair_loc));
      add_inplace(pair_loc, u.value());
    }
    ++bi;
  }

  // Disjoint row ranges: every rank writes only its own output slice.
  std::memcpy(msa_out.data() + s_off * r * c_m, msa_loc.data(),
              sizeof(float) * static_cast<size_t>(ls * r * c_m));
  std::memcpy(pair_out.data() + r_off * r * c_z, pair_loc.data(),
              sizeof(float) * static_cast<size_t>(lr * r * c_z));
}

}  // namespace sf::dap
