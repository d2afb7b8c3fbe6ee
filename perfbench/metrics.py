"""Arithmetic of the benchmark: percentiles, span self time, and the
end-to-end and per-layer metrics computed from one driver run.

Everything here is a pure function of the driver's raw JSON and (for
traced runs) its Chrome trace, so test_metrics.py can check it without a
build.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")

TRAINING = ("train", "dap4", "ddp4")

# Span categories that count as "covered" when computing the time a step
# spends outside any named kernel, communication or loader work.
COVER_CATEGORIES = ("kernel", "dap", "loader")

KERNEL_CLASSES = (
    ("gemm", lambda n: n.startswith("gemm") or n.startswith("qkv_gemm")),
    ("mha_fwd", lambda n: n.startswith("mha_fwd")),
    ("mha_bwd", lambda n: n.startswith("mha_bwd")),
    ("layernorm", lambda n: n.startswith("ln_")),
    ("softmax", lambda n: n.startswith("softmax")),
    ("optimizer", lambda n: n == "fused_adam_swa" or n.startswith("grad_norm")),
)


# ---- percentiles -----------------------------------------------------------

def tail_quantile(values, target=0.99):
    """The highest percentile up to `target` that has at least ten samples
    beyond it (nearest-rank), never below the median.

    Returns (value, quantile_used). With p99 this needs 1000 samples; a
    smaller sample reports the percentile it can support instead.
    """
    if not values:
        raise ValueError("tail_quantile of an empty sample")
    v = sorted(values)
    n = len(v)
    want = math.ceil(target * n - 1e-9) - 1         # nearest-rank index of target
    supported = n - 11                          # ten samples strictly beyond
    median_rank = n // 2                         # upper median for even n
    k = max(median_rank, min(want, supported))
    return v[k], (k + 1) / n


def median(values):
    return statistics.median(values)


# ---- spans -----------------------------------------------------------------

class Span:
    __slots__ = ("cat", "name", "tid", "ts", "dur", "end", "parent",
                 "child_dur", "covered")

    def __init__(self, cat, name, tid, ts, dur):
        self.cat, self.name, self.tid = cat, name, tid
        self.ts, self.dur, self.end = ts, dur, ts + dur
        self.parent = None
        self.child_dur = 0.0   # summed duration of direct children
        self.covered = 0.0     # time under outermost COVER_CATEGORIES spans

    @property
    def self_time(self):
        return self.dur - self.child_dur


def build_spans(events, eps=0.01):
    """Complete ('X') Chrome-trace events -> Span list with parents, child
    time and covered time filled in. Spans on one thread nest (they are
    RAII scopes), so a span's parent is the innermost earlier span on the
    same thread that still contains it. Timestamps are microseconds."""
    spans = [Span(e.get("cat", ""), e["name"], e["tid"], float(e["ts"]),
                  float(e["dur"]))
             for e in events if e.get("ph") == "X"]
    spans.sort(key=lambda s: (s.tid, s.ts, -s.dur))
    stack = []
    for s in spans:
        while stack and (stack[-1].tid != s.tid or stack[-1].end <= s.ts + eps):
            stack.pop()
        if stack and s.end <= stack[-1].end + eps:
            s.parent = stack[-1]
        stack.append(s)
    # Children sort after their parents, so a reverse sweep sees every
    # child finished before its parent.
    for s in reversed(spans):
        if s.cat in COVER_CATEGORIES:
            s.covered = s.dur
        if s.parent is not None:
            s.parent.child_dur += s.dur
            s.parent.covered += s.covered
    return spans


def uncovered(span):
    """Time inside `span` that no kernel, dap or loader span covers."""
    return span.dur - span.covered


# ---- end-to-end ------------------------------------------------------------

def _by_recycles(steps):
    groups = {}
    for s in steps:
        groups.setdefault(int(s["r"]), []).append(s["wall"])
    return groups


def mix_step_time(steps, recycle_counts):
    """Step time at the trainer's uniform recycling mix: the mean over
    recycling counts of the median step wall time at that count. Recycling
    counts are drawn at random per step, so a plain mean over one run would
    carry the run's draw; this stratified estimate does not."""
    groups = _by_recycles(steps)
    present = [r for r in recycle_counts if groups.get(r)]
    if not present:
        raise ValueError("no measured steps")
    return sum(median(groups[r]) for r in present) / len(present)


def mix_tail_time(steps, recycle_counts, target=0.99):
    groups = _by_recycles(steps)
    present = [r for r in recycle_counts if groups.get(r)]
    return sum(tail_quantile(groups[r], target)[0] for r in present) / len(present)


def open_loop(responses):
    return [r for r in responses if r["phase"] == 0]


def scheduled_latency(r):
    """Latency from the request's scheduled send time: generator lateness
    plus the service's own submit-to-response time."""
    return (r["sent"] - r["sched"]) + r["total"]


def end_to_end(workload, raw, limits):
    """Every end-to-end metric of one untraced run (values in metric units).

    `limits` holds the constants fixed in BENCHMARK.json's command:
    serve_rate (1/s), slo_ms and step_limit_ms."""
    p = raw["passes"][0]
    out = {
        "setup_s": median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }
    if workload in TRAINING:
        steps = p["steps"]
        t_mix = mix_step_time(steps, (1, 2))
        limit_s = limits["step_limit_ms"] / 1e3
        out["samples_per_s"] = p["samples_per_step"] / t_mix
        out["closed_rps"] = 1.0 / t_mix
        out["p50_ms"] = t_mix * 1e3
        out["p90_ms"] = mix_tail_time(steps, (1, 2), 0.9) * 1e3
        out["slo_met_frac"] = sum(
            1 for s in steps if not s["bad"] and s["wall"] <= limit_s) / len(steps)
    else:
        # The serving pass alternates open- and closed-loop rounds; each
        # round is one repeated measurement and a metric is their median,
        # so a burst of host contention in a round or two does not move it.
        opened = open_loop(p["responses"])
        limit_s = limits["slo_ms"] / 1e3
        rounds = {}
        for r in opened:
            rounds.setdefault(r["cycle"], []).append(r)
        lat = {c: [scheduled_latency(r) for r in rs if r["ok"]]
               for c, rs in rounds.items()}
        met = sum(1 for ls in lat.values() for x in ls if x <= limit_s)
        window_s = sum(max(r["sent"] + r["total"] for r in rs)
                       - min(r["sched"] for r in rs) for rs in rounds.values())
        out["samples_per_s"] = met / window_s
        out["closed_rps"] = median([c["done"] / c["s"] for c in p["closed_rounds"]])
        out["p50_ms"] = median([median(ls) for ls in lat.values()]) * 1e3
        out["p90_ms"] = median(
            [tail_quantile(ls, 0.9)[0] for ls in lat.values()]) * 1e3
        # p99 of ~1100 requests is set by single host stalls on a shared
        # VM, so it is kept as detail, not as a bounded metric.
        out["detail.p99_ms"] = tail_quantile(
            [x for ls in lat.values() for x in ls], 0.99)[0] * 1e3
        out["slo_met_frac"] = met / len(opened)
    return out


def closed_seconds_per_request(p):
    done = sum(c["done"] for c in p["closed_rounds"])
    return sum(c["s"] for c in p["closed_rounds"]) / done


def attempted_failed(workload, raw):
    attempted = failed = 0
    for p in raw["passes"]:
        if workload in TRAINING:
            attempted += len(p["steps"])
            failed += sum(1 for s in p["steps"] if s["bad"])
        else:
            attempted += len(p["responses"])
            failed += sum(1 for r in p["responses"] if not r["ok"])
    return attempted, failed


# ---- per layer -------------------------------------------------------------

def _delta(p, key):
    return p["after"].get(key, 0.0) - p["before"].get(key, 0.0)


def _ms_quantiles(seconds):
    if not seconds:
        return 0.0, 0.0
    return median(seconds) * 1e3, tail_quantile(seconds, 0.99)[0] * 1e3


def per_layer(workload, raw, spans, names):
    """Every per-layer metric of one traced run. raw["passes"] holds the
    untraced pass first and the traced pass second; `spans` come from the
    traced pass's Chrome trace. Metrics a workload does not exercise read 0.
    Times are per operation: per training step (per rank for ddp4) or per
    served request."""
    untraced, traced = raw["passes"]
    m = {n: 0.0 for n in names}
    training = workload in TRAINING
    world = traced.get("world", 1.0)

    if training:
        ops = len(traced["steps"])
        per_op = lambda total: total / ops / world  # noqa: E731
    else:
        ops = sum(1 for r in traced["responses"] if r["ok"])
        per_op = lambda total: total / ops  # noqa: E731

    def span_sum(cat, name):  # ms
        return sum(s.dur for s in spans if s.cat == cat and s.name == name) / 1e3

    kernels = [s for s in spans if s.cat == "kernel"]
    for label, match in KERNEL_CLASSES:
        hit = [s for s in kernels if match(s.name)]
        m["kernels.%s_ms" % label] = per_op(sum(s.self_time for s in hit) / 1e3)
        if label == "gemm":
            m["kernels.gemm_calls"] = per_op(len(hit))
        if label in ("mha_fwd", "mha_bwd"):
            m["kernels.mha_calls"] += per_op(len(hit))

    m["tensor.allocs_per_step"] = _delta(traced, "tensor.allocs") / ops
    m["tensor.alloc_mb_per_step"] = _delta(traced, "tensor.alloc_bytes") / 1e6 / ops
    m["graph.replays"] = _delta(traced, "graph.replays")
    m["graph.divergences"] = traced["after"].get("graph.divergences", 0.0)
    m["graph.arena_mb"] = traced["after"].get("graph.arena_bytes", 0.0) / 1e6
    m["dap.comm_bytes_per_step"] = _delta(traced, "comm.bytes") / ops
    m["dap.comm_collectives_per_step"] = _delta(traced, "comm.collectives") / ops

    if workload in ("train", "dap4"):
        steps_spans = [s for s in spans if s.cat == "train" and s.name == "step"]
        m["autograd.backward_ms"] = per_op(span_sum("train", "backward"))
        m["autograd.other_ms"] = per_op(sum(uncovered(s) for s in steps_spans) / 1e3)
        m["model.forward_ms"] = per_op(span_sum("train", "forward"))
        m["train.optimizer_ms"] = per_op(span_sum("train", "optimizer"))
        m["dap.stack_fwd_ms"] = per_op(span_sum("dap", "dap.sharded_stack"))
        span_s = _delta(traced, "dap.exchange_span_s")
        blocked_s = _delta(traced, "dap.blocked_wait_s")
        if span_s > 0:
            m["dap.transpose_overlap_frac"] = max(0.0, 1.0 - blocked_s / span_s)
        m["dap.transpose_blocked_ms"] = blocked_s * 1e3 / ops
        preps = [s.dur / 1e6 for s in spans if s.cat == "loader" and s.name == "prep"]
        m["data.prep_p50_ms"], m["data.prep_p99_ms"] = _ms_quantiles(preps)
        m["data.loader_wait_ms"] = statistics.fmean(
            s["wait"] for s in traced["steps"]) * 1e3
    elif workload == "ddp4":
        # Rank threads are created per step, so each rank track holds one
        # rank's share of one step. It starts with the benchmark's
        # ddp.train_step span on the caller thread.
        step_starts = sorted(s.ts for s in spans
                             if s.cat == "bench" and s.name == "ddp.train_step")
        tracks = {}
        for s in spans:
            tracks.setdefault(s.tid, []).append(s)
        forward = other = 0.0
        for track in tracks.values():
            back = [s for s in track if s.cat == "ddp" and s.name == "backward"]
            if not back:
                continue
            start = max((t for t in step_starts if t <= back[0].ts), default=None)
            if start is None:
                continue
            end = max(s.end for s in track)
            top_covered = sum(s.covered for s in track if s.parent is None)
            forward += back[0].ts - start
            other += (end - start) - top_covered
        m["model.forward_ms"] = per_op(forward / 1e3)
        m["autograd.other_ms"] = per_op(other / 1e3)
        m["autograd.backward_ms"] = per_op(span_sum("ddp", "backward"))
        m["train.optimizer_ms"] = m["kernels.optimizer_ms"]
        m["train.ddp_exposed_wait_ms"] = per_op(span_sum("dap", "all_reduce_async_wait"))
        m["train.ddp_buckets_per_step"] = traced["after"].get("ddp.buckets", 0.0)
        preps = [s.dur / 1e6 for s in spans
                 if s.cat == "bench" and s.name == "data.prepare_batch"]
        m["data.prep_p50_ms"], m["data.prep_p99_ms"] = _ms_quantiles(preps)
    else:
        m.update(serve_layers(traced, spans, ops))

    if training:
        for r in (1, 2):
            walls = [s["wall"] for s in untraced["steps"] if int(s["r"]) == r]
            m["train.step_ms_r%d" % r] = median(walls) * 1e3 if walls else 0.0
        m["obs.trace_overhead_frac"] = (
            mix_step_time(traced["steps"], (1, 2))
            / mix_step_time(untraced["steps"], (1, 2)) - 1.0)
    else:
        m["obs.trace_overhead_frac"] = (closed_seconds_per_request(traced)
                                        / closed_seconds_per_request(untraced) - 1.0)
    return m


def kernel_class(name):
    for label, match in KERNEL_CLASSES:
        if match(name):
            return label
    return "other"


def step_accounting(spans):
    """Where the traced training step's time goes, in ms per step: each
    outermost kernel, dap or loader span inside a train/step span, by
    class, plus the uncovered rest (autograd.other_ms). The parts add up to
    the step time by construction; the listed kernel classes' share is what
    the per-layer metrics explain."""
    steps = [s for s in spans if s.cat == "train" and s.name == "step"]
    if not steps:
        return None
    parts = {}
    for s in spans:
        if s.cat not in COVER_CATEGORIES:
            continue
        outermost, inside_step = True, False
        p = s.parent
        while p is not None:
            outermost = outermost and p.cat not in COVER_CATEGORIES
            inside_step = inside_step or (p.cat == "train" and p.name == "step")
            p = p.parent
        if outermost and inside_step:
            key = "kernel." + kernel_class(s.name) if s.cat == "kernel" else s.cat
            parts[key] = parts.get(key, 0.0) + s.dur
    n = len(steps)
    out = {k: v / n / 1e3 for k, v in sorted(parts.items())}
    out["uncovered"] = sum(uncovered(s) for s in steps) / n / 1e3
    out["step"] = sum(s.dur for s in steps) / n / 1e3
    return out


def serve_layers(traced, spans, ops):
    m = {}
    resp = traced["responses"]
    ok = [r for r in resp if r["ok"]]
    opened = open_loop(resp)
    forwards = [s for s in spans if s.cat == "serve" and s.name == "forward"]
    m["model.forward_ms"] = sum(s.dur for s in forwards) / 1e3 / ops
    m["autograd.other_ms"] = sum(uncovered(s) for s in forwards) / 1e3 / ops

    def q99(key, rows):
        vals = [r[key] for r in rows]
        return tail_quantile(vals, 0.99)[0] * 1e3 if vals else 0.0

    m["serve.queue_p99_ms"] = q99("queue", ok)
    m["serve.featurize_p50_ms"], m["serve.featurize_p99_ms"] = _ms_quantiles(
        [r["featurize"] for r in ok])
    m["serve.batch_wait_p99_ms"] = q99("batch_wait", ok)
    m["serve.forward_p50_ms"], m["serve.forward_p99_ms"] = _ms_quantiles(
        [r["forward"] for r in ok])
    batches = _delta(traced, "serve.batches")
    if batches > 0:
        m["serve.mean_batch_size"] = _delta(traced, "serve.dispatched") / batches
    hits, misses = _delta(traced, "serve.cache_hits"), _delta(traced, "serve.cache_misses")
    if hits + misses > 0:
        m["serve.cache_hit_frac"] = hits / (hits + misses)
    m["serve.dup_featurize"] = duplicate_featurizations(resp)
    padded = sum(r["bucket"] for r in ok)
    if padded > 0:
        m["serve.useful_residue_frac"] = sum(
            min(r["len"], r["bucket"]) for r in ok) / padded
    m["serve.rejects"] = _delta(traced, "serve.rejected")
    if opened:
        m["serve.gen_lag_p99_ms"] = tail_quantile(
            [r["sent"] - r["sched"] for r in opened], 0.99)[0] * 1e3
    misses_s = [r["featurize"] for r in ok if not r["hit"]]
    m["data.prep_p50_ms"], m["data.prep_p99_ms"] = _ms_quantiles(misses_s)
    return m


def duplicate_featurizations(responses):
    """Cache misses beyond the first miss of each key: work a single-flight
    feature cache would not have done."""
    misses = {}
    for r in responses:
        if r["ok"] and not r["hit"]:
            misses[r["key"]] = misses.get(r["key"], 0) + 1
    return sum(n - 1 for n in misses.values())
