#!/usr/bin/env python3
"""Wall-clock DDP training benchmark for ddpkit.

Builds ddpkit, ddp_launch and the benchmark worker from the checkout this
file sits in (CMake, into .bench_build/ at the checkout root), trains one
workload with one OS process per rank over ProcessGroupTcp, checks the
result, and prints every metric by name and unit. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the checkout root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn

--trace 0 reports the end-to-end metrics (tracing off). --trace 1 runs the
traced variant: spans around every layer call, an untraced twin launch for
the tracing overhead, a single-worker baseline and the kernel phase, and
reports the per-layer metrics. NOTES.md explains the workloads and metrics.
Exit status is non-zero when the build, a launch or a correctness check
fails.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
WORKER = BUILD_DIR / "perfbench_worker"
LAUNCH = BUILD_DIR / "ddp_launch"
WORKLOADS = ["resnet-compute", "mlp-comm", "transformer-accum"]

# Set-up takes milliseconds (process spawn, TCP mesh, Store round-trips) and
# at that scale follows the host's wake-up latency, which drifts over seconds.
# So each untraced run repeats set-up-only launches for SETUP_SHARE of
# --seconds, half right before and half right after the training launch (at
# least SETUP_MIN_LAUNCHES in each half), so two host phases half a minute
# apart are sampled, and reports the median. A set-up-only launch costs
# 6-150 ms.
SETUP_SHARE = 0.15
SETUP_MIN_LAUNCHES = 10
LAUNCH_TIMEOUT_S = 150
# The gated timings are the fast quartile of their distributions: the host's
# slow phases (other tenants) stretch every step they overlap, and how much
# of a run they cover differs from run to run, so a median or a whole-run
# mean shifts with them; a lower percentile than the quartile flips with the
# host's short fast bursts instead (NOTES.md, Steadiness). Throughput is
# taken over windows of consecutive steps lasting about WINDOW_S.
WINDOW_S = 1.0


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark's CMake package."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no ddpkit sources at {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("cmake build failed")


def run_checked(cmd, env, timeout):
    """Runs `cmd` in its own session; on timeout kills the whole session
    (the launcher and every rank) and waits for it."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout}s: {' '.join(cmd)}")
    return proc.returncode, out


def describe(workload):
    code, out = run_checked([str(WORKER), "--mode=describe",
                             f"--workload={workload}"], None, 30)
    if code != 0:
        raise BenchError(f"unknown workload {workload}: {out.strip()}")
    fields = dict(kv.split("=") for kv in out.split())
    return int(fields["world"]), int(fields["threads"])


class Runner:
    """Launches the worker for one workload and collects its result files."""

    def __init__(self, workload, seed, scratch):
        self.workload = workload
        self.seed = seed
        self.world, self.threads = describe(workload)
        self.env = dict(os.environ, DDPKIT_NUM_THREADS=str(self.threads))
        self.scratch = scratch
        self.launches = 0

    def _out_dir(self):
        self.launches += 1
        out = self.scratch / f"launch{self.launches}"
        out.mkdir(parents=True)
        return out

    def _worker_args(self, mode, seconds, trace, out):
        return [str(WORKER), f"--mode={mode}", f"--workload={self.workload}",
                f"--seed={self.seed}", f"--seconds={seconds:.3f}",
                f"--trace={int(trace)}", f"--out={out}"]

    def ddp(self, mode, seconds=1.0, trace=False):
        """One ddp_launch of `world` ranks. Returns (ranks, setup_s, ok)."""
        out = self._out_dir()
        cmd = [str(LAUNCH), f"--nproc={self.world}",
               f"--timeout-sec={LAUNCH_TIMEOUT_S}", "--"]
        start = time.monotonic()
        code, text = run_checked(
            cmd + self._worker_args(mode, seconds, trace, out), self.env,
            LAUNCH_TIMEOUT_S + 15)
        ranks = []
        for r in range(self.world):
            path = out / f"rank{r}.json"
            if not path.is_file():
                raise BenchError(f"{mode} launch left no {path.name}:\n{text}")
            rank = json.loads(path.read_text())
            if trace:
                rank["trace"] = json.loads(
                    (out / f"trace_rank{r}.json").read_text())
            ranks.append(rank)
        if code != 0:
            log(f"{mode} launch exited {code}:\n{text}")
        setup_s = max(r["ready_s"] for r in ranks) - start
        return ranks, setup_s, code == 0

    def local(self, mode, seconds):
        """The single-worker baseline or the kernel phase, one process."""
        out = self._out_dir()
        code, text = run_checked(self._worker_args(mode, seconds, False, out),
                                 self.env, LAUNCH_TIMEOUT_S)
        if code != 0:
            raise BenchError(f"{mode} run exited {code}:\n{text}")
        return json.loads((out / f"{mode}.json").read_text())


# ---- metrics ---------------------------------------------------------------

def p50(values):
    return statistics.median(values)


def p25(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0]


def p75(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[2]


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


def samples_per_s(ranks, world):
    """Global samples over the wall time of the slowest rank's timed steps."""
    steps = ranks[0]["attempted"]
    wall = max(r["last_end_s"] - r["first_start_s"] for r in ranks)
    return world * ranks[0]["samples_per_step"] * steps / wall


def window_samples_per_s(ranks, world):
    """Global samples per second in each window of consecutive timed steps
    lasting about WINDOW_S; a window lasts as long as its slowest rank."""
    steps = ranks[0]["attempted"]
    k = min(steps, max(1, round(WINDOW_S * 1e3 / p50(ranks[0]["step_ms"]))))
    samples = world * ranks[0]["samples_per_step"] * k
    return [samples / (max(sum(r["step_ms"][i:i + k]) for r in ranks) / 1e3)
            for i in range(0, steps - k + 1, k)]


def check(ranks, launched_ok, label):
    """The correctness checks; returns a list of failure messages."""
    problems = []
    if not launched_ok:
        problems.append(f"{label}: a rank exited non-zero")
    digests = {r["digest"] for r in ranks}
    if len(digests) != 1:
        problems.append(f"{label}: parameter digests differ across ranks: "
                        f"{sorted(digests)}")
    for r in ranks:
        first, final = r["loss_first"], r["loss_final"]
        if not (math.isfinite(final) and final < first):
            problems.append(f"{label}: rank {r['rank']} final loss {final} is "
                            f"not finite and below its step-0 loss {first}")
    if any(r["attempted"] != ranks[0]["attempted"] for r in ranks):
        problems.append(f"{label}: ranks ran different step counts")
    return problems


def counts(ranks):
    return (ranks[0]["attempted"], max(r["failed"] for r in ranks))


def setup_launches(runner, seconds):
    """Set-up-only launches for `seconds`, at least SETUP_MIN_LAUNCHES.
    Returns (set-up times, every launch exited 0)."""
    times, ok = [], True
    start = time.monotonic()
    while (len(times) < SETUP_MIN_LAUNCHES or
           time.monotonic() - start < seconds):
        _, setup_s, launched_ok = runner.ddp("setup")
        times.append(setup_s)
        ok = ok and launched_ok
    return times, ok


def end_to_end(runner, seconds):
    before, before_ok = setup_launches(runner, seconds * SETUP_SHARE / 2)
    ranks, setup_s, ok = runner.ddp("ddp", seconds)
    after, after_ok = setup_launches(runner, seconds * SETUP_SHARE / 2)
    setups = before + [setup_s] + after
    step_ms = ranks[0]["step_ms"]
    windows = window_samples_per_s(ranks, runner.world)
    metrics = {
        "samples_per_s_p75": (p75(windows), "samples/s"),
        "step_ms_p25": (p25(step_ms), "ms"),
        "setup_s": (p50(setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_kb"] for r in ranks) / 1024.0, "MB"),
    }
    # The whole-run figures are printed but not gated: they follow how much
    # of the run the host's slow phases cover (NOTES.md).
    notes = [f"samples_per_s_p75 over {len(windows)} windows; whole run "
             f"{samples_per_s(ranks, runner.world):.3f} samples/s (not gated)",
             f"step_ms over n={len(step_ms)} timed steps on rank 0; "
             f"step_ms_p50 {p50(step_ms):.3f} ms, step_ms_p90 "
             f"{p90(step_ms):.3f} ms (not gated)",
             f"setup_s median of {len(setups)} launches; median of the "
             f"{len(before)} before training {p50(before) * 1e3:.3f} ms, of "
             f"the {len(after)} after {p50(after) * 1e3:.3f} ms"]
    problems = check(ranks, ok, "ddp")
    if not (before_ok and after_ok):
        problems.append("setup launch: a rank exited non-zero")
    return metrics, problems, counts(ranks), notes


def self_times(trace, first_step):
    """Per-span-name self time (s), summed over spans of timed steps: each
    span's duration minus its direct children's (children of one span run
    on its thread, one after another)."""
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, step in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, step) in enumerate(spans):
        if step >= first_step:
            key = names[name]
            totals[key] = totals.get(key, 0.0) + (end - start) - child_time[i]
    return totals


def comm_by_step(trace, first_step):
    """Seconds spent in comm.* spans, per timed step."""
    names = trace["names"]
    out = {}
    for name, start, end, parent, step in trace["spans"]:
        if step >= first_step and names[name].startswith("comm."):
            out[step] = out.get(step, 0.0) + end - start
    return out


def per_layer(runner, seconds):
    traced, _, traced_ok = runner.ddp("ddp", seconds * 0.5, trace=True)
    plain, _, plain_ok = runner.ddp("ddp", seconds * 0.25)
    single = runner.local("single", seconds * 0.15)
    kernels = runner.local("kernels", seconds * 0.1)

    world = runner.world
    steps = traced[0]["attempted"]

    def mean_over_ranks(fn):
        return sum(fn(r) for r in traced) / world

    layer_ms = [self_times(r["trace"], r["warmup_steps"]) for r in traced]

    def span_ms(name):
        return sum(t.get(name, 0.0) for t in layer_ms) / world / steps * 1e3

    def comm(kind, field):
        return mean_over_ranks(lambda r: r["comm"][kind][field]) / steps

    comm_ms = mean_over_ranks(
        lambda r: sum(c["seconds"] for c in r["comm"].values())) / steps * 1e3
    # The step as the program runs it: without the benchmark's own gradient
    # scan, which only the traced run does.
    step_ms = (mean_over_ranks(lambda r: statistics.fmean(r["step_ms"])) -
               span_ms("bench.scan_grads"))
    # A collective's time on the rank that reaches it last holds no wait
    # for a straggling peer: the wire time the step cannot avoid.
    per_rank_comm = [comm_by_step(r["trace"], r["warmup_steps"])
                     for r in traced]
    last_arrival_ms = statistics.fmean(
        min(c.get(step, 0.0) for c in per_rank_comm)
        for step in per_rank_comm[0]) * 1e3 if per_rank_comm[0] else 0.0
    skews = [max(s) - min(s) for s in
             zip(*(r["backward_start_s"] for r in traced))]
    tails = [t for r in traced for t in r["tail_ms"]]
    subnormal = sum(r["grad_subnormal"] for r in traced)
    grad_elems = sum(r["grad_elems"] for r in traced)

    m = {
        "data.get_ms": (span_ms("data.get"), "ms"),
        "nn.forward_ms": (span_ms("nn.forward"), "ms"),
        "nn.loss_ms": (span_ms("nn.loss"), "ms"),
        "autograd.backward_ms": (span_ms("autograd.backward"), "ms"),
        "optim.step_ms": (span_ms("optim.step"), "ms"),
        "optim.zero_grad_ms": (span_ms("optim.zero_grad"), "ms"),
    }
    for family in ["conv2d_fwd", "conv2d_bwd_input", "conv2d_bwd_weight",
                   "matmul"]:
        m[f"tensor.{family}_gflops"] = (kernels[family]["gflops"], "GFLOP/s")
    m["tensor.conv2d_mflop"] = (kernels["conv2d_fwd"]["flop"] / 1e6, "MFLOP")
    m["tensor.matmul_mflop"] = (kernels["matmul"]["flop"] / 1e6, "MFLOP")
    m.update({
        "comm.allreduce_calls": (comm("allreduce", "calls"), "count"),
        "comm.allreduce_ms": (comm("allreduce", "seconds") * 1e3, "ms"),
        "comm.allgather_calls": (comm("allgather", "calls"), "count"),
        "comm.allgather_ms": (comm("allgather", "seconds") * 1e3, "ms"),
        "comm.broadcast_ms": (comm("broadcast", "seconds") * 1e3, "ms"),
        "comm.setup_broadcast_ms": (mean_over_ranks(
            lambda r: r["setup_comm"]["broadcast"]["seconds"]) * 1e3, "ms"),
        "comm.bytes_per_step": (mean_over_ranks(
            lambda r: sum(c["bytes"] for c in r["comm"].values())) / steps,
            "bytes"),
        "comm.last_arrival_ms": (last_arrival_ms, "ms"),
        "comm.step_share": (comm_ms / step_ms, "fraction"),
        "core.buckets": (traced[0]["buckets"], "count"),
        "core.bytes_wire_raw": (
            mean_over_ranks(lambda r: r["bytes_wire_raw"]) / steps, "bytes"),
        "core.bytes_wire_compressed": (mean_over_ranks(
            lambda r: r["bytes_wire_compressed"]) / steps, "bytes"),
        "core.tail_ms": (p50(tails), "ms"),
        "core.rank_skew_ms": (p50(skews) * 1e3, "ms"),
        "core.overhead_ratio": (
            p50(plain[0]["step_ms"]) / p50(single["step_ms"]), "ratio"),
        "grad.subnormal_frac": (subnormal / grad_elems, "fraction"),
        "trace.overhead_ratio": (samples_per_s(plain, world) /
                                 samples_per_s(traced, world), "ratio"),
    })
    attempted, failed = (a + b for a, b in zip(counts(traced), counts(plain)))
    m["step_fail_frac"] = (failed / attempted, "fraction")
    problems = (check(traced, traced_ok, "traced ddp") +
                check(plain, plain_ok, "untraced ddp"))
    if not (math.isfinite(single["loss_final"]) and
            single["loss_final"] < single["loss_first"]):
        problems.append("single worker: final loss not below step-0 loss")
    notes = [f"per-layer times are per optimizer step over {steps} traced "
             f"steps, mean of {world} ranks",
             f"single-worker baseline {p50(single['step_ms']):.3f} ms/step "
             f"over {single['attempted']} steps"]
    # Every per-layer metric is reported on every workload; a layer the
    # workload never calls reads 0 and is named here.
    unused = ["tensor.conv2d_*"] if kernels["conv2d_fwd"]["flop"] == 0 else []
    unused += [f"comm.{kind}_*" for kind in ["allreduce", "allgather",
                                             "broadcast"]
               if comm(kind, "calls") == 0]
    if unused:
        notes.append(f"not called by this workload, so 0: {', '.join(unused)}")
    return m, problems, counts(traced), notes


def run_workload(workload, seed, seconds, trace, scratch):
    runner = Runner(workload, seed, scratch)
    fn = per_layer if trace else end_to_end
    metrics, problems, (attempted, failed), notes = fn(runner, seconds)
    for name, (value, unit) in metrics.items():
        print(f"{workload:<18} {name:<28} {value:>16.6f} {unit}")
    for note in notes:
        print(f"{workload:<18} # {note}")
    for problem in problems:
        print(f"{workload:<18} CHECK FAILED: {problem}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    scratch = BUILD_DIR / "runs" / f"{os.getpid()}"
    try:
        build()
        results = {}
        for w in workloads:
            results[w] = run_workload(w, args.seed, args.seconds,
                                      bool(args.trace), scratch / w)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if len(workloads) == 1:
        result = results[workloads[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
