"""Run one cornerlab benchmark workload and print its metrics.

    python3 bench/run.py --workload scan-cyclic --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Commands run in-process through
cornerlab.cli.main, one after another (a closed loop with one client), with
--out pointing into a scratch directory under .bench_work/.  A run executes
round(seconds / round_s) whole rounds of the workload's fixed op list, so
every run of a workload does the same ops.  Op times are scaled to a fixed
reference kernel's speed (see Reference); raw wall times are printed too.
Every output is checked outside the timed section; a failed check counts
as a failed op.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced and
traced rounds, prints per-layer metrics (averaged per round), the tracing
overhead and a 1-vs-2-thread probe, and writes the spans as JSON lines to
.bench_work/trace-<workload>-seed<seed>.jsonl.  The last line of stdout is
one JSON object with keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stats
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 5
PROBE_REPS = 2
THREADS_ENV_VAR = "CORNERLAB_THREADS"
# Usual time of one Reference.sample() on the 2-core box that defined the
# benchmark; a run's op times are scaled by REF_S / (its median sample).
REF_S = 0.003


@dataclass
class Result:
    label: str
    seconds: float
    ok: bool
    work: float
    info: dict = field(default_factory=dict)


class Reference:
    """A fixed numpy and Python kernel, timed between ops, that tracks machine speed.

    Identical work on a shared box runs up to a third slower or faster from
    one minute to the next.  The program never runs this code, so scaling a
    run's op times by REF_S / median(timings) removes most of that drift and
    none of what the program changes.
    """

    def __init__(self):
        self.timings: list[float] = []
        rng = np.random.default_rng(0)
        self.bits = rng.random((256, 256)) < 0.3
        self.mat = rng.random((48, 48))
        self.cols = (np.arange(256)[None, :] + np.arange(0, 256, 16)[:, None]) % 256

    def _kernel(self) -> int:
        total = 0
        for cols in self.cols:
            total += int(np.bitwise_count(np.packbits(self.bits[:, cols] & self.bits, axis=1)).sum())
        for _ in range(20):
            total += int((self.mat @ self.mat).argmax())
        return total

    def sample(self) -> None:
        self._kernel()  # warm the caches the previous op evicted
        t0 = time.perf_counter()
        self._kernel()
        self.timings.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return REF_S / statistics.median(self.timings)


def environment() -> str:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "n/a"
    return (f"python {platform.python_version()}, numpy {np.__version__}, blas {blas}, "
            f"nproc {os.cpu_count()}, affinity {affinity}, {THREADS_ENV_VAR} unset")


def setup(wl: workloads.Workload, workdir: Path) -> list[float]:
    """Fresh-process import of cornerlab plus writing the set files, repeated."""
    from cornerlab.corners import PlaneSet
    from cornerlab.groups import GroupSpec

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cornerlab"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        for name, moduli, bits in wl.files:
            PlaneSet(GroupSpec(moduli), bits).save(workdir / name)
        times.append(time.perf_counter() - t0)
    return times


def execute(op: workloads.Op, out: Path, tracer: tracing.Tracer | None = None) -> Result:
    """Run one op (timed), then check its output (untimed)."""
    from cornerlab import cli

    out.unlink(missing_ok=True)
    run = (lambda: cli.main(op.argv + ["--out", str(out)])) if op.argv else op.call
    if tracer is not None:
        run = tracer.wrap(run, "cli" if op.argv else "lib")
    gc.collect()  # garbage left by earlier checks must not be collected inside the op
    t0 = time.perf_counter()
    try:
        value = run()
    except Exception:
        seconds = time.perf_counter() - t0
        print(f"op {op.label!r} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return Result(op.label, seconds, False, op.work)
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.spans[-1]["label"] = op.label
    if op.argv:
        if value != 0:
            print(f"op {op.label!r} exited with {value}", file=sys.stderr)
            return Result(op.label, seconds, False, op.work)
        value = out.read_text()
    try:
        info = op.check(value)
    except Exception as exc:  # a malformed output can fail the parser in many ways
        print(f"op {op.label!r} failed its check: {exc!r}", file=sys.stderr)
        return Result(op.label, seconds, False, op.work)
    if op.oracle is not None:
        info = dict(info, output=value)
    return Result(op.label, seconds, True, op.work, info)


def run_round(wl: workloads.Workload, out: Path, ref: Reference,
              tracer: tracing.Tracer | None = None) -> list[Result]:
    results = []
    for op in wl.ops:
        if tracer is not None:
            tracer.op += 1
        results.append(execute(op, out, tracer))
        ref.sample()
    return results


def run_oracles(wl: workloads.Workload, first_round: list[Result]) -> None:
    """Slow oracle checks on round 0, once per run; a failure fails that op."""
    for op, res in zip(wl.ops, first_round):
        if op.oracle is None or not res.ok:
            continue
        try:
            op.oracle(res.info["output"])
        except Exception as exc:
            print(f"op {op.label!r} failed its oracle check: {exc!r}", file=sys.stderr)
            res.ok = False


def quality(results: list[Result]) -> tuple[float | None, float | None]:
    """Geometric mean of m_hat/alpha^3, and the certified share of residuals."""
    pairs = [p for r in results for p in r.info.get("mhat", ())]
    flags = [f for r in results for f in r.info.get("certified", ())]
    mhat = math.exp(sum(math.log(m / a**3) for a, m in pairs) / len(pairs)) if pairs else None
    cert = sum(flags) / len(flags) if flags else None
    return mhat, cert


def end_to_end(wl, results, setup_times, peak_rss_mb, ref: Reference) -> tuple[dict, list[str]]:
    """Op times enter scaled to the reference speed; raw wall times are printed beside."""
    failed = sum(not r.ok for r in results)
    k = ref.scale()
    raw = [r.seconds for r in results]
    lat = [t * k for t in raw]
    work = sum(r.work for r in results if r.ok)
    p, tail = stats.tail_latency(lat)
    mhat, cert = quality(results)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", f"median of {len(setup_times)} set-ups"),
        "work_per_s": (work / sum(lat), "units/s", f"unit: {wl.unit}; {work:.6g} units; "
                       f"raw {work / sum(raw):.6g} over {sum(raw):.3f} s of wall time"),
        "cmd_p50_s": (statistics.median(lat), "s", f"n={len(lat)} ops; raw {statistics.median(raw):.6g} s"),
        "cmd_tail_s": (tail, "s", f"p{p} of n={len(lat)} ops; raw {tail / k:.6g} s" + (
            "" if p < 100 else "; fewer than 11 ops, so the maximum")),
        "peak_rss_mb": (peak_rss_mb, "MiB", "peak resident set of the run process"),
        "mhat_ratio": (1.0 if mhat is None else mhat, "ratio",
                       "geometric mean over single-density ops" if mhat is not None
                       else "no m_hat ops on this workload; reads 1.0"),
        "certified_frac": (1.0 if cert is None else cert, "ratio",
                           "share of cut-norm residuals reported certified" if cert is not None
                           else "no cut-norm residuals on this workload; reads 1.0"),
    }
    lines = [f"reference kernel: median {1e3 * REF_S / k:.4f} ms over {len(ref.timings)} timings; "
             f"op times below are scaled by {k:.4f} to its {1e3 * REF_S:g} ms"]
    lines += [f"{name:<15} {v:<14.6g} {u:<8} {note}" for name, (v, u, note) in metrics.items()]
    lines.append(f"{'fail_frac':<15} {failed / len(results):<14.6g} {'ratio':<8} "
                 f"{failed} of {len(results)} ops failed (not in the JSON metrics: it is 0 when healthy)")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def probe(wl, out: Path) -> tuple[list[Result], dict]:
    """The workload's probe op at 1 and 2 pool threads, alternating."""
    op = next(o for o in wl.ops if o.label == wl.probe)
    timings: dict[str, list[float]] = {"1": [], "2": []}
    results = []
    try:
        for _ in range(PROBE_REPS):
            for threads in ("1", "2"):
                os.environ[THREADS_ENV_VAR] = threads
                res = execute(op, out)
                results.append(res)
                timings[threads].append(res.seconds)
    finally:
        os.environ.pop(THREADS_ENV_VAR, None)
    t1, t2 = statistics.median(timings["1"]), statistics.median(timings["2"])
    return results, {"parallel.speedup_t2": t1 / t2, "parallel.probe_t1_s": t1,
                     "parallel.probe_t2_s": t2}


def traced_run(build, args, out: Path, ref: Reference) -> tuple[list[Result], dict, list[str]]:
    """Pairs of identical rounds, untraced then traced; then the thread probe."""
    wl = build(0)
    pairs = max(1, round(args.seconds / (2 * wl.round_s)))
    tracer = tracing.Tracer()
    results, plain, traced = [], 0.0, 0.0
    for p in range(pairs):
        rnd = build(p)
        r = run_round(rnd, out, ref)
        plain += sum(x.seconds for x in r)
        results += r
        with tracing.installed(tracer):
            r = run_round(rnd, out, ref, tracer)
        traced += sum(x.seconds for x in r)
        results += r
    run_oracles(wl, results[: len(wl.ops)])
    probe_results, probe_metrics = probe(wl, out)
    results += probe_results
    metrics = tracing.layer_metrics(tracer.spans, pairs)
    metrics.update(probe_metrics)
    metrics["trace.overhead_s"] = (traced - plain) / pairs
    spans_path = WORK / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write_jsonl(spans_path)
    units = tracing.metric_units()
    units.update({"parallel.speedup_t2": "ratio", "parallel.probe_t1_s": "s",
                  "parallel.probe_t2_s": "s", "trace.overhead_s": "s"})
    lines = [f"traced {pairs} round(s), {len(tracer.spans)} spans -> {spans_path.relative_to(ROOT)}",
             f"round wall: untraced {plain / pairs:.4f} s, traced {traced / pairs:.4f} s "
             f"(overhead {100 * (traced - plain) / plain:+.2f}%)",
             f"probe {wl.probe!r}: {probe_metrics['parallel.probe_t1_s']:.4f} s at 1 thread, "
             f"{probe_metrics['parallel.probe_t2_s']:.4f} s at 2 threads",
             "self time per span name, per round:"]
    lines += [f"  {name:<28} {t / pairs:.4f} s" for name, t in tracing.self_time_table(tracer.spans).items()]
    lines += [f"{k:<32} {v:<14.6g} {units[k]}" for k, v in metrics.items()]
    return results, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "cornerlab" / "__init__.py").is_file():
        print(f"benchmark: no cornerlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop(THREADS_ENV_VAR, None)
    import cornerlab

    if Path(cornerlab.__file__).resolve().parent != SRC / "cornerlab":
        print(f"benchmark: imported cornerlab from {cornerlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        def build(r: int) -> workloads.Workload:
            return workloads.BY_NAME[args.workload](args.seed, workdir, r)

        wl = build(0)
        setup_times = setup(wl, workdir)
        out = workdir / "out.txt"
        ref = Reference()
        print(f"env: {environment()}")
        if args.trace:
            results, metrics, lines = traced_run(build, args, out, ref)
        else:
            rounds = max(1, round(args.seconds / wl.round_s))
            results = []
            for r in range(rounds):
                results += run_round(build(r), out, ref)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            run_oracles(wl, results[: len(wl.ops)])
            metrics, lines = end_to_end(wl, results, setup_times, peak, ref)
            print(f"workload {wl.name} seed {args.seed}: {rounds} round(s) of {len(wl.ops)} ops")
        for line in lines:
            print(line)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(not r.ok for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
