"""edgelift benchmark: one closed-loop client calling the CLI in-process.

    python3 perfbench/run.py --workload lift --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
single client sends the workload's requests one after another (closed loop,
one thread) in whole passes until ``--seconds`` have elapsed, at least three
passes.  Every pass gets fresh inputs of the same size (another draw of the
seeded signs, units, primes and translations) and a freshly imported
package, so nothing the program might cache carries over from one pass to
the next.  Outputs are checked after the timed region.

Latencies are scaled to a reference host speed: a fixed pure-Python kernel
runs before every request, and each request's time is multiplied by
``KERNEL_REF_S`` over the median kernel time around it.  The host is shared,
and other tenants slow everything by up to 2x for seconds to minutes; the
kernel slows with it, so the scaled times stay put.  Set-up times are scaled
the same way by a reference import of the benchmark's own modules (see
``setup``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass and reports the per-layer metrics plus the tracing
overhead.  A human-readable table goes to stderr; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
MIN_PASSES = 3
# The reference kernel's duration on a host of reference speed; scaled
# latencies read as if measured there.  Any fixed value works; this one is
# close to the kernel's median on the 2-vCPU VM the baseline comes from.
KERNEL_REF_S = 3.0e-3
KERNEL_WINDOW = 5           # kernel runs on each side of a request
# Set-up is scaled by its own reference: loading fresh copies of the
# benchmark's own modules, which takes about IMPORT_REF_S on the same VM.
REFERENCE_MODULES = ("polyarith", "workloads", "checker", "tracing")
IMPORT_REF_S = 0.02

END_TO_END = (
    ("setup_s", "s"), ("req_per_s", "req/s"), ("req_p50_ms", "ms"), ("req_p90_ms", "ms"),
    ("top_rung_s", "s"), ("growth_exp", "1"), ("peak_rss_mb", "MB"),
)


def import_edgelift():
    """Import edgelift afresh from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "edgelift" / "__init__.py").is_file():
        raise SystemExit(f"no edgelift package under {src}; run from a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "edgelift" or m.startswith("edgelift.")]:
        del sys.modules[name]
    cli = importlib.import_module("edgelift.cli")
    if Path(cli.__file__).resolve().parent != (src / "edgelift").resolve():
        raise SystemExit(f"edgelift was imported from {cli.__file__}, not {src}")
    return cli


def reference_kernel():
    """Fixed work in the style of the program, on the standard library only:
    Gauss-Jordan elimination over Fraction and a sparse product over dicts of
    exponent tuples.  No change to edgelift can change its cost."""
    n = 7
    rows = [[Fraction((3 * i + 5 * j) % 11 - 5 + 13 * (i == j), 1 + (i + j) % 3)
             for j in range(n + 1)] for i in range(n)]
    for c in range(n):
        pivot = rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                factor = rows[r][c]
                rows[r] = [x - factor * y for x, y in zip(rows[r], pivot)]
    p = {(i, j, k): (3 * i + 5 * j + k) % 11 - 5
         for i in range(5) for j in range(4) for k in range(3)}
    product = {}
    for e1, c1 in p.items():
        for e2, c2 in p.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            product[e] = product.get(e, 0) + c1 * c2
    return rows[0][n], len(product)


def time_kernel():
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def speed_scales(kernels):
    """One factor per gap between kernel runs: KERNEL_REF_S over the median
    of the kernel times within KERNEL_WINDOW runs of the gap."""
    return [KERNEL_REF_S / statistics.median(kernels[max(0, i + 1 - KERNEL_WINDOW):
                                                     i + 1 + KERNEL_WINDOW])
            for i in range(len(kernels) - 1)]


def time_reference_import():
    """Seconds to load fresh copies of the benchmark's own modules: fixed
    import work (reading or compiling bytecode, running module bodies,
    building dataclasses) that no change to edgelift can change."""
    start = time.perf_counter()
    for name in REFERENCE_MODULES:
        spec = importlib.util.spec_from_file_location(
            f"_reference_{name}", Path(__file__).with_name(f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module     # dataclasses look their module up
        try:
            spec.loader.exec_module(module)
        finally:
            del sys.modules[spec.name]
    return time.perf_counter() - start


def setup(workload, seed):
    """Import the package and build the request list, SETUP_REPEATS times,
    with a reference import before and after each; returns (cli module,
    requests, median scaled set-up seconds).

    Importing slows less than the Fraction kernel when the host is busy, and
    by a factor that differs between busy spells, so set-up has a reference
    of its own kind: each set-up time is multiplied by IMPORT_REF_S over the
    mean of the reference imports around it."""
    times, refs = [], [time_reference_import()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = import_edgelift()
        requests = workloads.build(workload, seed)
        times.append(time.perf_counter() - start)
        refs.append(time_reference_import())
    scaled = [t * IMPORT_REF_S * 2 / (before + after)
              for t, before, after in zip(times, refs, refs[1:])]
    return cli, requests, statistics.median(scaled)


def call(main, argv):
    """One request: (seconds, exit code, stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        error = None
    except Exception:  # a crash is a failed request, not a failed benchmark
        code = None
        error = traceback.format_exc(limit=1).strip().splitlines()[-1]
    return time.perf_counter() - start, code, out.getvalue(), error or err.getvalue().strip()


@dataclass
class Outcome:
    """One slot of the request list over the passes: the scaled latencies,
    and every pass's request with its output, compressed until the check."""

    scaled: list = field(default_factory=list)
    outputs: list = field(default_factory=list)   # (request, code, zlib stdout, error)

    def output(self, index):
        request, code, out, error = self.outputs[index]
        return request, code, zlib.decompress(out).decode(), error


def run_pass(main, requests, results):
    """One pass, a kernel run before each request and after the last;
    returns the pass's scaled seconds."""
    kernels, times = [], []
    for request, outcome in zip(requests, results):
        kernels.append(time_kernel())
        seconds, code, out, error = call(main, request.argv)
        times.append(seconds)
        outcome.outputs.append((request, code, zlib.compress(out.encode(), 1), error))
    kernels.append(time_kernel())
    total = 0.0
    for outcome, seconds, scale in zip(results, times, speed_scales(kernels)):
        outcome.scaled.append(seconds * scale)
        total += seconds * scale
    return total


def traced_pass(cli, requests, results):
    """One pass with every layer wrapped; returns (tracer, scaled seconds)."""
    tracer = tracing.Tracer()
    try:
        tracer.install()
        return tracer, run_pass(lambda argv: tracer.request(cli.main, argv), requests, results)
    finally:
        tracer.uninstall()


def certificate_steps(results, index=-1):
    """Total lift steps in the certificates of one pass's successful outputs."""
    steps = 0
    for outcome in results:
        _, code, out, _ = outcome.output(index)
        if code == 0 and '"certificate"' in out:
            steps += len(json.loads(out)["certificate"]["steps"])
    return steps


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def growth_exponent(requests, latency):
    """Mean over ladders of the least-squares slope of log(latency) on
    log(size).  Each ladder weighs the same, whatever its size range, so the
    bound ladders and the precision ladders of ``lift`` both count."""
    by_instance = {}
    for request, t in zip(requests, latency):
        by_instance.setdefault(request.instance, []).append(
            (math.log(request.size), math.log(t)))
    slopes = []
    for points in by_instance.values():
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        slopes.append(sum((x - mx) * (y - my) for x, y in points)
                      / sum((x - mx) ** 2 for x, _ in points))
    return statistics.fmean(slopes)


def check_all(results):
    """Check every output of every pass.  Returns (failed executions,
    failure lines)."""
    sys.path.insert(0, str(ROOT / "tests"))
    import checker
    import oracles
    grading = importlib.import_module("edgelift.grading")
    failed, lines = 0, []
    for outcome in results:
        for index in range(len(outcome.outputs)):
            request, code, out, error = outcome.output(index)
            if code is None:
                reason = f"raised {error}"
            else:
                try:
                    reason = checker.check(request, code, out, grading, oracles)
                except (KeyError, ValueError, TypeError) as exc:
                    reason = f"unreadable output ({type(exc).__name__}: {exc})"
                if reason and error:
                    reason += f"; stderr: {error[:200]}"
            if reason:
                failed += 1
                lines.append(f"FAIL {request.instance} size={request.size} pass {index}: "
                             f"{reason}\n     argv: {' '.join(request.argv)[:300]}")
    return failed, lines


def end_to_end(requests, results, setup_s, peak_rss_mb):
    """End-to-end metrics from each request's median scaled latency over the
    passes.  Percentiles are taken over the request slots, and the
    throughput is that of one pass at those latencies."""
    latency = [statistics.median(r.scaled) for r in results]
    ranked = sorted(latency)
    p90 = nearest_rank(ranked, 0.90)
    top = {}
    for request, t in zip(requests, latency):
        if request.size >= top.get(request.instance, (0, 0))[0]:
            top[request.instance] = (request.size, t)
    values = {
        "setup_s": setup_s,
        "req_per_s": len(latency) / sum(latency),
        "req_p50_ms": statistics.median(latency) * 1e3,
        "req_p90_ms": p90 * 1e3,
        "top_rung_s": statistics.median(t for _, t in top.values()),
        "growth_exp": growth_exponent(requests, latency),
        "peak_rss_mb": peak_rss_mb,
    }
    n = len(latency)
    repeats = len(results[0].scaled)
    samples = {
        "setup_s": f"{SETUP_REPEATS} set-ups",
        "req_per_s": f"{n} requests x median of {repeats}",
        "req_p50_ms": f"{n} requests x median of {repeats}",
        "req_p90_ms": f"{n} requests, {sum(t > p90 for t in latency)} beyond",
        "top_rung_s": f"{len(top)} ladders", "growth_exp": f"{len(top)} ladders, {n} points",
        "peak_rss_mb": "1 process",
    }
    return values, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, requests, setup_s = setup(args.workload, args.seed)
    results = [Outcome() for _ in requests]
    passes = []
    start = time.perf_counter()
    while True:
        # Every pass after the first: fresh inputs and a fresh package.
        pass_requests = requests
        if passes:
            cli = import_edgelift()
            pass_requests = workloads.build(args.workload, args.seed, variant=len(passes))
        if args.trace and passes:
            tracer, traced = traced_pass(cli, pass_requests, results)
            break
        passes.append(run_pass(cli.main, pass_requests, results))
        elapsed = time.perf_counter() - start
        if not args.trace and len(passes) >= MIN_PASSES and \
                elapsed > args.seconds - elapsed / len(passes) / 2:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, failures = check_all(results)
    attempted = sum(len(r.outputs) for r in results)
    log = sys.stderr
    print(f"workload {args.workload}, seed {args.seed}: {len(requests)} requests x "
          f"{len(passes) + bool(args.trace)} passes, {attempted} attempted, {failed} failed "
          f"(fail_frac {failed / attempted:.4f}); scaled pass seconds "
          f"{' '.join(f'{t:.2f}' for t in passes)}", file=log)
    for line in failures:
        print(line, file=log)

    if args.trace:
        values = tracer.metrics(certificate_steps(results), traced / passes[0])
        units = dict(tracing.PER_LAYER)
        total = sum(tracer.self_times().values())
        print(f"traced pass {traced:.2f} s, untraced {passes[0]:.2f} s (scaled), "
              f"{len(tracer.spans)} spans", file=log)
        for name, share in sorted(((n, v / total) for n, v in tracer.self_times().items()),
                                  key=lambda t: -t[1]):
            print(f"  self-time share {name:24s} {share:6.1%}", file=log)
    else:
        values, samples = end_to_end(requests, results, setup_s, peak_rss_mb)
        units = dict(END_TO_END)
        for name, unit in END_TO_END:
            print(f"  {name:12s} {values[name]:12.4f} {unit:6s} n={samples[name]}", file=log)
        print(f"  {'fail_frac':12s} {failed / attempted:12.4f} ratio  n={attempted}", file=log)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
