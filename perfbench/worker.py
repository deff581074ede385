"""One workload in one process: set up, run timed ops, print raw results.

``run.py`` starts this file.  It prints ``ready`` on stdout when set-up is
done, just before the first timed op, so the parent can time set-up from
process start.  With ``--setup-only`` it exits there.  Otherwise it runs ops
for ``--seconds`` and prints one JSON line with the raw op times, counts and
peak memory, and with ``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Reference-task seconds per op second, kept through a run.
REFERENCE_SHARE = 0.25


def import_nckit():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import nckit

    if Path(nckit.__file__).resolve().parent != (SRC / "nckit").resolve():
        raise SystemExit(f"imported nckit from {nckit.__file__}, not from {SRC}")
    return nckit


def package_caches():
    """(name, cache_info) of every functools cache reachable from a ``nckit`` module.

    Looks at module-level functions and at the functions, static and class
    methods of the package's classes; each cache is listed once.
    """
    from tracer import package_modules

    found = {}
    for module in package_modules():
        candidates = list(vars(module).values())
        for value in list(candidates):
            if isinstance(value, type) and value.__module__.startswith("nckit"):
                for raw in vars(value).values():
                    raw = getattr(raw, "__func__", raw)
                    candidates.append(getattr(raw, "fget", raw))
        for value in candidates:
            info = getattr(value, "cache_info", None)
            if callable(info) and not isinstance(value, type):
                name = f"{value.__module__}.{value.__qualname__}"
                found.setdefault(id(info.__self__), (name, info))
    return sorted(found.values())


def cache_totals(caches) -> dict:
    infos = [info() for _, info in caches]
    return {
        "hits": sum(i.hits for i in infos),
        "misses": sum(i.misses for i in infos),
        "entries": sum(i.currsize for i in infos),
    }


def clear_cold(caches) -> None:
    """``clear_caches()``, then stop unless every cache in the package is empty.

    A cache that ``clear_caches`` does not know about would turn a cold
    workload warm without anyone noticing.
    """
    from nckit.cumulants import clear_caches

    clear_caches()
    for name, info in caches:
        if info().currsize:
            raise SystemExit(
                f"cold-cache guard: {name} holds {info().currsize} entries "
                "after clear_caches()"
            )


def reference_task() -> dict:
    """A fixed piece of pure-Python work, interleaved with the ops of a run.

    It does what nckit's inner loops do (``Fraction`` sums into a dict keyed
    by tuples) and takes about 10 ms on a 2 GHz Xeon core.  On a shared host
    another tenant can slow a core by up to a factor of two for minutes;
    the reference slows with it, so mean op time over mean reference time
    stays put while both move.
    """
    acc = {}
    for i in range(1, 3000):
        key = (i % 23, i % 7)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 11 - 5, i % 9 + 1)
    return acc


def layer_metrics(tracer, cache_before: dict, cache_after: dict) -> dict:
    calls, counts = tracer.calls, tracer.counts
    leq = calls["ncpart.leq"]
    return {
        "cli.self_s": tracer.self_s["cli"],
        "cumulants.self_s": tracer.self_s["cumulants"],
        "cumulants.calls": tracer.layer_calls("cumulants"),
        "ncpart.self_s": tracer.self_s["ncpart"],
        "ncpart.leq.calls": leq,
        "ncpart.leq.true_frac": counts["ncpart.leq.true"] / leq if leq else 0.0,
        "ncpart.zeta_arc_form.calls": calls["ncpart.zeta_arc_form"],
        "ncpart.enumerate_nc.calls": calls["ncpart.enumerate_nc"],
        "poly.self_s": tracer.self_s["poly"],
        "poly.mul.calls": calls["poly.Polynomial.__mul__"],
        "poly.mul.terms_out": counts["poly.mul.terms_out"],
        "poly.add.calls": calls["poly.Polynomial.__add__"],
        "poly.poly_sum.calls": calls["poly.poly_sum"],
        "poly.evaluate.calls": calls["poly.Polynomial.evaluate"],
        "series.incl_s": tracer.incl_s["series"],
        "series.self_s": tracer.self_s["series"],
        "series.mul.calls": calls["series.LaurentSeries.__mul__"],
        "series.recip.calls": calls["series.LaurentSeries.recip"],
        "series.power.calls": calls["series.LaurentSeries.power"],
        "trees.self_s": tracer.self_s["trees"],
        "trees.calls": tracer.layer_calls("trees"),
        "cache.hits": cache_after["hits"] - cache_before["hits"],
        "cache.misses": cache_after["misses"] - cache_before["misses"],
        "cache.entries": cache_after["entries"],
    }


def measure(workload, caches, seconds: float, rng, tracer=None) -> dict:
    """Run ops for ``seconds``; with a tracer, every second op is traced.

    Without a tracer, the reference task runs before an op until its total
    time is ``REFERENCE_SHARE`` of the ops' total, so both sample the same
    stretches of the run.  Alternating traced and untraced ops in one process gives the tracing
    overhead against the same host conditions.
    """
    times, ref_times, traced_times, per_op, failed = [], [], [], [], 0
    deadline = time.perf_counter() + seconds
    attempted = 0
    while attempted < (2 if tracer else 1) or time.perf_counter() < deadline:
        inputs = workload.make_input(rng)
        if workload.cold:
            clear_cold(caches)
        gc.collect()
        while tracer is None and sum(ref_times) <= REFERENCE_SHARE * sum(times):
            start = time.perf_counter()
            reference_task()
            ref_times.append(time.perf_counter() - start)
        traced = tracer is not None and attempted % 2 == 1
        if traced:
            tracer.install()
            before = cache_totals(caches)
            tracer.begin_op(attempted)
        start = time.perf_counter()
        try:
            output = workload.op(inputs)
        except Exception:
            output = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if traced:
            tracer.end_op()
            tracer.uninstall()
            per_op.append(layer_metrics(tracer, before, cache_totals(caches)))
            traced_times.append(elapsed)
        else:
            times.append(elapsed)
        attempted += 1
        if output is None or not workload.check(inputs, output):
            failed += 1
    result = {"attempted": attempted, "failed": failed, "op_s": times, "ref_s": ref_times}
    if tracer is not None:
        layers = {k: statistics.median_low(op[k] for op in per_op) for k in per_op[0]}
        layers["trace.overhead_frac"] = (
            statistics.median(traced_times) / statistics.median(times) - 1
        )
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--goldens")
    parser.add_argument("--spans-out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_nckit()
    import workloads
    from tracer import Tracer

    workload = workloads.make_workload(args.workload, args.size,
                                       args.goldens or workloads.GOLDENS)
    caches = package_caches()
    clear_cold(caches)
    workload.setup()
    rng = random.Random(f"{args.workload}:{args.seed}")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    result = measure(workload, caches, args.seconds, rng, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None and args.spans_out:
        Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.spans_out).write_text(json.dumps(
            {"fields": ["op", "id", "parent", "name", "start", "end"],
             "spans": tracer.spans}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
