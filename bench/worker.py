"""Execute one workload's operation stream in this process; print JSON.

Started by run.py in a fresh interpreter per run, with PYTHONPATH pointing
at the checkout's src/.  The loop is closed: one caller, the next operation
starts when the previous one returns.  Only the operation itself is inside a
latency window; decoding its output and bookkeeping happen between windows.

  python3 bench/worker.py --workload W --seed N (--seconds S | --count N)
                          [--trace] [--spans PATH]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import polykernel
from polykernel import cli, expansions, kernels, verify

import calibration
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _cli_call(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def execute(spec):
    """Run one operation; return its raw output."""
    kind = spec[0]
    if kind == "verify":
        cfg = {k: tuple(v) if isinstance(v, list) else v for k, v in spec[1].items()}
        rep = verify.run_verification(verify.TheoremConfig(**cfg))
        return rep.status, rep.lhs, rep.rhs, rep.rel_err
    if kind == "suite":
        return _cli_call(["verify", "--suite", "--seed", str(spec[1])])
    if kind == "cli":
        return _cli_call(spec[1])
    fn, p = spec[1], spec[2]
    if fn == "azimuthal_power":
        g = kernels.KernelGeometry(
            x=np.array([p["R"], 0.0, 0.0]),
            xp=np.array([p["Rp"] * math.cos(p["dphi"]), p["Rp"] * math.sin(p["dphi"]),
                         p["h"]]))
        ps = expansions.azimuthal_power(p["nu"], g)
    else:
        ps = getattr(expansions, fn)(**p)
    if isinstance(ps, float):            # fourier_integer_power: exact sum
        return ps, p["p"] + 1
    return ps.value, ps.terms_used


def summarize(spec, out):
    """Compact, JSON-safe form of an operation's output."""
    if spec[0] == "cli":
        rc, text = out
        return [rc, json.loads(text)["value"] if rc == 0 else None]
    return list(out)


def run(workload, seed, sampler, seconds=None, count=None, trace=None):
    """Closed loop over the stream; each op is [latency, start, end, error,
    output], the latency net of the speed sampler's handler time.  A timed
    run stops on the first cycle boundary past the deadline."""
    ops = []
    deadline = perf_counter() + seconds if seconds is not None else None
    prefix, cycle = workloads.PREFIX[workload], workloads.CYCLE[workload]
    for i, spec in enumerate(workloads.stream(workload, seed)):
        if count is not None and i >= count:
            break
        at_boundary = i > prefix and (i - prefix) % cycle == 0
        if deadline is not None and at_boundary and perf_counter() >= deadline:
            break
        if trace is not None:
            trace.op = i
        spent = sampler.spent
        t0 = perf_counter()
        try:
            out = execute(spec)
            err = None
        except Exception as exc:  # a failed operation is data, not a crash
            out = None
            err = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        lat = t1 - t0 - (sampler.spent - spent)
        ops.append([lat, t0, t1, err, None if err else summarize(spec, out)])
    return ops


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--count", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if Path(polykernel.__file__).resolve().parent.parent != src:
        sys.stderr.write(f"polykernel was imported from {polykernel.__file__},"
                         f" not from {src}\n")
        return 2

    report = {"python": sys.version.split()[0], "numpy": np.__version__}
    with calibration.Sampler() as sampler:
        for spec in workloads.warmup(args.workload):
            execute(spec)
        if args.trace:
            before = tracer.bindings()
            tr = tracer.Tracer()
            tr.install()
            try:
                ops = run(args.workload, args.seed, sampler, args.seconds,
                          args.count, tr)
            finally:
                tr.restore()
            report["restored"] = all(tracer.bindings().get(k) == v
                                     for k, v in before.items())
            report["per_layer"] = tr.metrics(sum(op[0] for op in ops))
            report["spans"] = len(tr.span_t0) + tr.dropped
        else:
            ops = run(args.workload, args.seed, sampler, args.seconds, args.count)
    if args.trace and args.spans:
        tr.write_spans(args.spans)
    report.update(ops=ops, probe_at=list(sampler.at), probe_cost=list(sampler.cost),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
