"""polykernel benchmark: three seeded workloads, end-to-end and per layer.

  python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 bench/run.py --compare BASE.jsonl NEW.jsonl
  python3 bench/run.py --self-check

Run from the root of a checkout.  A run measures in fresh processes that
import polykernel from the checkout's src/ (nothing is installed).  With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with
--trace 1 it reports the per-layer metrics from a separate traced run.
Every output is checked against the benchmark's own oracles, computed after
the timed window.  The last line of stdout is the result object; each run is
also appended, with its run context, to .bench_out/runs.jsonl, which
--compare reads.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / ".bench_out"
# Fresh processes timing the set-up, half before the workload and half after,
# so they do not all fall in one slow phase of a shared machine.
SETUP_PROBES = 6
# One polykernel process, one thread: BLAS and OpenMP pools pinned to 1.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_CODE = f"""\
import sys
sys.path.insert(0, {str(HERE)!r})
from time import perf_counter
import calibration
with calibration.Sampler() as s:
    t0 = perf_counter()
    import polykernel, polykernel.cli
    polykernel.cli.build_parser()
    t1 = perf_counter()
import json
print(json.dumps([t1 - t0 - s.spent, t0, t1, list(s.at), list(s.cost),
                  polykernel.__file__]))
"""
SUITE_ROWS = 17
SUITE_TOL = 1e-6


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# --- child processes ---------------------------------------------------------

def _env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def _child(args, timeout):
    try:
        proc = subprocess.run([sys.executable, "-s", *args], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[:2]} ran past {timeout} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[:2]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def measure_setup(n) -> list:
    """[(raw seconds, scaled seconds)] of n fresh processes that each import
    polykernel and build the CLI parser."""
    src = (ROOT / "src").resolve()
    out = []
    for _ in range(n):
        t, t0, t1, at, cost, path = json.loads(_child(["-c", SETUP_CODE], 60))
        if Path(path).resolve().parent.parent != src:
            raise BenchError(f"polykernel imported from {path}, not {src}")
        out.append((t, t * calibration.scale_factor(at, cost, t0, t1)))
    return out


def run_worker(workload, seed, seconds=None, count=None, trace=False, spans=None):
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    args += ["--seconds", repr(seconds)] if count is None else ["--count", str(count)]
    if trace:
        args.append("--trace")
    if spans:
        args += ["--spans", str(spans)]
    return json.loads(_child(args, 170).splitlines()[-1])


# --- correctness -------------------------------------------------------------

def _rel(value, ref):
    return abs(value - ref) / abs(ref)


def _check_suite(out):
    rc, text = out
    if rc != 0:
        return f"suite exited {rc}"
    rows = text.strip().splitlines()
    if rows[0] != "index,theorem,nu,m,lhs,rhs,rel_err,status" or len(rows) != SUITE_ROWS + 1:
        return "suite CSV has the wrong shape"
    for row in rows[1:]:
        cells = row.split(",")
        lhs, rhs, status = float(cells[4]), float(cells[5]), cells[7]
        if status != "pass" or not _rel(rhs, lhs) <= SUITE_TOL:
            return f"suite row {cells[0]} ({cells[1]}): {status}, lhs {lhs!r} rhs {rhs!r}"
    return None


def check(spec, op):
    """None when the operation's output is correct, else the reason."""
    err, out = op[3], op[4]
    if err:
        return err
    kind = spec[0]
    if kind == "suite":
        return _check_suite(out)
    if kind == "verify":
        cfg = spec[1]
        status, lhs, _rhs, rel_err = out
        if status != "pass" or not rel_err <= cfg["tol"]:
            return f"{cfg['theorem']}: status {status}, rel_err {rel_err!r}"
        ref = oracles.certificate_lhs(cfg)
        if not _rel(lhs, ref) <= oracles.LHS_BUDGET:
            return f"{cfg['theorem']}: lhs {lhs!r} against mpmath {ref!r}"
        return None
    if kind == "cli":
        rc, value = out
        if rc != 0:
            return f"expand {spec[2]['kind']} exited {rc}"
        name, params, tol = spec[2]["kind"], spec[2], workloads.CLI_TOL
    else:
        value = out[0]
        name, params, tol = spec[1], spec[2], workloads.LIB_TOL
    ref = oracles.expansion_value(name, params)
    cond = oracles.expansion_condition(name, params)
    if not _rel(value, ref) <= oracles.EXPANSION_BUDGET * (tol + oracles.EPS * cond):
        return f"{name}: {value!r} against direct {ref!r} (cond {cond:.3g})"
    return None


def failures(workload, seed, ops):
    specs = workloads.first(workload, seed, len(ops))
    return [(i, reason) for i, (spec, op) in enumerate(zip(specs, ops))
            if (reason := check(spec, op)) is not None]


# --- metrics -----------------------------------------------------------------

def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def scaled_latencies(report):
    at, cost = report["probe_at"], report["probe_cost"]
    return [op[0] * calibration.scale_factor(at, cost, op[1], op[2])
            for op in report["ops"]]


def end_to_end(report, failed, setup):
    """Metrics on the calibrated scale (see calibration.py), and raw."""
    out = {}
    for kind, lat, setup_s in (
            ("scaled", scaled_latencies(report), [p[1] for p in setup]),
            ("raw", [op[0] for op in report["ops"]], [p[0] for p in setup])):
        # A failed operation misses every latency limit.
        busy = sum(lat)
        ms = sorted(1e3 * (busy if i in failed else t) for i, t in enumerate(lat))
        out[kind] = {"setup_s": statistics.median(setup_s),
                     "ops_per_s": (len(lat) - len(failed)) / busy,
                     "op_ms_p50": statistics.median(ms),
                     "op_ms_p90": _p90(ms) if len(ms) > 1 else ms[0]}
    return out


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def context(worker_report):
    commit = "unknown"
    if shutil.which("git") and (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        import mpmath
        mpmath_version = mpmath.__version__
    except ImportError:
        mpmath_version = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "machine": platform.machine(),
            "python": worker_report["python"], "numpy": worker_report["numpy"],
            "mpmath": mpmath_version, "threads": PINNED, "commit": commit}


def measure(workload, seed, seconds, trace):
    """One run: (result object, extra record fields)."""
    if not (ROOT / "src" / "polykernel" / "__init__.py").is_file():
        raise BenchError(f"no polykernel sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    spec = _spec()
    if trace:
        spans = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
        traced = run_worker(workload, seed, seconds, trace=True, spans=spans)
        if not traced["restored"]:
            raise BenchError("the traced run left wrappers in place")
        plain = run_worker(workload, seed, count=len(traced["ops"]))
        failed = dict(failures(workload, seed, traced["ops"]))
        failed.update(failures(workload, seed, plain["ops"]))
        overhead = sum(scaled_latencies(traced)) / sum(scaled_latencies(plain))
        values = dict(traced["per_layer"], **{"trace.overhead": overhead})
        wanted = spec["per_layer"]
        report, extra = traced, {"spans_file": str(spans.relative_to(ROOT)),
                                 "spans": traced["spans"]}
    else:
        half = SETUP_PROBES // 2
        setup = measure_setup(half)
        report = run_worker(workload, seed, seconds)
        setup += measure_setup(SETUP_PROBES - half)
        failed = dict(failures(workload, seed, report["ops"]))
        both = end_to_end(report, failed, setup)
        values = dict(both["scaled"], peak_rss_mb=report["peak_rss_mb"])
        wanted = spec["end_to_end"]
        extra = {"raw": both["raw"]}
    attempted = len(report["ops"])
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    extra.update(context=context(report), error_rate=len(failed) / attempted,
                 failures=[f"op {i}: {r}" for i, r in sorted(failed.items())[:20]])
    return result, extra


# --- compare -----------------------------------------------------------------

def _quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    return tuple(statistics.quantiles(vals, n=4))


def verdict(base, new, better, bound):
    """Verdict for one workload x metric: a win needs 9 in 10 paired wins and
    a median gain beyond the base's quartile spread; a regression is a median
    worse by more than the bound; a spread wider than the bound is
    unresolved unless every new run beats every base run."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bmed, b3 = _quartiles(base)
    n1, nmed, n3 = _quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    gain = sign * (nmed - bmed)
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    spread = max((b3 - b1) / abs(bmed), (n3 - n1) / abs(nmed)) if bmed and nmed else 0.0
    if spread > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(bmed):
        return "regression"
    if wins >= 0.9 * len(pairs) and gain > b3 - b1:
        return f"win ({wins}/{len(pairs)} pairs)"
    return "no change"


def _load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def compare(base_path, new_path):
    """Median and quartiles per workload x metric; runs paired by seed."""
    spec = _spec()
    kinds = {m["name"]: m for m in spec["end_to_end"]}
    base, new = _load(base_path), _load(new_path)
    print(f"{'workload':15s} {'metric':45s} {'base median [q1, q3]':>32s}"
          f" {'new median [q1, q3]':>32s}  verdict")
    for key in sorted(set(base) & set(new)):
        b_runs = {r["seed"]: r for r in base[key]}
        n_runs = {r["seed"]: r for r in new[key]}
        seeds = sorted(set(b_runs) & set(n_runs))
        if not seeds:
            continue
        for name in b_runs[seeds[0]]["result"]["metrics"]:
            bv = [b_runs[s]["result"]["metrics"][name]["value"] for s in seeds]
            nv = [n_runs[s]["result"]["metrics"][name]["value"] for s in seeds]
            m = kinds.get(name)
            call = verdict(bv, nv, m["better"], m["bound"]) if m else "-"
            bq, nq = _quartiles(bv), _quartiles(nv)
            print(f"{key[0]:15s} {name:45s} {bq[1]:12.5g} [{bq[0]:.5g}, {bq[2]:.5g}]"
                  f" {nq[1]:12.5g} [{nq[0]:.5g}, {nq[2]:.5g}]  {call}")


# --- self-check --------------------------------------------------------------

def self_check():
    """Fast smoke test of the benchmark's own machinery; exit 1 on failure."""
    problems = []
    for w in workloads.WORKLOADS:
        a, b = workloads.first(w, 1, 400), workloads.first(w, 1, 400)
        if a != b:
            problems.append(f"{w}: seed 1 gives two different streams")
        if a == workloads.first(w, 2, 400):
            problems.append(f"{w}: seeds 1 and 2 give the same stream")

    # Wrappers reach every binding and are all gone afterwards.
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    from polykernel import expansions, polyspherical, verify

    before = tracer.bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        for name, obj in (("expansions.legendre_q_hat", expansions.legendre_q_hat),
                          ("verify.legendre_q_hat", verify.legendre_q_hat),
                          ("polyspherical.jacobi_p", polyspherical.jacobi_p),
                          ("verify._VERIFIERS['C4.3']", verify._VERIFIERS["C4.3"])):
            if not hasattr(obj, "__wrapped__"):
                problems.append(f"tracer did not wrap {name}")
    finally:
        tr.restore()
    after = tracer.bindings()
    if any(after.get(k) != v for k, v in before.items()):
        problems.append("tracer.restore() left a binding changed")

    # Every metric of BENCHMARK.json is emitted, with its unit, by a short run.
    spec = _spec()
    for w in workloads.WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                problems.append(f"{w} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            res = json.loads(proc.stdout.splitlines()[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != {m["name"]: m["unit"] for m in wanted}:
                problems.append(f"{w} trace {trace}: metrics differ from BENCHMARK.json")
            if not res["correct"]:
                problems.append(f"{w} trace {trace}: outputs failed their checks")
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


# --- entry -------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result, extra = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    ctx = extra.pop("context")
    raw = extra.get("raw", {})
    for name, m in result["metrics"].items():
        note = f"  (raw {raw[name]:.6g})" if name in raw else ""
        print(f"{args.workload:15s} {name:45s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"{args.workload:15s} {'error_rate':45s} {extra['error_rate']:14.6g}"
          f" ({result['failed']} of {result['attempted']} attempted)")
    for line in extra["failures"]:
        print("  failed", line)
    print(json.dumps({"context": ctx}))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "context": ctx, **extra, "result": result}
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
