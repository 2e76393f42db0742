"""Command-line front door: evaluate, expand, enumerate, verify.

Reports are machine-readable: JSON objects under the "polykernel/1" schema
with every numeric field printed to 17 significant digits (round-trip safe),
or CSV convergence tables with header ``level,index,term,partial,rel_err``.
Identical invocations (including --seed) produce byte-identical output.

Exit codes: 0 success/pass, 1 verification math failure (the two sides of a
`verify` disagree), 2 tree parse error, 3 exclusion-set violation,
4 non-convergence, 5 truncation insufficient, 6 invalid input (a malformed
option value, an argument outside a function's domain, a pole, an argument
too close to a singular point, or a result beyond double range).
"""

from __future__ import annotations

import argparse
import math
import random
import sys

import numpy as np

from . import expansions, polyspherical, verify
from .errors import (
    ConvergenceError,
    ExclusionSetError,
    PolyKernelError,
    TreeParseError,
)
from .kernels import KernelGeometry

EXIT_PASS = 0
EXIT_MATH_FAIL = 1
EXIT_PARSE = 2
EXIT_EXCLUSION = 3
EXIT_NO_CONVERGENCE = 4
EXIT_TRUNCATION = 5
EXIT_INVALID_INPUT = 6

SCHEMA = "polykernel/1"


# --- deterministic serialization --------------------------------------------

def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if math.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        if math.isnan(x):
            return '"nan"'
        return format(x, ".17g")
    raise TypeError(f"not a number: {x!r}")


def _fmt_string(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def emit_json(obj, indent: int = 0) -> str:
    """Serialize with insertion-ordered keys and .17g floats."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _fmt_string(obj)
    if isinstance(obj, (bool, int, float)):
        return _fmt_number(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f"{pad_in}{_fmt_string(str(k))}: {emit_json(v, indent + 1)}"
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad_in}{emit_json(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_output(text: str, out_path: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tree_to_dict(node):
    if node is None:
        return {"leaf": True}
    return {
        "type": node.kind,
        "index": node.index,
        "leaves": node.leaf_count,
        "children": [_tree_to_dict(node.left), _tree_to_dict(node.right)],
    }


# --- trees -------------------------------------------------------------------

def cmd_trees(args) -> int:
    if args.subcommand == "count" or args.subcommand == "classes":
        rows = [{"d": d,
                 "trees": polyspherical.count_trees(d),
                 "classes": polyspherical.count_equivalence_classes(d)}
                for d in range(2, args.dmax + 1)]
        report = {"schema": SCHEMA, "command": f"trees {args.subcommand}",
                  "dmax": args.dmax, "rows": rows}
        _write_output(emit_json(report), args.out)
        return EXIT_PASS
    tree = polyspherical.parse_tree(args.spec)
    if args.subcommand == "parse":
        report = {"schema": SCHEMA, "command": "trees parse", "input": args.spec,
                  "type": polyspherical.format_tree(tree),
                  "dimension": tree.dimension,
                  "branching_nodes": tree.n_angles,
                  "root": _tree_to_dict(tree.root)}
    else:  # format
        report = {"schema": SCHEMA, "command": "trees format", "input": args.spec,
                  "type": polyspherical.format_tree(tree),
                  "dimension": tree.dimension}
    _write_output(emit_json(report), args.out)
    return EXIT_PASS


# --- expand ------------------------------------------------------------------

def _expand_dispatch(args, tr, trace):
    eid = args.expansion
    if eid == "jacobi":
        ps = expansions.euler_kernel_jacobi(args.nu, args.alpha, args.beta,
                                            args.z, args.x, tr, trace)
        oracle = expansions.euler_kernel_direct(args.nu, args.z, args.x)
        params = {"nu": args.nu, "alpha": args.alpha, "beta": args.beta,
                  "z": args.z, "x": args.x}
    elif eid == "gegenbauer":
        ps = expansions.euler_kernel_gegenbauer(args.nu, args.mu, args.z,
                                                args.x, tr, trace)
        oracle = expansions.euler_kernel_direct(args.nu, args.z, args.x)
        params = {"nu": args.nu, "mu": args.mu, "z": args.z, "x": args.x}
    elif eid == "chebyshev":
        ps = expansions.euler_kernel_chebyshev(args.nu, args.z, args.x, tr, trace)
        oracle = expansions.euler_kernel_direct(args.nu, args.z, args.x)
        params = {"nu": args.nu, "z": args.z, "x": args.x}
    elif eid == "multipole":
        ps = expansions.multipole_power(args.d, args.nu, args.r, args.rp,
                                        args.cosg, tr, trace)
        oracle = expansions.distance_power_direct(args.nu, args.r, args.rp, args.cosg)
        params = {"d": args.d, "nu": args.nu, "r": args.r, "rp": args.rp,
                  "cosg": args.cosg}
    elif eid == "azimuthal":
        expansions._check_power_exclusion(args.nu)
        x1 = np.array([args.R, 0.0, 0.0])
        x2 = np.array([args.Rp * math.cos(args.dphi),
                       args.Rp * math.sin(args.dphi), args.h])
        g = KernelGeometry(x=x1, xp=x2)
        ps = expansions.azimuthal_power(args.nu, g, tr, trace)
        oracle = g.distance ** args.nu
        params = {"nu": args.nu, "R": args.R, "Rp": args.Rp, "h": args.h,
                  "dphi": args.dphi, "chi": g.chi}
    elif eid == "fourier-int":
        value = expansions.fourier_integer_power(args.p, args.z, args.x)
        oracle = (args.z - args.x) ** args.p
        params = {"p": args.p, "z": args.z, "x": args.x}
        ps = expansions.PartialSum(value=value, terms_used=args.p + 1,
                                   last_term_magnitude=0.0, converged=True)
    elif eid == "fourier-neg":
        ps = expansions.fourier_negative_power(args.q, args.z, args.x, tr, trace)
        oracle = (args.z - args.x) ** (-args.q)
        params = {"q": args.q, "z": args.z, "x": args.x}
    else:
        raise ValueError(f"unknown expansion {eid!r}")
    return ps, oracle, params


def cmd_expand(args) -> int:
    tr = expansions.Truncation(tol=args.tol, max_terms=args.max_terms)
    trace: list | None = [] if (args.trace or args.format == "csv") else None
    ps, oracle, params = _expand_dispatch(args, tr, trace)
    rel_err = abs(ps.value - oracle) / abs(oracle) if oracle != 0.0 else math.inf
    if args.format == "csv":
        lines = ["level,index,term,partial,rel_err"]
        for level, index, term, partial in trace or []:
            row_err = abs(partial - oracle) / abs(oracle) if oracle else math.inf
            lines.append(f"{level},{index},{format(term, '.17g')},"
                         f"{format(partial, '.17g')},{format(row_err, '.17g')}")
        _write_output("\n".join(lines) + "\n", args.out)
        return EXIT_PASS
    report = {"schema": SCHEMA, "command": f"expand {args.expansion}",
              "params": params, "tol": args.tol, "max_terms": args.max_terms,
              "value": ps.value, "direct_oracle": oracle, "rel_err": rel_err,
              "terms_used": ps.terms_used, "converged": ps.converged}
    if args.trace:
        report["per_term"] = [
            {"level": level, "index": index, "term": term, "partial": partial,
             "rel_err": (abs(partial - oracle) / abs(oracle) if oracle else math.inf)}
            for level, index, term, partial in trace or []]
    _write_output(emit_json(report), args.out)
    return EXIT_PASS


# --- verify ------------------------------------------------------------------

def _default_angles(rng, n, lo, hi):
    return tuple(rng.uniform(lo, hi) for _ in range(n))


def _angles(text, rng, n, lo, hi, label):
    """n comma-separated angles from text, or n drawn from (lo, hi) without it."""
    if text is None:
        return _default_angles(rng, n, lo, hi)
    vals = tuple(float(t) for t in text.split(",") if t.strip())
    if len(vals) != n:
        raise ValueError(f"{label} expects {n} comma-separated values")
    return vals


def _build_config(args) -> verify.TheoremConfig:
    """The theorem id presets the tree, and with it how many angles of each
    kind a point has and the range the defaults are drawn from."""
    rng = random.Random(args.seed)
    thm = args.theorem
    d = {"C4.3": 3, "C4.4": 4}.get(thm, args.d)
    q = 2 if thm == "C4.5" else args.q
    if thm in ("T4.2", "C4.5"):
        n_theta, hi, n_phi = 2 ** (q - 1) - 1, 0.5 * math.pi, 2 ** (q - 1) - 1
    else:
        n_theta, hi, n_phi = d - 2, math.pi, 0
    thetas = _angles(args.thetas, rng, n_theta, 0.3, hi - 0.3, "--thetas")
    thetasp = _angles(args.thetasp, rng, n_theta, 0.3, hi - 0.3, "--thetasp")
    phis = _angles(args.phis, rng, n_phi, 0.0, 2.0 * math.pi, "--phis")
    phisp = _angles(args.phisp, rng, n_phi, 0.0, 2.0 * math.pi, "--phisp")
    return verify.TheoremConfig(theorem=thm, nu=args.nu, m=args.m, r=args.r, rp=args.rp,
                                thetas=thetas, thetasp=thetasp, phis=phis, phisp=phisp,
                                d=d, q=q, caps=args.caps, tol=args.tol)


def _report_to_dict(cfg, rep):
    return {"theorem": rep.theorem, "nu": cfg.nu, "m": cfg.m,
            "r": cfg.r, "rp": cfg.rp, "caps": cfg.caps,
            "lhs": rep.lhs, "rhs": rep.rhs, "abs_err": rep.abs_err,
            "rel_err": rep.rel_err, "terms_used": rep.terms_used,
            "tail_estimate": rep.tail_estimate, "tolerance": rep.tolerance,
            "status": rep.status, "pass": rep.passed}


def cmd_verify(args) -> int:
    if args.suite:
        return _run_suite(args)
    cfg = _build_config(args)
    rep = verify.run_verification(cfg)
    report = {"schema": SCHEMA, "command": f"verify {cfg.theorem}",
              "seed": args.seed, **_report_to_dict(cfg, rep)}
    _write_output(emit_json(report), args.out)
    if rep.status == "pass":
        return EXIT_PASS
    if rep.status == "truncation_insufficient":
        return EXIT_TRUNCATION
    return EXIT_MATH_FAIL


def _suite_configs(seed: int):
    """The acceptance matrix: theorem sweeps + elementary reductions."""
    rng = random.Random(seed)
    configs = []
    for nu in (-1.0, -2.5):
        for m in (0, 1, 2):
            configs.append(("C4.3", verify.TheoremConfig(
                theorem="C4.3", nu=nu, m=m, r=1.0, rp=2.0,
                thetas=_default_angles(rng, 1, 0.3, math.pi - 0.3),
                thetasp=_default_angles(rng, 1, 0.3, math.pi - 0.3),
                caps=80, tol=1e-6), verify.verify_ba))
    for m in (0, 1):
        configs.append(("C4.4", verify.TheoremConfig(
            theorem="C4.4", nu=-2.0, m=m, r=1.0, rp=2.0,
            thetas=_default_angles(rng, 2, 0.3, math.pi - 0.3),
            thetasp=_default_angles(rng, 2, 0.3, math.pi - 0.3),
            caps=80, tol=1e-6), verify.verify_b2a))
    for m1 in (0, 1):
        configs.append(("C4.5", verify.TheoremConfig(
            theorem="C4.5", nu=-2.0, m=m1, r=1.0, rp=2.0,
            thetas=_default_angles(rng, 1, 0.3, 0.5 * math.pi - 0.3),
            thetasp=_default_angles(rng, 1, 0.3, 0.5 * math.pi - 0.3),
            phis=_default_angles(rng, 1, 0.0, 2.0 * math.pi),
            phisp=_default_angles(rng, 1, 0.0, 2.0 * math.pi),
            caps=80, tol=1e-6), verify.verify_ca2))
    for m in (0, 1, 2):
        configs.append(("C4.3-elem", verify.TheoremConfig(
            theorem="C4.3", nu=-1.0, m=m, r=1.0, rp=2.0,
            thetas=_default_angles(rng, 1, 0.3, math.pi - 0.3),
            thetasp=_default_angles(rng, 1, 0.3, math.pi - 0.3),
            caps=80, tol=1e-8), verify.ba_elementary_rhs))
    for m in (0, 1):
        configs.append(("C4.4-elem", verify.TheoremConfig(
            theorem="C4.4", nu=-2.0, m=m, r=1.0, rp=2.0,
            thetas=_default_angles(rng, 2, 0.3, math.pi - 0.3),
            thetasp=_default_angles(rng, 2, 0.3, math.pi - 0.3),
            caps=80, tol=1e-8), verify.b2a_elementary_rhs))
        configs.append(("C4.5-elem", verify.TheoremConfig(
            theorem="C4.5", nu=-2.0, m=m, r=1.0, rp=2.0,
            thetas=_default_angles(rng, 1, 0.3, 0.5 * math.pi - 0.3),
            thetasp=_default_angles(rng, 1, 0.3, 0.5 * math.pi - 0.3),
            phis=_default_angles(rng, 1, 0.0, 2.0 * math.pi),
            phisp=_default_angles(rng, 1, 0.0, 2.0 * math.pi),
            caps=80, tol=1e-8), verify.ca2_elementary_rhs))
    return configs


def _run_suite(args) -> int:
    rows = []
    worst = EXIT_PASS
    for idx, (label, cfg, fn) in enumerate(_suite_configs(args.seed)):
        rep = fn(cfg)
        rows.append((idx, label, cfg.nu, cfg.m, rep.lhs, rep.rhs,
                     rep.rel_err, rep.status))
        if rep.status == "truncation_insufficient":
            worst = max(worst, EXIT_TRUNCATION)
        elif rep.status != "pass":
            worst = max(worst, EXIT_MATH_FAIL)
    lines = ["index,theorem,nu,m,lhs,rhs,rel_err,status"]
    for idx, label, nu, m, lhs, rhs, rel, status in rows:
        lines.append(f"{idx},{label},{format(nu, '.17g')},{m},"
                     f"{format(lhs, '.17g')},{format(rhs, '.17g')},"
                     f"{format(rel, '.17g')},{status}")
    _write_output("\n".join(lines) + "\n", args.out)
    return worst


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polykernel",
        description="Polyharmonic kernel expansions and addition-theorem checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_trees = sub.add_parser("trees", help="naming-language utilities")
    t_sub = p_trees.add_subparsers(dest="subcommand", required=True)
    for name in ("parse", "format"):
        tp = t_sub.add_parser(name)
        tp.add_argument("spec")
        tp.add_argument("--out")
        tp.set_defaults(func=cmd_trees)
    for name in ("count", "classes"):
        tc = t_sub.add_parser(name)
        tc.add_argument("--dmax", type=int, default=13)
        tc.add_argument("--out")
        tc.set_defaults(func=cmd_trees)

    p_exp = sub.add_parser("expand", help="evaluate one expansion vs its oracle")
    p_exp.add_argument("expansion", choices=["jacobi", "gegenbauer", "chebyshev",
                                             "multipole", "azimuthal",
                                             "fourier-int", "fourier-neg"])
    p_exp.add_argument("--nu", type=float, default=1.0)
    p_exp.add_argument("--alpha", type=float, default=0.0)
    p_exp.add_argument("--beta", type=float, default=0.0)
    p_exp.add_argument("--mu", type=float, default=0.5)
    p_exp.add_argument("--z", type=float, default=2.0)
    p_exp.add_argument("--x", type=float, default=0.0)
    p_exp.add_argument("--p", type=int, default=2)
    p_exp.add_argument("--q", type=int, default=1)
    p_exp.add_argument("--d", type=int, default=3)
    p_exp.add_argument("--r", type=float, default=1.0)
    p_exp.add_argument("--rp", type=float, default=2.0)
    p_exp.add_argument("--cosg", type=float, default=0.3)
    p_exp.add_argument("--R", type=float, default=1.0)
    p_exp.add_argument("--Rp", type=float, default=1.5)
    p_exp.add_argument("--h", type=float, default=1.0)
    p_exp.add_argument("--dphi", type=float, default=1.0)
    p_exp.add_argument("--tol", type=float, default=1e-9)
    p_exp.add_argument("--max-terms", type=int, default=2000)
    p_exp.add_argument("--trace", action="store_true")
    p_exp.add_argument("--format", choices=["json", "csv"], default="json")
    p_exp.add_argument("--out")
    p_exp.set_defaults(func=cmd_expand)

    p_ver = sub.add_parser("verify", help="certify an addition theorem")
    p_ver.add_argument("theorem", nargs="?",
                       choices=["T4.1", "T4.2", "C4.3", "C4.4", "C4.5"])
    p_ver.add_argument("--suite", action="store_true",
                       help="run the acceptance matrix, emit a CSV summary")
    p_ver.add_argument("--nu", type=float, default=-1.0)
    p_ver.add_argument("--m", "--m1", type=int, default=0,
                       help="azimuthal order (m_1 on the Hopf tree)")
    p_ver.add_argument("--r", type=float, default=1.0)
    p_ver.add_argument("--rp", type=float, default=2.0)
    p_ver.add_argument("--d", type=int, default=3)
    p_ver.add_argument("--q", type=int, default=2)
    p_ver.add_argument("--thetas", "--theta",
                       help="polar angles (standard tree, theta_1 first) or heap-ordered"
                            " c-node angles (Hopf tree), comma-separated; default: drawn"
                            " from --seed")
    p_ver.add_argument("--thetasp", "--thetap", help="the same for the second point")
    p_ver.add_argument("--phis", help="Hopf-tree azimuths phi_2, phi_3, ..., comma-separated;"
                                      " default: drawn from --seed")
    p_ver.add_argument("--phisp", help="the same for the second point")
    p_ver.add_argument("--caps", type=int, default=60)
    p_ver.add_argument("--tol", type=float, default=1e-6)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out")
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and not args.suite and args.theorem is None:
        parser.error("verify needs a theorem id or --suite")
    try:
        return args.func(args)
    except TreeParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except ExclusionSetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_EXCLUSION
    except ConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_CONVERGENCE
    except (PolyKernelError, ValueError, OverflowError) as exc:
        # Every other library error (a pole, the near-one guard, a domain
        # error) is input the functions are not defined for; exit 1 is kept
        # for a verification whose two sides disagree.
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
