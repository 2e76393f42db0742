"""Command-line front door: evaluate, expand, enumerate, verify.

Reports are machine-readable: JSON objects under the "polykernel/1" schema
with every numeric field printed to 17 significant digits (round-trip safe),
or CSV convergence tables with header ``level,index,term,partial,rel_err``.
Identical invocations (including --seed) produce byte-identical output.

Exit codes: 0 success/pass, 1 verification math failure (the two sides of a
`verify` disagree), 2 tree parse error, 3 exclusion-set violation,
4 non-convergence, 5 truncation insufficient, 6 invalid input (a usage
error such as a malformed option value, an unknown subcommand or a missing
argument, an argument outside a function's domain, a pole, an argument
too close to a singular point, or a result beyond double range).  Exit 6
covers a --tol that is not a positive finite number, a --max-terms below 1,
a --q outside [2, MAX_Q] or --d below 3, a tree more than
polyspherical.MAX_TREE_DEPTH nodes deep, a certificate whose node tables or
weight vectors would hold more than verify.MAX_TABLE_ENTRIES entries, and
one whose rho (the cos/sin product on the path to the distinguished leaf)
underflows or whose chi or fold weights leave double range.  A kernel, z,
chi, radial factor or certificate lhs or rhs that is not a normal double, and
an expansion whose terms cancel past double precision, raise DomainError
naming their inputs (exit 6); the expansions carry their prefactors as logs.
"""

from __future__ import annotations

import argparse
import itertools
import math
import random
import re
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
MAX_Q = 6       # the largest Hopf-tree q (on R^(2^q)); see _geometry

# The first matching error type sets the exit code.  Every other library error
# (a pole, the near-one guard, a domain error) is input the functions are not
# defined for; exit 1 is kept for a verification whose two sides disagree.
_ERROR_EXIT = ((TreeParseError, EXIT_PARSE), (ExclusionSetError, EXIT_EXCLUSION),
               (ConvergenceError, EXIT_NO_CONVERGENCE),
               ((PolyKernelError, ValueError, OverflowError), EXIT_INVALID_INPUT))


# --- deterministic serialization --------------------------------------------

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


def _fmt_leaf(obj) -> str:
    """A scalar or an empty container."""
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return _fmt_string(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return format(obj, ".17g")
        return '"nan"' if math.isnan(obj) else '"inf"' if obj > 0 else '"-inf"'
    if isinstance(obj, (dict, list, tuple)):
        return "{}" if isinstance(obj, dict) else "[]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit_json(obj, indent: int = 0) -> str:
    """Serialize with insertion-ordered keys and .17g floats.

    Iterative, so any depth serializes: the stack holds each open container's
    (prefix, value) entries still to write, its closing bracket and indent.
    """
    out = []
    stack = [(iter((("", obj),)), "", indent - 1)]     # obj as a one-entry container
    while stack:
        entries, close, level = stack[-1]
        for prefix, value in entries:
            out.append(prefix)
            if not isinstance(value, (dict, list, tuple)) or not value:
                out.append(_fmt_leaf(value))
                continue
            pad_in = "\n" + "  " * (level + 2)
            if isinstance(value, dict):
                heads = [f",{pad_in}{_fmt_string(str(k))}: " for k in value]
                values, brackets = value.values(), "{}"
            else:
                heads, values, brackets = ["," + pad_in] * len(value), value, "[]"
            heads[0] = heads[0][1:]
            out.append(brackets[0])
            stack.append((zip(heads, values), brackets[1], level + 1))
            break
        else:
            stack.pop()
            out.append("\n" + "  " * level + close if stack else "")
    return "".join(out)


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

def _series(fn, oracle, *oracle_params):
    """Row runner: expansions.<fn>(*params, tr, trace) against the direct
    oracle expansions.<oracle>(*those params), both looked up at call time."""
    def run(params, tr, trace):
        ps = getattr(expansions, fn)(*params.values(), tr, trace)
        return ps, getattr(expansions, oracle)(*(params[k] for k in oracle_params))
    return run


def _azimuthal(params, tr, trace):
    """x = (R, 0, 0) and x' = (Rp cos dphi, Rp sin dphi, h); reports chi too."""
    nu, R, Rp, h, dphi = params.values()
    expansions._check_power_exclusion(nu)
    g = KernelGeometry(x=np.array([R, 0.0, 0.0]),
                       xp=np.array([Rp * math.cos(dphi), Rp * math.sin(dphi), h]))
    ps = expansions.azimuthal_power(nu, g, tr, trace)
    oracle = g.distance ** nu
    params["chi"] = g.chi
    return ps, oracle


def _fourier_int(params, tr, trace):
    """The exact (p+1)-term sum, reported as a converged PartialSum."""
    p, z, x = params.values()
    value = expansions.fourier_integer_power(p, z, x)
    return (expansions.PartialSum(value=value, terms_used=p + 1, last_term_magnitude=0.0,
                                  converged=True), (z - x) ** p)


_EULER = ("euler_kernel_direct", "nu", "z", "x")

# expansion id -> (parameters in call and report order, row runner)
_EXPANSIONS = {
    "jacobi": (("nu", "alpha", "beta", "z", "x"), _series("euler_kernel_jacobi", *_EULER)),
    "gegenbauer": (("nu", "mu", "z", "x"), _series("euler_kernel_gegenbauer", *_EULER)),
    "chebyshev": (("nu", "z", "x"), _series("euler_kernel_chebyshev", *_EULER)),
    "multipole": (("d", "nu", "r", "rp", "cosg"),
                  _series("multipole_power", "distance_power_direct", "nu", "r", "rp", "cosg")),
    "azimuthal": (("nu", "R", "Rp", "h", "dphi"), _azimuthal),
    "fourier-int": (("p", "z", "x"), _fourier_int),
    # (z - x)^(-q) is the Euler kernel at nu = q
    "fourier-neg": (("q", "z", "x"),
                    _series("fourier_negative_power", "euler_kernel_direct", "q", "z", "x")),
}

# Every expansion parameter's flag default (its type is the default's), in
# --help order.
_EXPAND_DEFAULTS = {"nu": 1.0, "alpha": 0.0, "beta": 0.0, "mu": 0.5, "z": 2.0, "x": 0.0,
                    "p": 2, "q": 1, "d": 3, "r": 1.0, "rp": 2.0, "cosg": 0.3,
                    "R": 1.0, "Rp": 1.5, "h": 1.0, "dphi": 1.0}


def _rel_err(value, oracle):
    return abs(value - oracle) / abs(oracle) if oracle != 0.0 else math.inf


def cmd_expand(args) -> int:
    tr = expansions.Truncation(tol=args.tol, max_terms=args.max_terms)
    trace: list | None = [] if (args.trace or args.format == "csv") else None
    names, run = _EXPANSIONS[args.expansion]
    params = {name: getattr(args, name) for name in names}
    ps, oracle = run(params, tr, trace)
    rows = [(*row, _rel_err(row[3], oracle)) for row in trace or []]
    if args.format == "csv":
        lines = ["level,index,term,partial,rel_err"]
        lines += [f"{level},{index},{format(term, '.17g')},{format(partial, '.17g')},"
                  f"{format(row_err, '.17g')}" for level, index, term, partial, row_err in rows]
        _write_output("\n".join(lines) + "\n", args.out)
        return EXIT_PASS
    report = {"schema": SCHEMA, "command": f"expand {args.expansion}",
              "params": params, "tol": args.tol, "max_terms": args.max_terms,
              "value": ps.value, "direct_oracle": oracle, "rel_err": _rel_err(ps.value, oracle),
              "terms_used": ps.terms_used, "converged": ps.converged}
    if args.trace:
        report["per_term"] = [dict(zip(("level", "index", "term", "partial", "rel_err"), row))
                              for row in rows]
    _write_output(emit_json(report), args.out)
    return EXIT_PASS


# --- verify ------------------------------------------------------------------

def _geometry(theorem, rng, d=3, q=2, texts=(None,) * 4):
    """TheoremConfig keywords d, q, thetas, thetasp, phis, phisp of a theorem id.

    C4.3/C4.4 fix d and C4.5 fixes q, and the tree sets how many polar angles
    and azimuths a point has.  Each list is parsed from its comma-separated
    text or, where that is None, drawn from rng in this order: polar angles
    0.3 inside their range, azimuths from [0, 2 pi).  q is checked against
    MAX_Q before any angle is drawn: the lists double in length with q, and
    the certificate's node tables grow faster still, so a larger q has no
    use and an unchecked one (--q 40) would exhaust memory drawing angles.
    """
    d = {"C4.3": 3, "C4.4": 4}.get(theorem, d)
    q = 2 if theorem == "C4.5" else q
    if theorem in ("T4.2", "C4.5"):
        if q < 2:
            raise ValueError("need q >= 2")
        if q > MAX_Q:
            raise ValueError(f"need q <= {MAX_Q}")
        n_theta = n_phi = 2 ** (q - 1) - 1     # heap-ordered c nodes; phi_2, phi_3, ...
        hi = 0.5 * math.pi
    else:
        if d < 3:
            raise ValueError("need d >= 3")
        n_theta, n_phi, hi = d - 2, 0, math.pi
    ranges = ((n_theta, 0.3, hi - 0.3),) * 2 + ((n_phi, 0.0, 2.0 * math.pi),) * 2
    out = {"d": d, "q": q}
    for key, text, (n, lo, hi) in zip(("thetas", "thetasp", "phis", "phisp"), texts, ranges):
        if text is None:
            out[key] = tuple(rng.uniform(lo, hi) for _ in range(n))
            continue
        out[key] = tuple(float(t) for t in text.split(",") if t.strip())
        if len(out[key]) != n:
            raise ValueError(f"--{key} expects {n} comma-separated values")
    return out


def _build_config(args) -> verify.TheoremConfig:
    """The theorem id presets the tree, and with it how many angles of each
    kind a point has and the range the defaults are drawn from."""
    geometry = _geometry(args.theorem, random.Random(args.seed), args.d, args.q,
                         (args.thetas, args.thetasp, args.phis, args.phisp))
    return verify.TheoremConfig(theorem=args.theorem, nu=args.nu, m=args.m, r=args.r,
                                rp=args.rp, caps=args.caps, tol=args.tol, **geometry)


def _report_to_dict(cfg, rep):
    return {"theorem": rep.theorem, "nu": cfg.nu, "m": cfg.m,
            "r": cfg.r, "rp": cfg.rp, "caps": cfg.caps,
            "lhs": rep.lhs, "rhs": rep.rhs, "abs_err": rep.abs_err,
            "rel_err": rep.rel_err, "terms_used": rep.terms_used,
            "tail_estimate": rep.tail_estimate, "tolerance": rep.tolerance,
            "status": rep.status, "pass": rep.passed}


_STATUS_EXIT = {"pass": EXIT_PASS, "truncation_insufficient": EXIT_TRUNCATION,
                "fail": EXIT_MATH_FAIL}


def cmd_verify(args) -> int:
    if args.suite:
        return _run_suite(args)
    cfg = _build_config(args)
    rep = verify.run_verification(cfg)
    report = {"schema": SCHEMA, "command": f"verify {cfg.theorem}",
              "seed": args.seed, **_report_to_dict(cfg, rep)}
    _write_output(emit_json(report), args.out)
    return _STATUS_EXIT[rep.status]


# The acceptance matrix: (nu values, m values, tol, (label, verifier) members).
# Each group loops over nu, then m, then its members, and every row draws its
# angles in that order; a label names its theorem id before any "-elem".
_SUITE = (
    ((-1.0, -2.5), (0, 1, 2), 1e-6, (("C4.3", "verify_ba"),)),
    ((-2.0,), (0, 1), 1e-6, (("C4.4", "verify_b2a"),)),
    ((-2.0,), (0, 1), 1e-6, (("C4.5", "verify_ca2"),)),
    ((-1.0,), (0, 1, 2), 1e-8, (("C4.3-elem", "ba_elementary_rhs"),)),
    ((-2.0,), (0, 1), 1e-8, (("C4.4-elem", "b2a_elementary_rhs"),
                             ("C4.5-elem", "ca2_elementary_rhs"))),
)


def _suite_configs(seed: int):
    """(label, config, verifier) rows of the acceptance matrix: theorem
    sweeps + elementary reductions, at r = 1, r' = 2, caps 80."""
    rng = random.Random(seed)
    configs = []
    for nus, ms, tol, members in _SUITE:
        for nu, m, (label, fn) in itertools.product(nus, ms, members):
            theorem = label.split("-")[0]
            configs.append((label, verify.TheoremConfig(
                theorem=theorem, nu=nu, m=m, r=1.0, rp=2.0, caps=80, tol=tol,
                **_geometry(theorem, rng)), getattr(verify, fn)))
    return configs


def _run_suite(args) -> int:
    lines = ["index,theorem,nu,m,lhs,rhs,rel_err,status"]
    worst = EXIT_PASS
    for idx, (label, cfg, fn) in enumerate(_suite_configs(args.seed)):
        rep = fn(cfg)
        worst = max(worst, _STATUS_EXIT[rep.status])
        lines.append(f"{idx},{label},{format(cfg.nu, '.17g')},{cfg.m},"
                     f"{format(rep.lhs, '.17g')},{format(rep.rhs, '.17g')},"
                     f"{format(rep.rel_err, '.17g')},{rep.status}")
    _write_output("\n".join(lines) + "\n", args.out)
    return worst


# --- parser ------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reports a usage error as invalid input: it
    writes the usage line and raises ValueError, which `main` turns into
    exit 6 where argparse would exit 2, the tree-parse code.  Any argument
    that starts with -digit or -.digit is a value, as in ``--x -1e-3`` or
    ``--phis -1,2``, where argparse takes only plain decimals.  Its
    subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p_exp.add_argument("expansion", choices=list(_EXPANSIONS))
    for name, default in _EXPAND_DEFAULTS.items():
        p_exp.add_argument(f"--{name}", type=type(default), default=default)
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
    try:
        args = parser.parse_args(argv)
        if args.command == "verify" and not args.suite and args.theorem is None:
            parser.error("verify needs a theorem id or --suite")
        return args.func(args)
    except (PolyKernelError, ValueError, OverflowError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for kinds, code in _ERROR_EXIT if isinstance(exc, kinds))

if __name__ == "__main__":
    sys.exit(main())
