"""Spans around calls into polykernel's public functions, from outside.

`Tracer.install()` replaces each traced function at every place its name is
looked up: every polykernel module that binds it (``from .specfun import
legendre_q_hat`` makes ``expansions.legendre_q_hat`` a second binding) and
every module-level dict that holds it (``verify._VERIFIERS``).  `restore()`
puts every original object back.

A wrapper records a span only when the call crosses a module boundary: when
the innermost open span belongs to the same module, the call is internal
(``run_verification`` dispatching to ``verify_ca2``) and runs untraced.  So a
span's self time, its duration minus the time its child spans cover, is the
time spent in that module's own code, with cheap private helpers it calls
(``gamma_signed_log``, ``_hyp2f1_series``) counted where they run.

Spans live in typed arrays while the run lasts and are written out at the
end; the aggregates (calls, self time, work counts) are kept on the fly.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

MODULES = ("specfun", "orthopoly", "kernels", "expansions", "polyspherical",
           "verify", "cli")

EXPANSION_FNS = ("euler_kernel_chebyshev", "euler_kernel_gegenbauer",
                 "euler_kernel_jacobi", "multipole_power", "azimuthal_power",
                 "fourier_negative_power", "fourier_integer_power")

VERIFIER_FNS = ("verify_standard", "verify_hopf", "verify_ba", "verify_b2a",
                "verify_ca2", "ba_elementary_rhs", "b2a_elementary_rhs",
                "ca2_elementary_rhs")


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _degree(args, kwargs, out):
    return int(_first_arg(args, kwargs))


def _terms(args, kwargs, out):
    return out.terms_used


def _integer_terms(args, kwargs, out):
    return int(_first_arg(args, kwargs)) + 1   # the exact sum has p + 1 terms


def _verify_terms(args, kwargs, out):
    return sum(out.terms_used.values())


# (module, name) -> work counter, or None.  steps = sum of recurrence degrees;
# terms = sum of terms_used.
TARGETS = {
    ("specfun", "legendre_q_hat"): None,
    ("specfun", "jacobi_q2_signed_log"): None,
    ("orthopoly", "jacobi_p"): _degree,
    ("orthopoly", "gegenbauer_c"): _degree,
    ("orthopoly", "gegenbauer_c_all"): _degree,
    ("polyspherical", "theta_standard"): None,
    ("polyspherical", "hopf_upsilon"): None,
    ("polyspherical", "hopf_g_recursion"): None,
    ("verify", "run_verification"): _verify_terms,
    **{("verify", fn): None for fn in VERIFIER_FNS},
    **{("expansions", fn): _terms for fn in EXPANSION_FNS},
    ("expansions", "fourier_integer_power"): _integer_terms,
    ("kernels", "KernelGeometry"): None,
    ("cli", "main"): None,
}

WORK_STAT = {"orthopoly": "steps", "expansions": "terms", "verify": "terms"}

# Spans beyond this many are counted in the aggregates but not stored.
MAX_SPANS = 2_000_000


def _modules():
    return {m: importlib.import_module(f"polykernel.{m}") for m in MODULES}


def bindings():
    """Every (holder, key) -> id(object) a traced name can be looked up at.

    Used to prove the traced run left nothing patched behind.
    """
    out = {}
    for mname, mod in _modules().items():
        for key, val in vars(mod).items():
            out[(mname, key)] = id(val)
            if isinstance(val, dict) and not key.startswith("__"):
                for k, v in val.items():
                    out[(mname, key, k)] = id(v)
    return out


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{n}" for m, n in TARGETS]
        self.name_module = [MODULES.index(m) for m, _ in TARGETS]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.work = [0] * n
        self.q_keys = set()
        self.op = 0
        self.dropped = 0
        # open spans: parallel stacks of span id, module and child time
        self._sid = []
        self._mod = []
        self._child = []
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_name = array("h")
        self.span_t0 = array("d")
        self.span_t1 = array("d")
        self._patches = []

    # --- wrappers ------------------------------------------------------------

    def _wrap(self, fn, idx, counter):
        mod = self.name_module[idx]
        is_q = self.names[idx] == "specfun.legendre_q_hat"
        sid_stack, mod_stack, child_stack = self._sid, self._mod, self._child
        parent_a, op_a, name_a = self.span_parent, self.span_op, self.span_name
        t0_a, t1_a = self.span_t0, self.span_t1
        calls, self_s, work = self.calls, self.self_s, self.work
        tracer = self

        def wrapper(*args, **kwargs):
            if mod_stack and mod_stack[-1] == mod:
                return fn(*args, **kwargs)
            sid = len(t0_a)
            if sid < MAX_SPANS:
                parent_a.append(sid_stack[-1] if sid_stack else -1)
                op_a.append(tracer.op)
                name_a.append(idx)
                t0_a.append(0.0)
                t1_a.append(0.0)
            else:
                tracer.dropped += 1
                sid = -1
            sid_stack.append(sid)
            mod_stack.append(mod)
            child_stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                sid_stack.pop()
                mod_stack.pop()
                child = child_stack.pop()
                dur = t1 - t0
                if child_stack:
                    child_stack[-1] += dur
                calls[idx] += 1
                self_s[idx] += dur - child
                if sid >= 0:
                    t0_a[sid] = t0
                    t1_a[sid] = t1
            if counter is not None:
                work[idx] += counter(args, kwargs, out)
            if is_q:
                tracer.q_keys.add(tuple(map(float, args + tuple(kwargs.values()))))
            return out

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        mods = _modules()
        for idx, (mname, name) in enumerate(TARGETS):
            original = getattr(mods[mname], name)
            wrapper = self._wrap(original, idx, TARGETS[(mname, name)])
            for mod in mods.values():
                space = vars(mod)
                for key, val in list(space.items()):
                    if val is original:
                        self._patches.append((space, key, original))
                        space[key] = wrapper
                    elif isinstance(val, dict) and not key.startswith("__"):
                        for k, v in list(val.items()):
                            if v is original:
                                self._patches.append((val, k, original))
                                val[k] = wrapper

    def restore(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            holder[key] = original

    # --- results -------------------------------------------------------------

    def metrics(self, busy_s: float) -> dict:
        out = {}
        mod_self = defaultdict(float)
        for idx, name in enumerate(self.names):
            mname, fn = name.split(".", 1)
            mod_self[mname] += self.self_s[idx]
            if fn in VERIFIER_FNS:
                continue
            out[f"{name}.calls"] = self.calls[idx]
            out[f"{name}.self_s"] = self.self_s[idx]
            stat = WORK_STAT.get(mname)
            if stat and TARGETS[(mname, fn)] is not None:
                out[f"{name}.{stat}"] = self.work[idx]
        q_calls = self.calls[self.names.index("specfun.legendre_q_hat")]
        out["specfun.legendre_q_hat.distinct_share"] = (
            len(self.q_keys) / q_calls if q_calls else 0.0)
        for mname in MODULES:
            out[f"{mname}.self_share"] = mod_self[mname] / busy_s
        return out

    def write_spans(self, path):
        """One line per span: id, parent id, operation, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\top\tname\tt0\tt1\n")
            names = self.names
            for sid in range(len(self.span_t0)):
                fh.write(f"{sid}\t{self.span_parent[sid]}\t{self.span_op[sid]}\t"
                         f"{names[self.span_name[sid]]}\t{self.span_t0[sid]!r}\t"
                         f"{self.span_t1[sid]!r}\n")
