"""The benchmark's tracer finds every name it wraps in the library.

`bench/tracer.py` wraps public functions by (module, name), and
`bench/run.py --self-check` looks up a few module bindings directly; a
refactor that renames or drops one of them breaks the benchmark, not the
library, so this test catches it here.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def test_traced_names_resolve(tracer):
    for module, name in tracer.TARGETS:
        mod = importlib.import_module(f"polykernel.{module}")
        assert callable(getattr(mod, name, None)), f"polykernel.{module}.{name}"


def test_self_check_bindings_resolve():
    # the bindings `bench/run.py --self-check` expects the tracer to wrap
    from polykernel import expansions, orthopoly, polyspherical, specfun, verify
    from polykernel.orthopoly import jacobi_p

    assert expansions.legendre_q_hat is specfun.legendre_q_hat
    assert verify.legendre_q_hat is specfun.legendre_q_hat
    assert polyspherical.jacobi_p is jacobi_p
    # _pair_tables must reach the recurrence pass and its coefficient
    # builder through these bindings, or traced counts for them would
    # silently read 0
    assert polyspherical.recurrence_table is orthopoly.recurrence_table
    assert polyspherical.orthonormal_recurrence is orthopoly.orthonormal_recurrence
    assert verify._VERIFIERS["C4.3"] is verify.verify_ba
    assert set(verify._VERIFIERS) == {"T4.1", "T4.2", "C4.3", "C4.4", "C4.5"}


def _traced_calls(tracer, argv, capsys):
    """Per-name call counts of one cli.main(argv) run under the tracer."""
    from polykernel import cli

    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tr.restore()
    capsys.readouterr()
    return dict(zip(tr.names, tr.calls))


@pytest.mark.parametrize("kind, fn", [
    ("jacobi", "euler_kernel_jacobi"),
    ("gegenbauer", "euler_kernel_gegenbauer"),
    ("chebyshev", "euler_kernel_chebyshev"),
    ("multipole", "multipole_power"),
    ("azimuthal", "azimuthal_power"),
    ("fourier-int", "fourier_integer_power"),
    ("fourier-neg", "fourier_negative_power"),
])
def test_expand_table_reaches_traced_bindings(tracer, capsys, kind, fn):
    # the expansion table must look its functions up at call time, or the
    # traced per-layer counts of expand_sweep would read 0
    calls = _traced_calls(tracer, ["expand", kind], capsys)
    assert calls["cli.main"] == 1
    assert {name: calls[f"expansions.{name}"] for name in tracer.EXPANSION_FNS} == {
        name: int(name == fn) for name in tracer.EXPANSION_FNS}


def test_suite_table_reaches_traced_bindings(tracer, capsys):
    calls = _traced_calls(tracer, ["verify", "--suite"], capsys)
    assert {name: calls[f"verify.{name}"] for name in tracer.VERIFIER_FNS} == {
        "verify_standard": 0, "verify_hopf": 0, "verify_ba": 6, "verify_b2a": 2,
        "verify_ca2": 2, "ba_elementary_rhs": 3, "b2a_elementary_rhs": 2,
        "ca2_elementary_rhs": 2}
