"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Each criterion is a separate test; tolerances are pinned here
and nowhere else.
"""

import json
import math
import time

import numpy as np
import pytest

from oracle_sums import ba_sides, ca2_sides
from polykernel import cli
from polykernel import expansions as ex
from polykernel import orthopoly as op
from polykernel import polyspherical as ps
from polykernel import specfun as sf
from polykernel import verify as vf
from polykernel.kernels import KernelGeometry


def announce(cid, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {cid}: {status}{' - ' + detail if detail else ''}")
    assert ok, f"{cid} failed: {detail}"


def test_c1_tree_counts(capsys):
    t0 = time.perf_counter()
    code = cli.main(["trees", "count", "--dmax", "13"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    rows = json.loads(out)["rows"]
    b = [r["trees"] for r in rows]
    a = [r["classes"] for r in rows]
    ok = (code == 0
          and b == [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012]
          and a == [1, 1, 2, 3, 6, 11, 23, 46, 98, 207, 451, 983]
          and elapsed < 1.0)
    with capsys.disabled():
        announce("C1 tree counts", ok, f"{elapsed * 1e3:.1f} ms, exact match")


def test_c2_euler_kernel_oracle_suite():
    t0 = time.perf_counter()
    tr = ex.Truncation(tol=1e-12, max_terms=500)
    worst = 0.0
    for nu in (0.5, 1.0, 2.5):
        for z in (1.3, 2.0, 5.0):
            for x in (-0.8, 0.0, 0.6):
                want = ex.euler_kernel_direct(nu, z, x)
                for route in (
                    ex.euler_kernel_jacobi(nu, 0.3, -0.2, z, x, tr),
                    ex.euler_kernel_gegenbauer(nu, 0.8, z, x, tr),
                    ex.euler_kernel_chebyshev(nu, z, x, tr),
                ):
                    assert route.terms_used <= 500
                    worst = max(worst, abs(route.value - want) / abs(want))
    elapsed = time.perf_counter() - t0
    announce("C2 Euler-kernel oracle suite 3x3x3", worst < 1e-8 and elapsed < 10.0,
             f"worst rel err {worst:.2e}, {elapsed:.2f} s")


def test_c3_terminating_reconstruction():
    worst = 0.0
    for n in (1, 2, 3):
        for (z, x) in ((2.0, 0.3), (1.7, -0.4)):
            psum = ex.euler_kernel_jacobi(-float(n), 0.4, 0.1, z, x)
            assert psum.terms_used == n + 1
            worst = max(worst, abs(psum.value - (z - x) ** n) / (z - x) ** n)
    announce("C3 terminating case exact in n+1 terms", worst < 1e-12,
             f"worst rel err {worst:.2e}")


def test_c4_finite_fourier_series():
    worst = 0.0
    xs = np.linspace(-1.0, 1.0, 128)
    for z in (1.5, 3.0):
        for p in range(6):
            for x in xs:
                worst = max(worst, abs(ex.fourier_integer_power(p, z, float(x))
                                       - (z - x) ** p))
    announce("C4 finite Fourier reconstruction", worst < 1e-12,
             f"max abs err {worst:.2e}")


def test_c5_multipole_expansion():
    tr = ex.Truncation(tol=1e-12, max_terms=200)
    worst = 0.0
    for d in (3, 4, 5):
        for nu in (-1.0, -2.5, 1.0):
            for cg in (-0.7, 0.1, 0.8):
                r, rp = 1.0, 2.5  # radius ratio 0.4 <= 0.6
                psum = ex.multipole_power(d, nu, r, rp, cg, tr)
                want = ex.distance_power_direct(nu, r, rp, cg)
                assert psum.terms_used <= 200
                worst = max(worst, abs(psum.value - want) / abs(want))
    announce("C5 multipole expansion", worst < 1e-8, f"worst rel err {worst:.2e}")


def test_c6_azimuthal_expansion():
    tr = ex.Truncation(tol=1e-12, max_terms=200)
    worst = 0.0
    worst_coef = 0.0
    for chi in (1.2, 1.5, 3.0):
        for nu in (-1.0, -2.5):
            for dphi in (0.4, 2.2):
                R = Rp = 1.0
                h = math.sqrt(2.0 * chi - 2.0)
                g = KernelGeometry(
                    x=np.array([R, 0.0, 0.0]),
                    xp=np.array([Rp * math.cos(dphi), Rp * math.sin(dphi), h]))
                assert g.chi == pytest.approx(chi, rel=1e-13)
                psum = ex.azimuthal_power(nu, g, tr)
                assert psum.terms_used <= 200
                worst = max(worst, abs(psum.value - g.distance ** nu)
                            / g.distance ** nu)
            for m in range(6):
                quad = vf.azimuthal_coefficient_quadrature(nu, chi, m, 1024)
                want = sf.legendre_q_hat(m - 0.5, -0.5 * (nu + 1.0), chi)
                worst_coef = max(worst_coef, abs(quad - want) / max(1e-12, abs(want)))
    ok = worst < 1e-8 and worst_coef < 1e-8
    announce("C6 azimuthal expansion + quadrature coefficients", ok,
             f"worst rel err {worst:.2e}, coef err {worst_coef:.2e}")


def test_c7_harmonic_addition_theorem():
    rng = np.random.default_rng(211)
    worst = 0.0
    worst_imag = 0.0
    for spec, nmax in (("ba", 6), ("b^2a", 4), ("ca^2", 4)):
        tree = ps.parse_tree(spec)
        d = tree.dimension
        for n in range(nmax + 1):
            keys = ps.enumerate_keys(tree, n)
            for _ in range(20):
                a1 = [float(rng.uniform(lo + 1e-3, hi - 1e-3))
                      for lo, hi, _ in (nd.angle_range() for nd in tree.branching_nodes)]
                a2 = [float(rng.uniform(lo + 1e-3, hi - 1e-3))
                      for lo, hi, _ in (nd.angle_range() for nd in tree.branching_nodes)]
                total = sum(ps.harmonic(tree, k, a1)
                            * np.conj(ps.harmonic(tree, k, a2)) for k in keys)
                cg = ps.cos_separation(tree, a1, a2)
                want = ((2.0 * n + d - 2.0) * math.gamma(0.5 * d)
                        / (2.0 * (d - 2.0) * math.pi ** (0.5 * d))
                        * op.gegenbauer_c(n, 0.5 * d - 1.0, cg))
                worst = max(worst, abs(total.real - want) / max(1.0, abs(want)))
                worst_imag = max(worst_imag, abs(total.imag))
    ok = worst < 1e-10 and worst_imag < 1e-12
    announce("C7 hyperspherical addition theorem", ok,
             f"worst residual {worst:.2e}, imag {worst_imag:.2e}")


def test_c8_orthonormality():
    from test_polyspherical import _quadrature_grid

    worst = 0.0
    for spec in ("ba", "b^2a", "ca^2"):
        tree = ps.parse_tree(spec)
        angles, wts = _quadrature_grid(tree)
        meas = ps.surface_measure(tree, angles)
        keys = [k for deg in range(4) for k in ps.enumerate_keys(tree, deg)]
        vals = np.stack([ps.harmonic(tree, k, angles) for k in keys])
        gram = (vals * meas * wts) @ np.conj(vals.T)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(keys))))))
    announce("C8 orthonormality degree <= 3", worst < 1e-9,
             f"worst Gram residual {worst:.2e}")


def test_c9_addition_theorem_verification():
    t0 = time.perf_counter()
    failures = []
    worst = 0.0
    for nu in (-1.0, -2.5):
        for m in (0, 1, 2):
            rep = vf.verify_ba(vf.TheoremConfig(
                theorem="C4.3", nu=nu, m=m, r=1.0, rp=2.0, thetas=(1.1,),
                thetasp=(1.9,), caps=80, tol=1e-6))
            worst = max(worst, rep.rel_err)
            if not rep.passed:
                failures.append(("C4.3", nu, m, rep.rel_err))
    for m in (0, 1):
        rep = vf.verify_b2a(vf.TheoremConfig(
            theorem="C4.4", nu=-2.0, m=m, r=1.0, rp=2.0, thetas=(0.9, 1.3),
            thetasp=(1.2, 2.1), caps=80, tol=1e-6))
        worst = max(worst, rep.rel_err)
        if not rep.passed:
            failures.append(("C4.4", -2.0, m, rep.rel_err))
        rep = vf.verify_ca2(vf.TheoremConfig(
            theorem="C4.5", nu=-2.0, m=m, r=1.0, rp=2.0, thetas=(0.6,),
            thetasp=(0.8,), phis=(0.3,), phisp=(2.0,), caps=80, tol=1e-6))
        worst = max(worst, rep.rel_err)
        if not rep.passed:
            failures.append(("C4.5", -2.0, m, rep.rel_err))
    # printed elementary reductions at 1e-8
    for m in (0, 1, 2):
        rep = vf.ba_elementary_rhs(vf.TheoremConfig(
            theorem="C4.3", nu=-1.0, m=m, r=1.0, rp=2.0, thetas=(1.0,),
            thetasp=(2.1,), caps=90, tol=1e-8))
        if not rep.passed:
            failures.append(("C4.3-elem", -1.0, m, rep.rel_err))
    for m in (0, 1):
        rep = vf.b2a_elementary_rhs(vf.TheoremConfig(
            theorem="C4.4", nu=-2.0, m=m, r=1.0, rp=2.0, thetas=(0.9, 1.3),
            thetasp=(1.2, 2.1), caps=80, tol=1e-8))
        if not rep.passed:
            failures.append(("C4.4-elem", -2.0, m, rep.rel_err))
        rep = vf.ca2_elementary_rhs(vf.TheoremConfig(
            theorem="C4.5", nu=-2.0, m=m, r=1.0, rp=2.0, thetas=(0.6,),
            thetasp=(0.8,), phis=(0.3,), phisp=(2.0,), caps=80, tol=1e-8))
        if not rep.passed:
            failures.append(("C4.5-elem", -2.0, m, rep.rel_err))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    announce("C9 addition-theorem verification", ok,
             f"worst rel err {worst:.2e}, {elapsed:.1f} s"
             + (f", failures {failures}" if failures else ""))


def test_c10_cross_theorem_collapse():
    # the general theorems at d = 3 and q = 2 against the corollaries' sums
    # rebuilt one degree at a time
    std = vf.verify_standard(vf.TheoremConfig(
        theorem="T4.1", nu=-2.5, m=1, d=3, r=1.0, rp=2.0, thetas=(1.1,),
        thetasp=(1.9,), caps=70, tol=1e-6))
    lhs, rhs = ba_sides(-2.5, 1, 1.0, 2.0, 1.1, 1.9, 70)
    err1 = max(abs(std.lhs - lhs) / abs(lhs), abs(std.rhs - rhs) / abs(rhs))
    hopf = vf.verify_hopf(vf.TheoremConfig(
        theorem="T4.2", nu=-1.0, m=1, q=2, r=1.0, rp=2.0, thetas=(0.6,),
        thetasp=(0.8,), phis=(0.3,), phisp=(2.0,), caps=50, tol=1e-6))
    lhs, rhs = ca2_sides(-1.0, 1, 1.0, 2.0, 0.6, 0.8, 0.3, 2.0, 50)
    err2 = max(abs(hopf.lhs - lhs) / abs(lhs), abs(hopf.rhs - rhs) / abs(rhs))
    ok = err1 < 1e-12 and err2 < 1e-12
    announce("C10 cross-theorem collapse", ok,
             f"d=3 agreement {err1:.2e}, q=2 agreement {err2:.2e}")


def test_c11_special_function_identities():
    rng = np.random.default_rng(223)
    worst = {"whipple": 0.0, "bridge": 0.0, "gegen-jacobi": 0.0,
             "note32": 0.0}
    count = 0
    while count < 50:
        nu = float(rng.uniform(-0.8, 3.0))
        mu = float(rng.uniform(-0.8, 3.0))
        z = float(rng.uniform(1.1, 8.0))
        if nu + mu <= -0.9:
            continue
        qhat = sf.legendre_q_hat(nu, mu, z)
        lhs = sf.legendre_p_gt1(-mu - 0.5, -nu - 0.5, z / math.sqrt(z * z - 1.0))
        rhs = (math.sqrt(2.0 / math.pi) * (z * z - 1.0) ** 0.25
               / sf.gamma(nu + mu + 1.0) * qhat)
        worst["whipple"] = max(worst["whipple"],
                               abs(lhs - rhs) / max(1.0, abs(rhs)))
        count += 1
    for _ in range(50):
        n = int(rng.integers(0, 5))
        nu = float(rng.uniform(0.2, 2.5))
        mu = float(rng.uniform(-0.4, 2.0))
        z = float(rng.uniform(1.2, 6.0))
        lhs = sf.jacobi_q2(n + nu - 1.0, mu - nu + 0.5, mu - nu + 0.5, z)
        rhs = (2.0 ** (mu - nu + 0.5) * sf.gamma(mu + n + 0.5)
               / (sf.gamma(nu + n) * (z * z - 1.0) ** (0.5 * (mu - nu) + 0.25))
               * sf.legendre_q_hat(n + mu - 0.5, nu - mu - 0.5, z))
        worst["bridge"] = max(worst["bridge"],
                              abs(lhs - rhs) / max(1e-30, abs(lhs)))
    for _ in range(50):
        n = int(rng.integers(0, 10))
        gnu = float(rng.uniform(-0.45, 2.5))
        if abs(gnu) < 1e-3:
            continue
        x = float(rng.uniform(-1.0, 1.0))
        lhs = op.gegenbauer_c(n, gnu, x)
        rhs = (sf.pochhammer(2.0 * gnu, n) / sf.pochhammer(gnu + 0.5, n)
               * op.jacobi_p(n, gnu - 0.5, gnu - 0.5, x))
        worst["gegen-jacobi"] = max(worst["gegen-jacobi"],
                                    abs(lhs - rhs) / max(1.0, abs(lhs)))
    worst_limit = 0.0
    for _ in range(50):
        n = int(rng.integers(0, 8))
        x = float(rng.uniform(-1.0, 1.0))
        mu = 1e-7
        eps_n = 2.0 if n else 1.0
        lhs = (n + mu) / mu * op.gegenbauer_c(n, mu, x)
        rhs = eps_n * op.chebyshev_t(n, x)
        worst_limit = max(worst_limit, abs(lhs - rhs) / max(1.0, abs(rhs)))
    for _ in range(50):
        n = int(rng.integers(0, 6))
        k = int(rng.integers(0, n + 1))
        a = float(rng.uniform(-0.4, 1.5))
        b = float(rng.uniform(-0.4, 1.5))
        z = float(rng.uniform(1.3, 4.0))
        lhs = (sf.pochhammer(-a - n, n - k) / math.factorial(n - k)
               * sf.gauss_2f1(-(n - k), (n - k) - a - b - 2.0 * n - 1.0,
                              -a - n, 0.5 * (1.0 - z)))
        rhs = ((-1.0) ** (n + k) * sf.gamma(a + b + n + k + 2.0)
               * (z - 1.0) ** (a + n + 1.0) * (z + 1.0) ** (b + n + 1.0)
               / (2.0 ** (a + b + 2.0 * n + 1.0) * math.factorial(n - k)
                  * sf.gamma(a + k + 1.0) * sf.gamma(b + k + 1.0))
               * sf.jacobi_q2(k - n - 1.0, a + n + 1.0, b + n + 1.0, z))
        worst["note32"] = max(worst["note32"],
                              abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok = all(v < 1e-9 for v in worst.values()) and worst_limit < 1e-5
    announce("C11 special-function identity suite", ok,
             f"whipple {worst['whipple']:.1e}, bridge {worst['bridge']:.1e}, "
             f"gegen-jacobi {worst['gegen-jacobi']:.1e}, "
             f"note32 {worst['note32']:.1e}, limit {worst_limit:.1e}")
