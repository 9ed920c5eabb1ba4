"""Per-fiber counts, component counts, traces, and their exact invariants."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nagao
from nagao import fp_poly, load_shipped_family, parse_family
from nagao.family_model import BadPrime, FiberModel, bad_primes, fiber_at
from nagao.fiber_trace import (
    FiberTraceRecord,
    UnsupportedFiber,
    brute_force_affine,
    component_count,
    count_affine,
    discriminant_locus,
    fiber_trace,
    points_at_infinity,
    weil_bound,
)
from nagao.prime_field import legendre, make_field, primes_in_range


def single_fiber(p, coeffs, generic_deg=None):
    coeffs = tuple(c % p for c in coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if generic_deg is None:
        generic_deg = len(coeffs) - 1
    return FiberModel(c=0, polys=(coeffs,), generic_deg=(generic_deg,))


def test_count_affine_frozen_values():
    ctx = make_field(5)
    # values frozen from independent enumeration
    assert count_affine(ctx, single_fiber(5, (0, -1, 0, 1))) == 7  # x^3 - x
    assert count_affine(ctx, single_fiber(5, (1, -1, 0, 1))) == 7  # x^3 - x + 1
    assert count_affine(ctx, single_fiber(5, (0, 0, 1, 1))) == 4  # x^2 (x + 1)


def test_count_affine_multicover_frozen_value():
    ctx = make_field(7)
    fiber = FiberModel(
        c=3,
        polys=((-30 % 7, 31 % 7, -10 % 7, 1), (0, 3, 3, 1)),
        generic_deg=(3, 3),
    )
    # frozen from independent (y, z) pair enumeration
    assert count_affine(ctx, fiber) == 1


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.integers(0, 12), min_size=2, max_size=6))
def test_count_affine_matches_enumeration(coeffs):
    p = 13
    fiber = single_fiber(p, coeffs)
    if not fiber.polys:
        return
    ctx = make_field(p)
    assert count_affine(ctx, fiber) == brute_force_affine(p, fiber.polys)


def test_points_at_infinity_cases():
    ctx = make_field(5)
    assert points_at_infinity(ctx, single_fiber(5, (0, 4, 0, 1))) == 1  # odd degree
    # even degree, square lead: two points; non-square lead: none
    assert points_at_infinity(ctx, single_fiber(5, (1, 0, 0, 0, 1))) == 2
    assert points_at_infinity(ctx, single_fiber(5, (1, 0, 0, 0, 2))) == 0
    with pytest.raises(UnsupportedFiber):
        points_at_infinity(ctx, single_fiber(5, (1, 1), generic_deg=3))
    # two cubics: 1 + chi(lc_1 lc_2) points, from the empty product and G_1 G_2
    for lc2, want in ((1, 2), (4, 2), (2, 0), (3, 0)):
        mc = FiberModel(c=0, polys=((1, 0, 0, 1), (0, 1, 0, lc2)), generic_deg=(3, 3))
        assert points_at_infinity(ctx, mc) == want
    # a cubic and a quartic: 1 + chi(lc_2)
    mc = FiberModel(c=0, polys=((1, 0, 0, 1), (1, 0, 0, 0, 2)), generic_deg=(3, 4))
    assert points_at_infinity(ctx, mc) == 0
    with pytest.raises(UnsupportedFiber):
        points_at_infinity(ctx, mc._replace(generic_deg=(3, 5)))


def test_component_count_cases():
    ctx = make_field(5)
    assert component_count(ctx, single_fiber(5, (0, 4, 0, 1))) == 1  # smooth
    # nodal: x^2 (x + 1) has double root but nonconstant odd part
    assert component_count(ctx, single_fiber(5, (0, 0, 1, 1))) == 1
    # constant times a square is refused
    with pytest.raises(UnsupportedFiber):
        component_count(ctx, single_fiber(5, (0, 0, 2), generic_deg=2))
    # degree drop is refused
    with pytest.raises(UnsupportedFiber):
        component_count(ctx, single_fiber(5, (1, 1), generic_deg=3))


def test_nodal_fiber_record():
    # y^2 = x^2 (x + 1) over F_5: N = 4 + 1 = 5, m = 1, a = 1 + 5 - 5 = 1
    ctx = make_field(5)
    fiber = single_fiber(5, (0, 0, 1, 1))
    N = count_affine(ctx, fiber) + points_at_infinity(ctx, fiber)
    m = component_count(ctx, fiber)
    assert (N, m) == (5, 1)
    assert 1 + ctx.p * m - N == 1


@pytest.mark.parametrize("name", ["shioda_g1", "shioda_g2", "constant_E", "multicover_ex2"])
def test_trace_identity_round_trip(name):
    # N = 1 - a + p m for every produced record, p <= 13
    spec = load_shipped_family(name)
    bad = bad_primes(spec)
    for p in (3, 5, 7, 11, 13):
        if p in bad:
            continue
        ctx = make_field(p)
        for c in list(range(p)) + [None]:
            try:
                rec = fiber_trace(ctx, spec, c)
            except UnsupportedFiber:
                continue
            assert rec.N == 1 - rec.a + p * rec.m
            if not rec.singular:
                assert abs(rec.a) <= weil_bound(spec.genus, p)


def test_fiber_trace_shioda_g1_p5():
    spec = load_shipped_family("shioda_g1")
    ctx = make_field(5)
    # every finite fiber is smooth at p = 5 with a = -2 (frozen enumeration)
    for c in range(5):
        rec = fiber_trace(ctx, spec, c)
        assert rec == FiberTraceRecord(c=c, N=8, m=1, a=-2, singular=False)
    inf = fiber_trace(ctx, spec, None)
    assert inf.a == 0 and inf.N == 6 and inf.m == 1


def test_fiber_trace_constant_family_infinity():
    spec = load_shipped_family("constant_E")
    ctx = make_field(5)
    inf = fiber_trace(ctx, spec, None)
    finite = fiber_trace(ctx, spec, 0)
    # the fiber over infinity of a constant family is the same curve
    assert inf.a == finite.a == -2


def test_fiber_trace_bad_prime():
    spec = load_shipped_family("multicover_ex2")
    with pytest.raises(BadPrime):
        fiber_trace(make_field(5), spec, 0)


def test_nodal_normalization_cross_check():
    """Count of a nodal curve vs the count of its normalization.

    For y^2 = (x - r)^2 g(x) the normalization is y^2 = g(x).  A split node
    (chi(g(r)) = 1) glues two rational branches into one point, a non-split
    node (chi = -1) turns a conjugate pair into one rational point, so
    N_nodal = N_smooth - chi(g(r)).  Checked exhaustively for p <= 13.
    """
    for p in (5, 7, 11, 13):
        ctx = make_field(p)
        for r in range(p):
            for b in range(1, p):
                if (r + b) % p == 0:
                    continue  # keep g(x) = x + b nonvanishing at the node
                # f = (x - r)^2 (x + b)
                from nagao import fp_poly

                node = ((-r) % p, 1)
                f = fp_poly.mul(fp_poly.mul(node, node, p), (b, 1), p)
                fiber = single_fiber(p, f)
                N_sing = count_affine(ctx, fiber) + points_at_infinity(ctx, fiber)
                g = (b, 1)
                # normalization: y^2 = x + b, a line, p affine points + 1
                N_smooth = sum(
                    1 + ctx.chi(fp_poly.eval_at(g, x, p)) for x in range(p)
                ) + 1
                chi_node = ctx.chi(fp_poly.eval_at(g, r, p))
                assert N_sing == N_smooth - chi_node


def test_weil_bound_values():
    assert weil_bound(1, 25) == 10.0
    assert weil_bound(2, 100) == 40.0


def test_fiber_trace_loads_no_numpy():
    """FieldCtx.chi is Euler's criterion, so the scalar reference of a shipped
    family reads no chi table and loads no numpy."""
    code = (
        "import sys\n"
        "from nagao import load_shipped_family, shipped_family_names\n"
        "from nagao.fiber_trace import fiber_trace\n"
        "from nagao.prime_field import make_field\n"
        "for name in shipped_family_names():\n"
        "    for c in (None, 0, 1, 50):\n"
        "        fiber_trace(make_field(101), load_shipped_family(name), c)\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = str(Path(nagao.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# two-cover families (G_1, G_2, genus, nu) of every parity, with constant and
# varying leading coefficients.  The genus is the sum over G_1, G_2 and G_1 G_2
# of (deg - 1) // 2; nu counts those of even degree, plus 1 for the empty product
TWO_COVER_FAMILIES = [
    ("2*x^3 + x + 1", "3*x^3 + t*x + 1", 4, 2),  # lc_1 lc_2 = 6 need not be a square
    ("x^3 - x", "(t^2 + 1)*x^2 + x + t", 3, 2),  # G_2 of even degree, varying lc
    ("(x-2)*(x-3)*(x-5)", "x*(x-1)*(x-t)", 4, 2),  # multicover_ex2
    ("x^4 + x + 1", "(t + 2)*x^2 + t*x + 3", 3, 4),  # both degrees even
    ("3*x^4 + x + t", "x^3 + 2", 5, 2),  # even and odd, lc_1 = 3
]


def _hyperelliptic_trace(p, g, roots):
    """a of the smooth projective y^2 = g(x), g squarefree mod p of its generic
    degree: p + 1 less the points, the affine ones counted over every x with
    roots[v] = #{y : y^2 = v}."""
    n = sum(roots[fp_poly.eval_at(g, x, p)] for x in range(p))
    n += 1 if len(g) % 2 == 0 else 1 + legendre(g[-1], p)  # over x = infinity
    return p + 1 - n


@pytest.mark.parametrize("g1, g2, genus, nu", TWO_COVER_FAMILIES)
def test_two_cover_traces_split_by_kani_rosen(g1, g2, genus, nu):
    """Jac(C) ~ Jac(y^2 = G_1) x Jac(z^2 = G_2) x Jac(w^2 = G_1 G_2) (Kani and
    Rosen, Math. Ann. 284, 1989), so a(C) = a(G_1) + a(G_2) + a(G_1 G_2) at
    every smooth finite fiber; its points over x = infinity are
    sum_I chi(lc_I), not a constant."""
    spec = parse_family(
        f'family "kr"\nkind multicover\npoly {g1}\npoly {g2}\ngenus {genus}\n'
        f"trace none\ninfinity affine_plus {nu} 1\n"
    )
    bad = bad_primes(spec)
    smooth = 0
    for p in primes_in_range(3, 60):
        if p in bad:
            continue
        ctx = make_field(p)
        roots = [0] * p
        for y in range(p):
            roots[y * y % p] += 1
        singular = discriminant_locus(spec, ctx)
        for c in range(p):
            if c in singular:
                continue
            f1, f2 = fiber_at(spec, ctx, c).polys
            want = sum(_hyperelliptic_trace(p, g, roots) for g in (f1, f2, fp_poly.mul(f1, f2, p)))
            a = fiber_trace(ctx, spec, c).a
            assert a == want, (p, c)
            assert abs(a) <= weil_bound(spec.genus, p)
            smooth += 1
    assert smooth > 200
