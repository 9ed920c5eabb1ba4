"""The per-prime kernels and character sums against enumeration, the grid
and the scalar per-fiber path."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nagao
from nagao import charsum, fiber_sum, fp_poly, kernels, load_shipped_family, parse_family
from nagao.accumulator import compute_entry, good_primes
from nagao.family_model import BivarPoly, bad_primes, fiber_at, parse_poly
from nagao.charsum import char_sum, curve_order
from nagao.fiber_trace import (
    UnsupportedFiber,
    brute_force_affine,
    count_affine,
    discriminant_locus,
    fiber_trace,
)
from nagao.fiber_sum import chi_sum, kernel_name, trace_sum
from nagao.kernels import (
    KERNELS,
    affine_counts,
    fiber_arrays,
    grid_trace_sum,
    singular_c_values,
    table_char_sum,
)
from nagao.prime_field import make_field, primes_in_range

FAMILY_NAMES = ["constant_E", "shioda_g1", "shioda_g2", "multicover_ex2"]

# multicover_ex2 with the t-free cover second in the product
SWAPPED_MULTICOVER = """\
family "multicover_ex2_swapped"
kind multicover
poly x*(x-1)*(x-t)
poly (x-2)*(x-3)*(x-5)
genus 4
trace curve (x-2)*(x-3)*(x-5)
infinity affine_plus 2 1
"""


# the benchmark's t-degree-3 family, G(x) + lam t^d: the coset kernel
CUBIC_T = """\
family "cubic_t"
kind hyperelliptic
poly x^3 - x + t^3
genus 1
trace none
infinity trace_zero
"""

# a separable G(x) + H(t) whose H is not a monomial: the separable kernel
CUBIC_T_PLUS_T = CUBIC_T.replace("cubic_t", "cubic_t_plus_t").replace("t^3", "t^3 + t")

# genus-1 single covers whose fiber at c = 0 component_count refuses
REFUSED_AT_0 = {
    "x_degree_drop": "t*x^3 + x^2 + 1",
    "constant_times_square": "(x^2-1)^2 + t*x",
}

# a genus-1 single cover whose leading x-coefficient varies: its fibers over
# the roots of t^2 + 1 drop x-degree, at the p = 1 mod 4
LEAD_VARIES = "(t^2+1)*x^3 + x + t"


def load_family(name):
    if name == "multicover_ex2_swapped":
        return parse_family(SWAPPED_MULTICOVER)
    if name == "cubic_t":
        return parse_family(CUBIC_T)
    if name == "cubic_t_plus_t":
        return parse_family(CUBIC_T_PLUS_T)
    if name in REFUSED_AT_0 or name == "lead_varies":
        return parse_family(
            f'family "{name}"\nkind hyperelliptic\npoly {REFUSED_AT_0.get(name, LEAD_VARIES)}\n'
            "genus 1\ntrace none\ninfinity trace_zero\n"
        )
    return load_shipped_family(name)


def good_small_primes(spec, hi=23):
    bad = bad_primes(spec)
    return [p for p in (3, 5, 7, 11, 13, 17, 19, 23) if p <= hi and p not in bad]


@pytest.mark.parametrize("name", FAMILY_NAMES + ["multicover_ex2_swapped"])
def test_affine_counts_match_scalar_path(name):
    spec = load_family(name)
    for p in good_small_primes(spec):
        ctx = make_field(p)
        counts = affine_counts(spec, ctx)
        assert counts.shape == (p,) and counts.dtype == np.int64
        for c in range(p):
            assert counts[c] == count_affine(ctx, fiber_at(spec, ctx, c))
    # p = 4001 spans five chunks of the grid; check a seeded sample of c
    p = 4001
    ctx = make_field(p)
    counts = affine_counts(spec, ctx)
    for c in [0, p - 1] + random.Random(p).sample(range(p), 10):
        assert counts[c] == count_affine(ctx, fiber_at(spec, ctx, c))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_singular_c_values_match_gcd_definition(name):
    spec = load_shipped_family(name)
    for p in good_small_primes(spec):
        ctx = make_field(p)
        via_resultant = set(int(c) for c in singular_c_values(spec, ctx))
        assert via_resultant == discriminant_locus(spec, ctx)


@pytest.mark.parametrize("name", FAMILY_NAMES + list(REFUSED_AT_0))
def test_fiber_arrays_match_fiber_trace(name):
    spec = load_family(name)
    for p in good_small_primes(spec):
        ctx = make_field(p)
        arrays = fiber_arrays(spec, ctx)
        assert arrays.p == p and arrays.a.shape == (p,)
        unsupported_cs = {u.c for u in arrays.unsupported}
        assert (0 in unsupported_cs) == (name in REFUSED_AT_0)
        for c in range(p):
            try:
                rec = fiber_trace(ctx, spec, c)
            except UnsupportedFiber:
                assert c in unsupported_cs
                continue
            assert c not in unsupported_cs
            assert arrays.a[c] == rec.a
            assert bool(arrays.singular[c]) == rec.singular


@pytest.mark.parametrize(
    "name, why",
    [
        ("x_degree_drop", "x-degree drop"),
        ("constant_times_square", "fiber polynomial is a constant times a square"),
    ],
)
def test_refused_fiber_reason_reaches_ledger_entry(name, why):
    spec = load_family(name)
    for p in good_small_primes(spec):
        entry = compute_entry(spec, p)
        assert entry.skipped and entry.A_p is None
        assert entry.reason == f"unsupported fiber at c=0: {why}"


def univariate_curve_trace(ctx, coeffs):
    """a_p = p + 1 - #{smooth projective y^2 = G(x)}(F_p), G squarefree mod p,
    from the O(p) table sum: the oracle of charsum.curve_trace."""
    p = ctx.p
    red = fp_poly.trim(c % p for c in coeffs)
    if len(red) - 1 < len(coeffs) - 1:
        raise ValueError("leading coefficient vanished mod p")
    n_aff = p + table_char_sum(red, ctx)
    d = len(red) - 1
    n_inf = 1 if d % 2 == 1 else 1 + ctx.chi(red[-1])
    return p + 1 - (n_aff + n_inf)


def test_univariate_curve_trace_known_values():
    # y^2 = x^3 - x: a_5 = -2 (frozen enumeration); supersingular at p = 7
    curve = (0, -1, 0, 1)
    assert univariate_curve_trace(make_field(5), curve) == -2
    assert univariate_curve_trace(make_field(7), curve) == 0


def test_univariate_curve_trace_matches_count():
    curve = (-30, 31, -10, 1)  # (x-2)(x-3)(x-5)
    for p in (7, 11, 13, 17, 19, 23):
        ctx = make_field(p)
        N = brute_force_affine(p, (tuple(c % p for c in curve),)) + 1
        assert univariate_curve_trace(ctx, curve) == p + 1 - N


def test_curve_trace_matches_table_oracle():
    """charsum.curve_trace against the O(p) table sum, for the two shipped
    trace curves and the quartic x^4 + 1, at every p of good reduction."""
    for curve, disc in (((0, -1, 0, 1), 4), ((-30, 31, -10, 1), 36), ((1, 0, 0, 0, 1), 256)):
        for p in primes_in_range(3, 1500):
            if disc % p:
                ctx = make_field(p)
                assert charsum.curve_trace(curve, ctx) == univariate_curve_trace(ctx, curve)


TRACE_SUM_FAMILIES = FAMILY_NAMES + ["cubic_t", "multicover_ex2_swapped"] + list(REFUSED_AT_0)


@pytest.mark.parametrize("name", TRACE_SUM_FAMILIES)
def test_trace_sum_equals_grid(name):
    spec = load_family(name)
    for p in good_primes(spec, 3, 2000) + [4999, 9973]:
        ctx = make_field(p)
        total, refused = trace_sum(spec, ctx)
        want, want_refused = grid_trace_sum(spec, ctx)
        assert total == want, f"p = {p}"
        assert [(u.c, u.why) for u in refused] == [(u.c, u.why) for u in want_refused]


@pytest.mark.parametrize("name", FAMILY_NAMES + ["cubic_t", "lead_varies"] + list(REFUSED_AT_0))
def test_trace_sum_refuses_what_the_full_locus_refuses(name):
    """trace_sum runs component_count only on the roots of the leading
    x-coefficient, and at even x-degree on the rest of the singular locus;
    over the full locus it refuses the same fibers for the same reasons."""
    spec = load_family(name)
    refusing = 0
    for p in good_primes(spec, 3, 2000):
        ctx = make_field(p)
        got = [(u.c, u.why) for u in trace_sum(spec, ctx)[1]]
        want = fiber_sum.refused(spec, ctx, singular_c_values(spec, ctx))
        assert got == [(u.c, u.why) for u in want], f"p = {p}"
        refusing += bool(got)
    assert bool(refusing) == (name == "lead_varies" or name in REFUSED_AT_0)


@pytest.mark.parametrize(
    "name, kernel",
    [
        ("constant_E", "chi_sum"),
        ("shioda_g1", "chi_sum"),
        ("shioda_g2", "chi_sum"),
        ("multicover_ex2", "chi_sum"),
        ("multicover_ex2_swapped", "chi_sum"),
        ("cubic_t", "coset"),
        ("cubic_t_plus_t", "separable"),
    ],
)
def test_kernel_name_of_test_families(name, kernel):
    assert kernel_name(load_family(name).polys) == kernel


def test_non_separable_t_degree_3_selects_grid():
    spec = parse_family(
        'family "mixed_t3"\nkind hyperelliptic\npoly x^3 + t^3*x + t + 1\n'
        "genus 1\ntrace none\ninfinity trace_zero\n"
    )
    assert kernel_name(spec.polys) == "grid"
    for p in good_small_primes(spec):
        ctx = make_field(p)
        assert trace_sum(spec, ctx)[0] == grid_trace_sum(spec, ctx)[0]


def closed_form_t2(polys, ctx):
    """sum_c N_affine(c) for at most one cover with t, of t-degree <= 2, by
    the per-x closed form: numpy, O(p).  For x with a = a(x), b = b(x),
    D = b^2 - 4ae, the sum over c of chi(a c^2 + b c + e) is -chi(a) if
    a != 0 != D, (p - 1) chi(a) if a != 0 = D, 0 if a = 0 != b and p chi(e)
    if a = b = 0."""
    p = ctx.p
    xs = np.arange(p, dtype=np.int64)
    chi = ctx.chi_table.astype(np.int64)
    weight = np.ones(p, dtype=np.int64)
    inner = 0
    for poly in polys:
        e, b, a = (kernels._horner_vec(cs, xs, p) for cs in (poly.t_coeff_polys() + [(), ()])[:3])
        if poly.deg_t <= 0:
            weight *= 1 + chi[e]
            continue
        d = (b * b - 4 * (a * e % p)) % p
        inner = np.where(
            a != 0, chi[a] * np.where(d == 0, p - 1, -1), np.where(b != 0, 0, p * chi[e])
        )
    return int((weight * (p + inner)).sum())


@pytest.mark.parametrize("name", ["shioda_g1", "shioda_g2"])
def test_root_count_equals_closed_form_t2_at_a_large_prime(name):
    """e(x) + b(x) t + t^2 with no cover without t: chi_sum counts the roots
    of D and computes no character sum."""
    spec = load_shipped_family(name)
    p = 999983
    ctx = make_field(p)
    total, refused = trace_sum(spec, ctx)
    # odd x-degree: one point over x = infinity on each finite fiber
    assert total == p * (p + 1) - closed_form_t2(spec.polys, ctx) - p
    assert refused == []
    assert ctx.char_sums == {}


@pytest.mark.parametrize(
    "poly",
    [
        "x^3 - x + 3*t^2",  # lam = 3 vanishes mod 3, a good prime of this family
        "x^3 - x + x*t^2",  # t^2 coefficient involves x
        "x^4 - x + t^2",  # even x-degree
        "x^3 - x + t^2 + t^3",  # t-degree 3
    ],
)
def test_root_count_refuses_other_shapes(monkeypatch, poly):
    """Away from e(x) + b(x) t +- t^2 of odd x-degree, trace_sum is more than
    a count of the roots of D: at the least good prime it computes a
    character sum, or takes another kernel, and it equals the grid."""
    spec = parse_family(
        f'family "other"\nkind hyperelliptic\npoly {poly}\n'
        "genus 1\ntrace none\ninfinity trace_zero\n"
    )
    sums = []
    monkeypatch.setattr(charsum, "char_sum", lambda f, ctx: sums.append(f) or char_sum(f, ctx))
    p = good_small_primes(spec)[0]
    assert trace_sum(spec, make_field(p))[0] == grid_trace_sum(spec, make_field(p))[0]
    assert sums or kernel_name(spec.polys) != "chi_sum"


def test_two_covers_with_t_select_grid():
    polys = (
        BivarPoly.from_dict({(3, 0): 1, (0, 1): 1}),  # x^3 + t
        BivarPoly.from_dict({(3, 0): 1, (1, 1): 1}),  # x^3 + t*x
    )
    assert kernel_name(polys) == "grid"


SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
small_coeff = st.integers(-9, 9)
nonzero_coeff = small_coeff.filter(bool)


def brute_force_total(polys, p):
    """sum over every finite c of the affine count, by enumeration."""
    return sum(
        brute_force_affine(p, tuple(poly.specialize_t(c, p) for poly in polys))
        for c in range(p)
    )


@st.composite
def t_free_cover(draw):
    deg_x = draw(st.integers(1, 4))
    coeffs = {(i, 0): draw(small_coeff) for i in range(deg_x)}
    coeffs[(deg_x, 0)] = draw(nonzero_coeff)
    return BivarPoly.from_dict(coeffs)


@st.composite
def t2_cover(draw, parity):
    """A cover of t-degree <= 2 whose leading x-coefficient involves t."""
    deg_x = 2 * draw(st.integers(0 if parity else 1, 2)) + parity
    coeffs = {(i, j): draw(small_coeff) for i in range(deg_x + 1) for j in range(3)}
    coeffs[(deg_x, draw(st.integers(1, 2)))] = draw(nonzero_coeff)
    return BivarPoly.from_dict(coeffs)


@st.composite
def separable_cover(draw):
    """G(x) + H(t) with deg H in {3, 4, 5} and a second term in H with t, so
    that H is no monomial lam t^d, which takes the coset kernel."""
    deg_g = draw(st.integers(1, 5))
    deg_h = draw(st.sampled_from([3, 4, 5]))
    coeffs = {(i, 0): draw(small_coeff) for i in range(deg_g)}
    coeffs[(deg_g, 0)] = draw(nonzero_coeff)
    coeffs.update({(0, j): draw(small_coeff) for j in range(1, deg_h)})
    coeffs[(0, draw(st.integers(1, deg_h - 1)))] = draw(nonzero_coeff)
    coeffs[(0, deg_h)] = draw(nonzero_coeff)
    return BivarPoly.from_dict(coeffs)


@st.composite
def coset_case(draw):
    """(G(x) + lam t^d, p) with d in 3..7, p dividing lam in some draws and,
    for odd d, gcd(d, p - 1) = 1 in some draws and > 1 in others (at even d
    it is always > 1)."""
    d = draw(st.integers(3, 7))
    coprime = d % 2 == 1 and draw(st.booleans())
    p = draw(st.sampled_from([p for p in SMALL_PRIMES if (math.gcd(d, p - 1) == 1) == coprime]))
    deg_g = draw(st.integers(1, 5))
    coeffs = {(i, 0): draw(small_coeff) for i in range(deg_g)}
    coeffs[(deg_g, 0)] = draw(nonzero_coeff)
    coeffs[(0, d)] = draw(nonzero_coeff) * draw(st.sampled_from([1, p]))
    return BivarPoly.from_dict(coeffs), p


@st.composite
def root_count_cover(draw):
    """e(x) + b(x) t + lam t^2 of odd x-degree, lam = +-1: root_count's shape."""
    deg_x = draw(st.sampled_from([1, 3, 5]))
    coeffs = {(i, j): draw(small_coeff) for i in range(deg_x + 1) for j in range(2)}
    coeffs[(deg_x, draw(st.integers(0, 1)))] = draw(nonzero_coeff)
    coeffs[(0, 2)] = draw(st.sampled_from([1, -1]))
    return BivarPoly.from_dict(coeffs)


def assert_kernel_counts(kernel, polys, p):
    assert kernel_name(polys) == kernel
    assert KERNELS[kernel](polys, make_field(p)) == brute_force_total(polys, p)


@settings(max_examples=60, deadline=None)
@given(cover=root_count_cover(), p=st.sampled_from(SMALL_PRIMES))
def test_root_count_matches_enumeration(cover, p):
    """chi_sum's constant summand: only the number of roots of D enters."""
    assert_kernel_counts("chi_sum", (cover,), p)


def test_root_count_where_d_vanishes_mod_p():
    # D = b^2 - 4e = -12 x^7 is 0 mod 3: every x is a root
    assert_kernel_counts("chi_sum", (parse_poly("3*x^7 + x^6 + 2*x^3*t + t^2"),), 3)


@pytest.mark.parametrize("parity", [1, 0])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), p=st.sampled_from(SMALL_PRIMES))
def test_closed_form_t2_matches_enumeration(parity, data, p):
    """chi_sum on one cover of t-degree <= 2 whose t^2 coefficient varies."""
    assert_kernel_counts("chi_sum", (data.draw(t2_cover(parity)),), p)


@pytest.mark.parametrize("parity", [1, 0])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), p=st.sampled_from(SMALL_PRIMES))
def test_closed_form_t2_with_t_free_cover_matches_enumeration(parity, data, p):
    """chi_sum with a weight 1 + chi(G(x)) from a cover without t."""
    polys = (data.draw(t_free_cover()), data.draw(t2_cover(parity)))
    assert_kernel_counts("chi_sum", polys, p)


@settings(max_examples=60, deadline=None)
@given(
    free=st.lists(t_free_cover(), max_size=1),
    e=t_free_cover(),
    b=st.lists(small_coeff, max_size=3),
    a=st.lists(small_coeff, max_size=3),
    vanish=st.sampled_from(["", "a", "b", "ab"]),
    p=st.sampled_from(SMALL_PRIMES[:5]),
)
def test_chi_sum_matches_enumeration(free, e, b, a, vanish, p):
    """Up to one cover without t and one cover e + b t + a t^2, where the
    covers named in vanish are multiplied by p: every term of chi_sum,
    including root sets that are all of F_p."""
    coeffs = e.as_dict()
    for j, name, cs in ((1, "b", b), (2, "a", a)):
        for i, c in enumerate(cs):
            coeffs[(i, j)] = c * (p if name in vanish else 1)
    polys = tuple(free) + (BivarPoly.from_dict(coeffs),)
    assert kernel_name(polys) == "chi_sum"
    assert chi_sum(polys, make_field(p)) == brute_force_total(polys, p)


@st.composite
def char_sum_poly(draw):
    """A product of up to three small factors with multiplicities up to 3."""
    f = BivarPoly.from_dict({(0, 0): draw(nonzero_coeff)})
    for _ in range(draw(st.integers(0, 3))):
        g = draw(t_free_cover())
        for _ in range(draw(st.integers(1, 3))):
            f = f * g
    return f.t_coeff_polys()[0]


@settings(max_examples=150, deadline=None)
@given(f=char_sum_poly(), p=st.sampled_from(SMALL_PRIMES))
def test_char_sum_matches_enumeration(f, p):
    """Repeated factors, constants, and f that vanish mod p (p | lc)."""
    ctx = make_field(p)
    want = sum(ctx.chi(fp_poly.eval_at(f, x, p)) for x in range(p))
    assert char_sum(f, ctx) == want
    assert char_sum(f, ctx) == want  # from the memo
    assert char_sum(tuple(p * c for c in f), ctx) == 0


def test_char_sum_small_cases():
    ctx = make_field(7)
    assert char_sum((), ctx) == 0
    assert char_sum((3,), ctx) == 7 * ctx.chi(3)
    assert char_sum((7, 14), ctx) == 0  # 0 mod 7
    assert char_sum((1, 2, 1), ctx) == 6  # (x + 1)^2
    assert char_sum((0, 0, 0, 5), ctx) == 0  # 5 x^3


def test_curve_order_decides_above_229():
    """Baby-step giant-step on E and its twist leaves a single candidate at
    every p in (229, 10^5] (Cremona-Sutherland 2010), and it is the O(p)
    numpy count, for both shipped trace curves (constant_E, multicover_ex2),
    which have good reduction at every p > 3."""
    for p in primes_in_range(230, 10**5):
        chi = make_field(p).chi_table
        xs = np.arange(p, dtype=np.int64)
        for curve in ((0, -1, 0, 1), (-30, 31, -10, 1)):
            a6, a4, a2, _ = (c % p for c in curve)
            values = ((xs + a2) * xs + a4) * xs + a6  # below 2^63 for p < 10^5
            n = p + 1 + int(chi[values % p].sum(dtype=np.int64))
            assert curve_order((a6, a4, a2, 1), p) == n, f"p = {p}, {curve}"


@settings(max_examples=40, deadline=None)
@given(cover=separable_cover(), free=st.none() | t_free_cover(), p=st.sampled_from(SMALL_PRIMES))
def test_separable_matches_enumeration(cover, free, p):
    polys = (cover,) if free is None else (free, cover)
    assert_kernel_counts("separable", polys, p)


@settings(max_examples=80, deadline=None)
@given(case=coset_case(), free=st.none() | t_free_cover())
def test_coset_matches_enumeration(case, free):
    cover, p = case
    polys = (cover,) if free is None else (free, cover)
    assert_kernel_counts("coset", polys, p)


@pytest.mark.parametrize(
    "poly", ["x^3 - x + t^3", "x^3 - x + t^7 + 1", "x^3 + t^7 + 1", "x^4 + x + 1 + 7*t^6"]
)
def test_coset_equals_separable_at_large_primes(poly):
    """Near 10^4, where the grid is slow, against the FFT of separable."""
    polys = (parse_poly(poly),)
    for p in (10007, 10039):  # gcd(d, 10006) <= 2, and 10038 = 2 3 7 239
        assert charsum.coset_sum(polys, make_field(p)) == kernels._separable(polys, make_field(p))


def test_separable_fft_is_padded_and_equals_grid():
    """The linear convolution of length 2p - 1 is padded to 2048 at p = 1009
    and folded back mod p; its sum equals the grid's, with and without a
    cover without t."""
    for polys in ((parse_poly("x^3 - x + t^3 + t"),),
                  (parse_poly("x^2 + 1"), parse_poly("x^4 + 2*x + t^5 - 3*t^2 + 1"))):
        assert kernel_name(polys) == "separable"
        for p in (997, 1009):
            assert kernels._separable(polys, make_field(p)) == kernels._grid_total(polys, make_field(p))


def test_numpy_fft_loads_only_for_separable_families():
    code = (
        "import sys\n"
        "from nagao import load_shipped_family, parse_family\n"
        "from nagao.accumulator import average_trace\n"
        "from nagao.prime_field import make_field\n"
        "for name in ('constant_E', 'shioda_g1', 'shioda_g2', 'multicover_ex2'):\n"
        "    average_trace(load_shipped_family(name), make_field(101))\n"
        f"average_trace(parse_family({CUBIC_T!r}), make_field(101))\n"
        "assert 'numpy' not in sys.modules\n"
        f"average_trace(parse_family({CUBIC_T_PLUS_T!r}), make_field(101))\n"
        "assert 'numpy.fft' in sys.modules\n"
    )
    src = str(Path(nagao.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["shioda_g1", "shioda_g2", "multicover_ex2", "cubic_t"])
def test_run_path_uses_no_grid_and_multicover_no_singular_locus(monkeypatch, name):
    """A multicover searches no singular locus; a single cover of odd
    x-degree and leading coefficient 1 reaches no root finding at all."""
    def called(*args):
        raise AssertionError("reached from the run path")

    for attr in ("fiber_arrays", "_chi_grid_sums"):
        monkeypatch.setattr(kernels, attr, called)
    spec = load_family(name)
    monkeypatch.setattr(fiber_sum, "singular_c_values", called)
    if spec.kind != "multicover":
        monkeypatch.setattr(fp_poly, "roots", called)
    assert not compute_entry(spec, 101).skipped
