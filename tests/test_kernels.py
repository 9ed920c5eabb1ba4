"""Vectorized per-prime kernels against the scalar per-fiber path."""

import random

import numpy as np
import pytest

from nagao import load_shipped_family, parse_family
from nagao.accumulator import compute_entry
from nagao.family_model import bad_primes, fiber_at
from nagao.fiber_trace import (
    UnsupportedFiber,
    brute_force_affine,
    count_affine,
    discriminant_locus,
    fiber_trace,
)
from nagao.kernels import (
    affine_counts,
    fiber_arrays,
    singular_c_values,
    univariate_curve_trace,
)
from nagao.prime_field import make_field

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


# genus-1 single covers whose fiber at c = 0 component_count refuses
REFUSED_AT_0 = {
    "x_degree_drop": "t*x^3 + x^2 + 1",
    "constant_times_square": "(x^2-1)^2 + t*x",
}


def load_family(name):
    if name == "multicover_ex2_swapped":
        return parse_family(SWAPPED_MULTICOVER)
    if name in REFUSED_AT_0:
        return parse_family(
            f'family "{name}"\nkind hyperelliptic\npoly {REFUSED_AT_0[name]}\n'
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
