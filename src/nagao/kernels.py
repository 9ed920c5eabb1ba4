"""Batched per-prime evaluation of fiber point counts.

The inner loop of every run is, for each prime p, the p x p grid of
character values chi(F(x, c)).  The grid is evaluated columnwise in chunks
with numpy: the t-coefficients of F are specialized to x once per prime,
powers of c are shared across the chunk, and a single modular reduction is
applied per chunk when the intermediate bound allows.  Every family kind
goes through this grid.  A cover that does not involve t (the constant
surface, or one cover of a multicover) has the same values in every column,
so it costs one column per prime, which numpy broadcasts across the grid.
Any exact method is conforming; this one keeps the per-prime cost at
O(p^2) table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fp_poly
from .family_model import (
    BadPrime,
    BivarPoly,
    FamilySpec,
    bad_primes,
    fiber_at,
    singular_locus_polys,
)
from .fiber_trace import UnsupportedFiber, component_count
from .prime_field import FieldCtx

_CHUNK_ELEMENTS = 4_000_000  # grid cells held in memory at once


def _horner_vec(coeffs, xs: np.ndarray, p: int) -> np.ndarray:
    """Evaluate an integer polynomial (ascending coeffs) at an int64 vector."""
    acc = np.zeros_like(xs)
    for c in reversed(coeffs):
        acc = (acc * xs + c) % p
    return acc


def _chi_at_all_x(coeffs, ctx: FieldCtx) -> np.ndarray:
    """chi(G(x)) for every x in F_p, G given by ascending coefficients mod p."""
    vals = _horner_vec(coeffs, np.arange(ctx.p, dtype=np.int64), ctx.p)
    return ctx.chi_table[vals]


@dataclass
class _CoverPlan:
    """F(x, t) mod p split by t-degree: varying x-columns and constant rows."""

    varying: list[tuple[int, np.ndarray]]  # (j, u_j(x) for all x)
    const: list[tuple[int, int]]  # (j, scalar coefficient)


def _plan_cover(t_coeffs: list[tuple[int, ...]], p: int) -> _CoverPlan:
    xs = np.arange(p, dtype=np.int64)
    varying: list[tuple[int, np.ndarray]] = []
    const: list[tuple[int, int]] = []
    for j, cs in enumerate(t_coeffs):
        if not cs:
            continue
        if len(cs) == 1:
            const.append((j, cs[0]))
        else:
            varying.append((j, _horner_vec(cs, xs, p)))
    return _CoverPlan(varying, const)


def _chi_grid_sums(polys: tuple[BivarPoly, ...], ctx: FieldCtx) -> np.ndarray:
    """sum_x prod_i (1 + chi(F_i(x, c))) for all finite c: the affine count.

    Returns an int64 array of length p.
    """
    p = ctx.p
    chi = ctx.chi_table
    column = None  # (p, 1) product over the covers without t, if any
    plans: list[_CoverPlan] = []
    for poly in polys:
        t_coeffs = [fp_poly.trim(c % p for c in cs) for cs in poly.t_coeff_polys()]
        if any(t_coeffs[1:]):
            plans.append(_plan_cover(t_coeffs, p))
            continue
        factor = (1 + _chi_at_all_x(t_coeffs[0], ctx))[:, None]
        column = factor if column is None else column * factor
    max_j = max([j for plan in plans for j, _ in plan.varying + plan.const] + [0])
    chunk = max(1, min(p, _CHUNK_ELEMENTS // p))
    out = np.empty(p, dtype=np.int64)
    for lo in range(0, p, chunk):
        cs = np.arange(lo, min(lo + chunk, p), dtype=np.int64)
        cpow = [np.ones_like(cs)]
        for _ in range(max_j):
            cpow.append((cpow[-1] * cs) % p)
        prod = column
        for plan in plans:
            row = np.zeros_like(cs)
            for j, coeff in plan.const:
                row = (row + coeff * cpow[j]) % p
            bound = p - 1
            grid = np.broadcast_to(row, (p, cs.size)).copy()
            for j, u in plan.varying:
                if j == 0:
                    grid += u[:, None]
                    bound += p - 1
                else:
                    grid += u[:, None] * cpow[j][None, :]
                    bound += (p - 1) * (p - 1)
                if bound >= (1 << 62) - p * p:
                    grid %= p
                    bound = p - 1
            if bound >= 2 * p:
                grid %= p
            elif bound >= p:
                grid -= np.int64(p) * (grid >= p)
            vals = chi[grid]
            one_plus = (1 + vals).astype(np.int8)
            prod = one_plus if prod is None else prod * one_plus
        # with no t-dependent cover prod is one column, the same for every c
        out[lo : lo + cs.size] = prod.sum(axis=0, dtype=np.int64)
    return out


def affine_counts(spec: FamilySpec, ctx: FieldCtx) -> np.ndarray:
    """N_affine[c] for every finite c, as an int64 array of length p."""
    return _chi_grid_sums(spec.polys, ctx)


def singular_c_values(spec: FamilySpec, ctx: FieldCtx) -> np.ndarray:
    """Finite c with singular fiber, via the integer t-resultant loci.

    Roots mod p of Res_x(F_i, F_i'), of the leading x-coefficients, and (for
    multicovers) of Res_x(F_1, F_2).  Agrees with the defining gcd computation
    away from the bad set; the agreement is exercised by the test suite.
    """
    p = ctx.p
    cs = np.arange(p, dtype=np.int64)
    mask = np.zeros(p, dtype=bool)
    for locus in singular_locus_polys(spec):
        red = fp_poly.trim(c % p for c in locus)
        if not red:
            raise BadPrime(
                f"p = {p}: degeneracy locus vanishes identically (prime belongs in S)"
            )
        if len(red) == 1:
            continue
        mask |= _horner_vec(red, cs, p) == 0
    return np.flatnonzero(mask)


@dataclass
class FiberArrays:
    """Traces of every finite fiber of one prime, plus singularity flags."""

    p: int
    a: np.ndarray  # int64, length p
    singular: np.ndarray  # bool, length p
    unsupported: list[UnsupportedFiber]


def fiber_arrays(spec: FamilySpec, ctx: FieldCtx) -> FiberArrays:
    """Traces a[c] = 1 + p*m - N for all finite c in one vectorized pass.

    A multicover takes nu and m from its affine_plus rule.  A single cover has
    m = 1 and its points over x = infinity from the generic x-degree; the
    fibers on the singular locus go through component_count only to collect
    the ones it refuses, which are never guessed.
    """
    p = ctx.p
    if p in bad_primes(spec):
        raise BadPrime(f"p = {p} lies in the bad set of {spec.name}")

    n_aff = affine_counts(spec, ctx)
    sing_idx = singular_c_values(spec, ctx)
    singular = np.zeros(p, dtype=bool)
    singular[sing_idx] = True

    if spec.kind == "multicover":
        rule = spec.infinity_rule
        return FiberArrays(p, 1 + p * rule.m - (n_aff + rule.nu), singular, [])

    poly = spec.polys[0]
    if poly.deg_x % 2 == 1:
        inf = 1
    else:
        lead = fp_poly.trim(c % p for c in poly.leading_x_coeff())
        inf = 1 + _chi_at_all_x(lead, ctx).astype(np.int64)
    a = (p + 1) - (n_aff + inf)
    unsupported = []
    for c in sing_idx:
        try:
            component_count(ctx, fiber_at(spec, ctx, int(c)))
        except UnsupportedFiber as exc:
            unsupported.append(exc)
    return FiberArrays(p, a, singular, unsupported)


def univariate_curve_trace(ctx: FieldCtx, coeffs: tuple[int, ...]) -> int:
    """a_p = p + 1 - #{smooth projective y^2 = G(x)}(F_p), G squarefree mod p."""
    p = ctx.p
    red = fp_poly.trim(c % p for c in coeffs)
    if len(red) - 1 < len(coeffs) - 1:
        raise ValueError("leading coefficient vanished mod p")
    n_aff = p + int(_chi_at_all_x(red, ctx).sum(dtype=np.int64))
    d = len(red) - 1
    n_inf = 1 if d % 2 == 1 else 1 + ctx.chi(red[-1])
    return p + 1 - (n_aff + n_inf)
