"""The numpy kernels, the O(p^2) grid oracle and the O(p) character sums.

trace_sum needs, for each prime p, sum_c N_affine(c) over the finite c, and
gets it from one of four exact kernels (KERNELS).  kernel_name picks it from
the shape of F over Z; both are in fiber_sum, which imports this module, and
numpy with it, the first time a prime needs a kernel or a sum from here:

- chi_sum (fiber_sum): at most one cover involves t, with t-degree <= 2.
  The sum reduces to character sums S(f) and root counts in F_p[x]; S(f) of
  degree <= 3 costs O(p^(1/4)) by baby-step giant-step, so this kernel loads
  numpy only for an S(f) of degree >= 4 (table_char_sum, O(p)).
- coset (charsum.coset_sum): the cover involving t is G(x) + lam t^d with
  d >= 3.  S(u) = sum_c chi(u + lam c^d) is constant on the cosets of the
  lcm(2, gcd(d, p - 1))-th powers, so the sum is O(p) bucketing of the
  values of G, in pure Python: trace_sum imports charsum for it, not this
  module.
- separable: the cover involving t is G(x) + H(t) with deg H >= 3 and H not
  a monomial.  The sum is sum_w chi(w) (h_G * h_H)(w) over the value
  histograms of G and H, a cyclic convolution of length p: an FFT of the
  linear one, padded to a power of two, folded back mod p; O(p log p).
- grid: every other shape.  The p x p grid of character values
  chi(F(x, c)) is evaluated columnwise in chunks with numpy: the
  t-coefficients of F are specialized to x once per prime, powers of c are
  shared across the chunk, and a single modular reduction is applied per
  chunk when the intermediate bound allows.  A cover that does not involve t
  has the same values in every column, so numpy broadcasts one column.

The grid also gives every finite fiber's trace (fiber_arrays, with the
points over x = infinity of family_model.infinity_leads); `nagao verify` and
the tests use it as the oracle for trace_sum.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import fp_poly
from .charsum import coset_sum
from .family_model import BivarPoly, FamilySpec, infinity_leads, involves_t
from .fiber_sum import (
    UnsupportedFiber,
    chi_sum,
    refused,
    require_good,
    singular_c_values,
    split_covers,
)
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


def table_char_sum(coeffs, ctx: FieldCtx) -> int:
    """S(G) = sum_x chi(G(x)) from the character table, O(p)."""
    return int(_chi_at_all_x(coeffs, ctx).sum(dtype=np.int64))


class _CoverPlan(NamedTuple):
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


def _separable(polys: tuple[BivarPoly, ...], ctx: FieldCtx) -> int:
    """sum_c N_affine(c) when the cover with t is G(x) + H(t).

    With h_G(u) the sum of weight[x] over G(x) = u, and h_H(v) = #{c : H(c) =
    v}, the character sum is sum_w chi(w) (h_G * h_H)(w), a cyclic
    convolution of length p.  The FFT computes the linear convolution, of
    length 2p - 1, padded to a power of two, and its top half is folded back
    mod p.  Its entries are integers below 2p deg H, so the FFT recovers them
    by rounding; a result that is not within 0.25 of an integer raises.
    """
    from numpy import fft  # only families of this shape load it

    p = ctx.p
    free, varying = split_covers(polys, p)
    weight = np.ones(p, dtype=np.int64)
    for g in free:
        weight *= 1 + _chi_at_all_x(g, ctx)
    xs = np.arange(p, dtype=np.int64)
    h_coeffs = (0,) + tuple(cs[0] if cs else 0 for cs in varying[1:])
    hist_g = np.bincount(_horner_vec(varying[0], xs, p), weights=weight, minlength=p)
    hist_h = np.bincount(_horner_vec(h_coeffs, xs, p), minlength=p)
    n = 1 << (2 * p - 2).bit_length()  # the least power of two >= 2p - 1
    conv = fft.irfft(fft.rfft(hist_g, n) * fft.rfft(hist_h, n), n)
    counts = np.rint(conv)
    if np.abs(conv - counts).max() >= 0.25:
        raise ArithmeticError(f"p = {p}: FFT convolution is not within 0.25 of an integer")
    counts = counts[:p] + counts[p : 2 * p]
    chi = ctx.chi_table.astype(np.int64)
    return int(p * weight.sum() + chi @ counts.astype(np.int64))


def _grid_total(polys: tuple[BivarPoly, ...], ctx: FieldCtx) -> int:
    return int(_chi_grid_sums(polys, ctx).sum())


# each maps (polys, ctx) to sum_c N_affine(c) over the finite c
KERNELS = {
    "chi_sum": chi_sum,
    "coset": coset_sum,
    "separable": _separable,
    "grid": _grid_total,
}


class FiberArrays(NamedTuple):
    """Traces of every finite fiber of one prime, plus singularity flags."""

    p: int
    a: np.ndarray  # int64, length p
    singular: np.ndarray  # bool, length p
    unsupported: list[UnsupportedFiber]


def fiber_arrays(spec: FamilySpec, ctx: FieldCtx) -> FiberArrays:
    """Traces a[c] = 1 + p*m - N(c), m = 1, for all finite c from the grid,
    with sum_I chi(lc_I(c)) points over x = infinity (infinity_leads).

    The same rules as trace_sum, fiber by fiber, over the whole singular locus.
    """
    p = ctx.p
    require_good(spec, p)
    n_inf = 1 + sum(_chi_at_all_x(fp_poly.trim(c % p for c in lc), ctx).astype(np.int64)
                    for lc in infinity_leads(spec.polys)[1:])
    sing_idx = singular_c_values(spec, ctx)
    singular = np.zeros(p, dtype=bool)
    singular[sing_idx] = True
    a = (p + 1) - (affine_counts(spec, ctx) + n_inf)
    return FiberArrays(p, a, singular, refused(spec, ctx, sing_idx))


def grid_trace_sum(spec: FamilySpec, ctx: FieldCtx) -> tuple[int, list[UnsupportedFiber]]:
    """trace_sum from the per-fiber traces of fiber_arrays: its O(p^2) oracle."""
    arrays = fiber_arrays(spec, ctx)
    total = int(arrays.a.sum())
    if not involves_t(spec):
        total += int(arrays.a[0])  # the fiber over infinity is the same curve
    return total, arrays.unsupported
