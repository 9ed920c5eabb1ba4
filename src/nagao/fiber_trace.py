"""The scalar references: per-fiber point counts and Frobenius traces.

Every trace is recovered from an exact point count through the identity
N = 1 - a + p*m, where m is the number of F_p-rational components of the
fiber.  Fibers whose plane model provably cannot certify m are refused: they
surface as UnsupportedFiber, never guessed.

Everything here enumerates F_p, fiber by fiber, and serves only the tests
and `nagao verify`, which check the kernels against it; no command but
verify imports this module.  The fiber classifier component_count and
UnsupportedFiber belong to the run path and live in fiber_sum; they are
imported here so that the references read them under their old names.
"""

from __future__ import annotations

from typing import NamedTuple

from . import fp_poly
from .family_model import FamilySpec, FiberModel, fiber_at
from .fiber_sum import UnsupportedFiber, component_count
from .prime_field import FieldCtx


class FiberTraceRecord(NamedTuple):
    """Point count N, rational-component count m, trace a, for one fiber.

    Satisfies N = 1 - a + p*m by construction."""

    c: int | None  # None encodes the fiber over infinity
    N: int
    m: int
    a: int
    singular: bool


def count_affine(ctx: FieldCtx, fiber: FiberModel) -> int:
    """Exact number of affine points of the fiber.

    Single cover: sum over x of 1 + chi(f(x)); two covers: the product
    (1 + chi(f1(x))) * (1 + chi(f2(x))) counts pairs (y, z)."""
    if fiber.at_infinity and not fiber.polys:
        raise ValueError("no affine model for the fiber over infinity")
    p = ctx.p
    total = 0
    if len(fiber.polys) == 1:
        f = fiber.polys[0]
        for x in range(p):
            total += 1 + ctx.chi(fp_poly.eval_at(f, x, p))
    else:
        f1, f2 = fiber.polys
        for x in range(p):
            total += (1 + ctx.chi(fp_poly.eval_at(f1, x, p))) * (
                1 + ctx.chi(fp_poly.eval_at(f2, x, p))
            )
    return total


def points_at_infinity(ctx: FieldCtx, fiber: FiberModel) -> int:
    """Points of the smooth completion lying over x = infinity: the rule of
    family_model.infinity_leads, sum_I chi(lc_I) over the subsets I of the
    covers whose product G_I has even degree, the empty one included.  An
    x-degree drop changes the model at infinity and raises UnsupportedFiber."""
    p = ctx.p
    leads = [(1, 0)]  # (lc_I mod p, deg G_I)
    for f, d in zip(fiber.polys, fiber.generic_deg):
        if len(f) - 1 < d:
            raise UnsupportedFiber(p, fiber.c, "x-degree drop")
        leads += [(lc * f[-1] % p, e + d) for lc, e in leads]
    return sum(ctx.chi(lc) for lc, e in leads if e % 2 == 0)


def fiber_trace(ctx: FieldCtx, spec: FamilySpec, c) -> FiberTraceRecord:
    """Full record for the fiber over c, where c = None is t = infinity.

    Raises UnsupportedFiber when component_count refuses the fiber, and
    BadPrime (from fiber_at) when p lies in the family's bad set."""
    p = ctx.p
    fiber = fiber_at(spec, ctx, c)

    if fiber.at_infinity and not fiber.polys:  # a cover involves t
        return FiberTraceRecord(c=None, N=p + 1, m=1, a=0, singular=True)

    m = component_count(ctx, fiber)
    n_affine = count_affine(ctx, fiber)
    n_inf = points_at_infinity(ctx, fiber)
    N = n_affine + n_inf
    a = 1 + p * m - N
    singular = _is_singular(ctx, fiber)
    return FiberTraceRecord(c=fiber.c, N=N, m=m, a=a, singular=singular)


def _is_singular(ctx: FieldCtx, fiber: FiberModel) -> bool:
    """Some cover drops x-degree or has a repeated root, or two covers share
    a root: the defining gcd computation in F_p[x]."""
    p = ctx.p
    for i, f in enumerate(fiber.polys):
        if len(f) - 1 < fiber.generic_deg[i]:
            return True
        if len(fp_poly.gcd(f, fp_poly.deriv(f, p), p)) > 1:
            return True
    if len(fiber.polys) == 2:
        if len(fp_poly.gcd(fiber.polys[0], fiber.polys[1], p)) > 1:
            return True
    return False


def brute_force_affine(p: int, polys: tuple[tuple[int, ...], ...]) -> int:
    """Count solutions by direct enumeration of (x, y) or (x, y, z) in F_p."""
    count = 0
    if len(polys) == 1:
        f = polys[0]
        for x in range(p):
            fx = fp_poly.eval_at(f, x, p)
            for y in range(p):
                if (y * y - fx) % p == 0:
                    count += 1
    else:
        f1, f2 = polys
        for x in range(p):
            v1 = fp_poly.eval_at(f1, x, p)
            v2 = fp_poly.eval_at(f2, x, p)
            n1 = sum(1 for y in range(p) if (y * y - v1) % p == 0)
            n2 = sum(1 for z in range(p) if (z * z - v2) % p == 0)
            count += n1 * n2
    return count


def discriminant_locus(spec: FamilySpec, ctx: FieldCtx) -> set[int]:
    """Finite c whose fiber is singular by the gcd definition (_is_singular);
    raises BadPrime when p lies in the family's bad set."""
    return {c for c in range(ctx.p) if _is_singular(ctx, fiber_at(spec, ctx, c))}


def weil_bound(genus: int, p: int) -> float:
    """|a| <= 2g sqrt(p) for a smooth projective curve of genus g over F_p."""
    return 2 * genus * p ** 0.5
