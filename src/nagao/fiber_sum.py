"""Sum of the fiber traces over P^1(F_p) for one prime, and its refusals.

trace_sum runs the family's kernel (kernel_name) and adds the points over the
two infinities.  The root_count kernel and the singular-fiber locus are root
finding in F_p[x], O(deg^2 log p), so a root_count family computes its traces
without numpy.  The other kernels are in kernels, which trace_sum imports,
and numpy with it, only for a family that takes one of them.
"""

from __future__ import annotations

from . import fp_poly
from .family_model import (
    BadPrime,
    BivarPoly,
    FamilySpec,
    bad_primes,
    fiber_at,
    kernel_name,
    singular_locus_polys,
)
from .fiber_trace import UnsupportedFiber, component_count
from .prime_field import FieldCtx


def root_count(polys: tuple[BivarPoly, ...], ctx: FieldCtx) -> int:
    """sum_c N_affine(c) for the one cover e(x) + b(x) t + lam t^2, lam = +-1.

    For each x, sum_c chi(lam c^2 + b c + e) is -chi(lam) when D = b^2 - 4 lam e
    is nonzero at x and (p - 1) chi(lam) when it vanishes, so the sum is
    p^2 + p chi(lam) (r_D - 1), with r_D the number of roots of D in F_p.
    chi(lam) comes from Euler's criterion.
    """
    p = ctx.p
    e, b, (lam,) = polys[0].t_coeff_polys()
    d = fp_poly.sub(fp_poly.mul(b, b, p), fp_poly.mul((4 * lam,), e, p), p)
    r = fp_poly.deg(fp_poly.linear_part(d, p)) if d else p  # D = 0: every x is a root
    chi_lam = 1 if pow(lam % p, (p - 1) // 2, p) == 1 else -1
    return p * p + p * chi_lam * (r - 1)


def needs_numpy(spec: FamilySpec) -> bool:
    """Whether computing a prime's entry loads numpy: a kernel other than
    root_count, or a trace curve (kernels.univariate_curve_trace)."""
    return kernel_name(spec.polys) != "root_count" or bool(spec.trace.curves)


def require_good(spec: FamilySpec, p: int) -> None:
    if p in bad_primes(spec):
        raise BadPrime(f"p = {p} lies in the bad set of {spec.name}")


def singular_c_values(spec: FamilySpec, ctx: FieldCtx) -> list[int]:
    """Finite c with singular fiber, ascending, via the integer t-resultant loci.

    The roots mod p of Res_x(F_i, F_i'), of the leading x-coefficients, and
    (for multicovers) of Res_x(F_1, F_2), by fp_poly.roots.  Agrees with the
    defining gcd computation away from the bad set; the agreement is
    exercised by the test suite.
    """
    p = ctx.p
    found: set[int] = set()
    for locus in singular_locus_polys(spec):
        red = fp_poly.trim(c % p for c in locus)
        if not red:
            raise BadPrime(
                f"p = {p}: degeneracy locus vanishes identically (prime belongs in S)"
            )
        if len(red) > 1:
            found.update(fp_poly.roots(red, p))
    return sorted(found)


def refused(spec: FamilySpec, ctx: FieldCtx, sing_idx) -> list[UnsupportedFiber]:
    """The singular fibers of a single cover whose trace component_count refuses."""
    out = []
    for c in sing_idx:
        try:
            component_count(ctx, fiber_at(spec, ctx, int(c)))
        except UnsupportedFiber as exc:
            out.append(exc)
    return out


def _x_infinity_total(poly: BivarPoly, ctx: FieldCtx) -> int:
    """The points over x = infinity summed over the finite c; p for an odd
    x-degree, which every root_count family has."""
    if poly.deg_x % 2 == 1:
        return ctx.p
    from .kernels import points_over_x_infinity

    return int(points_over_x_infinity(poly, ctx).sum())


def trace_sum(spec: FamilySpec, ctx: FieldCtx) -> tuple[int, list[UnsupportedFiber]]:
    """Sum of the fiber traces over P^1(F_p), and the fibers it refuses.

    A multicover takes nu and m from its affine_plus rule and refuses no
    fiber, so it skips the singular locus.  A single cover has m = 1 and its
    points over x = infinity from the generic x-degree; its singular fibers
    go through component_count to collect the refused ones.  The fiber over
    t = infinity has trace 0, except in a constant family, whose fibers are
    all the same curve.
    """
    p = ctx.p
    require_good(spec, p)
    name = kernel_name(spec.polys)
    if name == "root_count":
        n_aff = root_count(spec.polys, ctx)
    else:
        from .kernels import KERNELS  # the numpy kernels

        n_aff = KERNELS[name](spec.polys, ctx)
    if spec.kind == "multicover":
        rule = spec.infinity_rule
        return p * (1 + p * rule.m - rule.nu) - n_aff, []
    total = p * (p + 1) - n_aff - _x_infinity_total(spec.polys[0], ctx)
    if spec.kind == "constant":
        total += total // p
    return total, refused(spec, ctx, singular_c_values(spec, ctx))
