"""Sum of the fiber traces over P^1(F_p) for one prime, and its refusals.

trace_sum runs the family's kernel and adds the points over the two
infinities, over x = infinity by the one rule of family_model.infinity_leads.
kernel_name picks the kernel from the shape of F over Z, so a family uses
one kernel at every prime.  The chi_sum kernel reduces the sum to
a few character sums S(f) = sum_x chi(f(x)) (charsum) and root counts in
F_p[x], so a chi_sum family whose sums stay at degree <= 3, as every shipped
family's do, computes its traces without numpy.  The coset kernel, for
G(x) + lam t^d, is in charsum and needs no numpy either.  The separable and
grid kernels, and S(f) of degree >= 4, are in kernels, which is imported,
and numpy with it, the first time one of them runs.

This module also owns the fiber classifier: component_count gives a fiber's
number of rational components or refuses the fiber with UnsupportedFiber;
refused runs it over trace_sum's candidates or singular_c_values' locus.
"""

from __future__ import annotations

import math

from . import fp_poly
from .family_model import (
    BadPrime,
    BivarPoly,
    FamilySpec,
    FiberModel,
    bad_primes,
    fiber_at,
    infinity_leads,
    involves_t,
    singular_locus_polys,
)
from .prime_field import FieldCtx, legendre


class UnsupportedFiber(Exception):
    """Raised when a fiber's trace cannot be certified; carries (p, c, why)."""

    def __init__(self, p: int, c: int | None, why: str):
        super().__init__(f"unsupported fiber at p={p}, c={c}: {why}")
        self.p = p
        self.c = c
        self.why = why


def kernel_name(polys: tuple[BivarPoly, ...]) -> str:
    """The kernels.KERNELS entry that sums these covers, from the shape of F over Z."""
    varying = [poly for poly in polys if poly.deg_t > 0]
    if len(varying) > 1:
        return "grid"
    if not varying or varying[0].deg_t <= 2:
        return "chi_sum"
    terms = varying[0].terms
    if all(i == 0 or j == 0 for i, j, _ in terms):  # G(x) + H(t)
        return "coset" if sum(j > 0 for _, j, _ in terms) == 1 else "separable"
    return "grid"


def split_covers(polys: tuple[BivarPoly, ...], p: int):
    """(free, varying) mod p for covers of which at most one involves t.

    free holds the covers without t as ascending-x tuples; varying holds the
    t-coefficients (ascending-x tuples, indexed by t-degree) of the cover with
    t, or is empty when no cover involves t.
    """
    free: list[tuple[int, ...]] = []
    varying: list[tuple[int, ...]] = []
    for poly in polys:
        cs = [fp_poly.trim(c % p for c in cs) for cs in poly.t_coeff_polys()]
        if poly.deg_t > 0:
            varying = cs
        else:
            free.append(cs[0])
    return free, varying


def chi_sum(polys: tuple[BivarPoly, ...], ctx: FieldCtx) -> int:
    """sum_c N_affine(c) when at most one cover involves t, with t-degree <= 2.

    Write that cover as a(x) c^2 + b(x) c + e(x), D = b^2 - 4ae, and let the
    covers without t give the weight w(x) = prod_i (1 + chi(G_i(x))), W its
    sum.  For each x the sum over c of chi(F) is -chi(a) if a != 0 != D,
    (p - 1) chi(a) if a != 0 = D, 0 if a = 0 != b and p chi(e) if a = b = 0
    (Berndt-Evans-Williams, Gauss and Jacobi Sums, Thm 2.1.2).  As chi(a) is
    0 on the roots of a,

        sum_c N_aff = p W - sum_x w chi(a) + p sum_{Z(D)} w chi(a)
                      + p sum_{Z(a) & Z(b)} w chi(e).

    w(x) = sum over subsets I of chi(prod_{i in I} G_i(x)), so W and
    sum_x w chi(a) are sums of S(f) (charsum.char_sum).  The last two terms run over
    the roots of D and of gcd(a, b) (fp_poly.roots); a polynomial that
    vanishes mod p has all of F_p as its roots, and its term is S-sums too.
    With no cover without t and a a nonzero constant, only the number of
    roots of D enters, so no root is split off.
    """
    p = ctx.p
    free, varying = split_covers(polys, p)
    e, b, a = (varying + [(), (), ()])[:3]
    d = fp_poly.sub(fp_poly.mul(b, b, p), fp_poly.mul((4,), fp_poly.mul(a, e, p), p), p)
    if not free and len(a) == 1:  # the constant summand chi(a) = +-1
        r = fp_poly.deg(fp_poly.linear_part(d, p)) if d else p  # D = 0: every x
        return p * p + p * legendre(a[0], p) * (r - 1)
    from .charsum import char_sum

    products = [(1,)]  # prod_{i in I} G_i over the subsets I
    for g in free:
        products += [fp_poly.mul(h, g, p) for h in products]

    def w_sum(f: tuple[int, ...]) -> int:  # sum_x w(x) chi(f(x))
        return sum(char_sum(fp_poly.mul(f, h, p), ctx) for h in products)

    def w_chi_at_roots(f: tuple[int, ...], zeros: tuple[int, ...]) -> int:
        total = 0
        for r in fp_poly.roots(zeros, p):
            w = math.prod(1 + legendre(fp_poly.eval_at(g, r, p), p) for g in free)
            total += w * legendre(fp_poly.eval_at(f, r, p), p)
        return total

    sum_a = w_sum(a)
    total = p * w_sum((1,)) - sum_a
    if a:  # else chi(a) = 0 everywhere
        total += p * (w_chi_at_roots(a, d) if d else sum_a)
    total += p * (w_chi_at_roots(e, fp_poly.gcd(a, b, p)) if a or b else w_sum(e))
    return total


def require_good(spec: FamilySpec, p: int) -> None:
    if p in bad_primes(spec):
        raise BadPrime(f"p = {p} lies in the bad set of {spec.name}")


def singular_c_values(spec: FamilySpec, ctx: FieldCtx) -> list[int]:
    """Finite c with singular fiber, ascending: the roots mod p of
    Res_x(F_i, F_i'), of the leading x-coefficients and, for multicovers, of
    Res_x(F_1, F_2).  The test suite checks them against the defining gcd
    computation away from the bad set."""
    return locus_roots(singular_locus_polys(spec), ctx)


def locus_roots(loci, ctx: FieldCtx) -> list[int]:
    """The c in F_p at which one of the integer polynomials loci vanishes, ascending."""
    p = ctx.p
    found: set[int] = set()
    for locus in loci:
        red = fp_poly.trim(c % p for c in locus)
        if not red:
            raise BadPrime(
                f"p = {p}: degeneracy locus vanishes identically (prime belongs in S)"
            )
        if len(red) > 1:
            found.update(fp_poly.roots(red, p))
    return sorted(found)


def component_count(ctx: FieldCtx, fiber: FiberModel) -> int:
    """Number of F_p-rational components of the fiber.

    Each cover f = s^2 * ftilde with ftilde squarefree nonconstant (s = 1 for
    a smooth fiber) makes y^2 = f irreducible, and the fiber gets m = 1.  An
    x-degree drop of a cover, or a cover that is a constant times a square,
    raises UnsupportedFiber.

    Not refused, though reducible: two covers neither of which is a constant
    times a square, while G_1 G_2 is one.  y^2 = x^3 - x, z^2 = x^3 - x + t
    at c = 0 has the two components z = +-y, yet gets m = 1.  Such c are
    roots of Res_x(F_1, F_2), which are not searched."""
    for f, d in zip(fiber.polys, fiber.generic_deg):
        if len(f) - 1 < d:
            raise UnsupportedFiber(ctx.p, fiber.c, "x-degree drop")
        if len(fp_poly.odd_multiplicity_part(f, ctx.p)) <= 1:
            raise UnsupportedFiber(
                ctx.p, fiber.c, "fiber polynomial is a constant times a square"
            )
    return 1


def refused(spec: FamilySpec, ctx: FieldCtx, sing_idx) -> list[UnsupportedFiber]:
    """The fibers over the c in sing_idx whose trace component_count refuses."""
    out = []
    for c in sing_idx:
        try:
            component_count(ctx, fiber_at(spec, ctx, int(c)))
        except UnsupportedFiber as exc:
            out.append(exc)
    return out


def trace_sum(spec: FamilySpec, ctx: FieldCtx) -> tuple[int, list[UnsupportedFiber]]:
    """Sum of the fiber traces over P^1(F_p), and the fibers it refuses.

    A finite fiber has m = 1 and sum_I chi(lc_I(c)) points over x = infinity
    (infinity_leads), which sum over c to p for the empty product and S(lc_I)
    for the others.  component_count refuses a fiber only at a root of some
    lc_i (a degree drop) or, for a cover of even degree, of Res_x(F_i, F_i')
    (a constant times a square).  The fiber over t = infinity has trace 0
    unless no cover involves t: then it is the curve of every finite fiber.
    """
    p = ctx.p
    require_good(spec, p)
    name = kernel_name(spec.polys)
    if name == "chi_sum":
        n_aff = chi_sum(spec.polys, ctx)
    elif name == "coset":
        from .charsum import coset_sum

        n_aff = coset_sum(spec.polys, ctx)
    else:
        from .kernels import KERNELS  # the numpy kernels

        n_aff = KERNELS[name](spec.polys, ctx)
    total = p * p - n_aff  # sum_c (1 + p - N_aff(c) - 1): the empty product
    leads = infinity_leads(spec.polys)[1:]
    if leads:
        from .charsum import char_sum

        total -= sum(char_sum(lc, ctx) for lc in leads)
    if not involves_t(spec):
        total += total // p
    loci = singular_locus_polys(spec)  # Res_x(F_i, F_i') and lc_i per cover
    search = [loci[2 * i + k] for i, poly in enumerate(spec.polys)
              for k in (0, 1) if k or poly.deg_x % 2 == 0]
    return total, refused(spec, ctx, locus_roots(search, ctx))
