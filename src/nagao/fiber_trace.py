"""The scalar references: per-fiber point counts and Frobenius traces.

Every trace is recovered from an exact point count through the identity
N = 1 - a + p*m, where m is the number of F_p-rational components of the
fiber.  Fibers whose plane model provably cannot certify m are refused: they
surface as UnsupportedFiber, never guessed.

Everything here enumerates F_p, fiber by fiber, and serves only the tests
and `nagao verify`, whose checks (verify_family) live here and compare the
run path, trace_sum and trace_correction, with these references directly;
no command but verify imports this module.
"""

from __future__ import annotations

from typing import NamedTuple

from . import fp_poly
from .family_model import FamilySpec, FiberModel, bad_primes, fiber_at, fiber_genus
from .fiber_sum import UnsupportedFiber, component_count
from .prime_field import FieldCtx, make_field, primes_in_range


class FiberTraceRecord(NamedTuple):
    """Point count N, rational-component count m, trace a, for one fiber.

    Satisfies N = 1 - a + p*m by construction."""

    c: int | None  # None encodes the fiber over infinity
    N: int
    m: int
    a: int
    singular: bool


def count_affine(ctx: FieldCtx, fiber: FiberModel) -> int:
    """Exact number of affine points of the fiber: the sum over x of the
    product over the covers of 1 + chi(f_i(x)), which counts y (and z)."""
    if fiber.at_infinity and not fiber.polys:
        raise ValueError("no affine model for the fiber over infinity")
    p = ctx.p
    total = 0
    for x in range(p):
        n = 1
        for f in fiber.polys:
            n *= 1 + ctx.chi(fp_poly.eval_at(f, x, p))
        total += n
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
    for x in range(p):
        n = 1
        for f in polys:
            v = fp_poly.eval_at(f, x, p)
            n *= sum(1 for y in range(p) if (y * y - v) % p == 0)
        count += n
    return count


def discriminant_locus(spec: FamilySpec, ctx: FieldCtx) -> set[int]:
    """Finite c whose fiber is singular by the gcd definition (_is_singular);
    raises BadPrime when p lies in the family's bad set."""
    return {c for c in range(ctx.p) if _is_singular(ctx, fiber_at(spec, ctx, c))}


def weil_bound(genus: int, p: int) -> float:
    """|a| <= 2g sqrt(p) for a smooth projective curve of genus g over F_p."""
    return 2 * genus * p ** 0.5


def curve_trace_by_count(curve: tuple[int, ...], ctx: FieldCtx) -> int | None:
    """a = p + 1 - N of y^2 = G(x) by enumeration, with 1 point over x =
    infinity at odd degree and 1 + chi(lc) at even; None when G mod p is not
    squarefree of full degree (a bad trace prime)."""
    p = ctx.p
    g = fp_poly.trim(c % p for c in curve)
    if len(g) < len(curve) or len(fp_poly.gcd(g, fp_poly.deriv(g, p), p)) > 1:
        return None
    n_inf = 1 if len(g) % 2 == 0 else 1 + ctx.chi(g[-1])
    return p + 1 - brute_force_affine(p, (g,)) - n_inf


class VerifyCheck(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def verify_family(spec: FamilySpec, p_max: int = 23) -> list[VerifyCheck]:
    """Check the run path against enumeration at every good p <= p_max.

    count_affine against brute_force_affine on every finite fiber; the Weil
    bound on every fiber that fiber_trace calls smooth; the resultant locus
    against the gcd locus; and trace_sum against the fiber_trace records over
    P^1(F_p), t = infinity included (the sum, or the refused c when some are),
    with trace_correction against the enumerated traces of the trace curves.
    Each check reports its first mismatch, in ascending p and then c."""
    from .accumulator import BadTracePrime, trace_correction
    from .fiber_sum import kernel_name, singular_c_values, trace_sum

    name = kernel_name(spec.polys)
    genus = fiber_genus(spec.polys)

    def records(ctx):  # the fiber_trace record over each c in P^1(F_p), or None if refused
        out = {}
        for c in [*range(ctx.p), None]:
            try:
                out[c] = fiber_trace(ctx, spec, c)
            except UnsupportedFiber:
                out[c] = None
        return out

    def counts(p, ctx):
        for c in range(p):
            fiber = fiber_at(spec, ctx, c)
            got, want = count_affine(ctx, fiber), brute_force_affine(p, fiber.polys)
            if got != want:
                return f"p={p}, c={c}: count_affine {got} != enumeration {want}"

    def weil(p, ctx):
        for c, rec in records(ctx).items():
            if rec is not None and not rec.singular and abs(rec.a) > weil_bound(genus, p):
                return f"p={p}, c={c}: |a| = {abs(rec.a)} exceeds 2g sqrt(p)"

    def locus(p, ctx):
        via_resultant = set(singular_c_values(spec, ctx))
        via_gcd = discriminant_locus(spec, ctx)
        if via_resultant != via_gcd:
            return f"p={p}: resultant locus {sorted(via_resultant)} != gcd locus {sorted(via_gcd)}"

    def sums(p, ctx):
        total, refused = trace_sum(spec, ctx)
        got = [u.c for u in refused] or total  # the refused c, or the sum when none is
        recs = records(ctx)
        want = [c for c, rec in recs.items() if rec is None] or sum(rec.a for rec in recs.values())
        if got != want:
            return f"p={p}: {name} (sum, or refused c) {got} != fiber_trace over P^1 {want}"
        traces = [curve_trace_by_count(curve, ctx) for curve in spec.trace.curves]
        want = "bad" if None in traces else sum(traces)
        try:
            got = trace_correction(spec, ctx)
        except BadTracePrime:
            got = "bad"
        if got != want:
            return f"p={p}: trace_correction {got} != enumerated trace curves {want}"

    bad = bad_primes(spec)
    primes = [p for p in primes_in_range(3, p_max) if p not in bad]
    checks: list[VerifyCheck] = []
    for title, check in (
        ("count_affine: exhaustive match", counts),
        ("fiber_trace: Weil bound on smooth fibers", weil),
        ("discriminant locus: resultant vs gcd", locus),
        (f"trace_sum: {name} equals fiber_trace over P^1, a_p(B) enumeration", sums),
    ):
        detail = next(filter(None, (check(p, make_field(p)) for p in primes)), "")
        checks.append(VerifyCheck(f"{title} (p <= {p_max})", not detail, detail))
    return checks
