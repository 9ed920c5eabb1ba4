"""Counting points on the fibers of a family, one prime at a time.

Walks through the primitives: the quadratic-character table, affine counts
via sum of 1 + chi(f(x)), completion at x = infinity, component counts for
singular fibers, and the trace identity N = 1 - a + p*m.
"""

from nagao import load_shipped_family
from nagao.family_model import fiber_at
from nagao.fiber_trace import count_affine, discriminant_locus, fiber_trace, points_at_infinity
from nagao.prime_field import make_field

spec = load_shipped_family("shioda_g1")
print(f"family: {spec.name}   y^2 = {spec.polys[0].render()}   genus {spec.genus}")

p = 11
ctx = make_field(p)
print(f"\nquadratic character mod {p}:")
print("  a  :", " ".join(f"{a:3d}" for a in range(p)))
print("  chi:", " ".join(f"{ctx.chi(a):3d}" for a in range(p)))

print(f"\nfibers over finite c in F_{p}:")
print("  c   N_affine  N_inf   N     m    a    singular")
for c in range(p):
    fiber = fiber_at(spec, ctx, c)
    rec = fiber_trace(ctx, spec, c)
    n_aff = count_affine(ctx, fiber)
    n_inf = points_at_infinity(ctx, fiber)
    print(
        f" {c:3d}  {n_aff:7d}  {n_inf:5d}  {rec.N:4d}  {rec.m:3d}  {rec.a:+3d}"
        f"    {'yes' if rec.singular else 'no'}"
    )
    assert rec.N == 1 - rec.a + p * rec.m  # the trace identity, always

locus = sorted(discriminant_locus(spec, ctx))
print(f"\nsingular fibers sit over c in {locus}")
print("each is a nodal cubic: one rational component, so m = 1 and the")
print("node costs the count exactly chi(slope) relative to the smooth line.")

inf = fiber_trace(ctx, spec, None)
print(f"\nfiber over t = infinity: N = {inf.N}, a = {inf.a} (declared rule: "
      f"{spec.infinity_rule.kind})")
