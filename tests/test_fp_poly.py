"""Dense F_p[x] arithmetic: gcd, division, squarefree decomposition."""

import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nagao import fp_poly


def poly_strategy(p, max_deg=6):
    return st.lists(st.integers(0, p - 1), max_size=max_deg + 1).map(fp_poly.trim)


def test_trim_and_deg():
    assert fp_poly.trim([1, 2, 0, 0]) == (1, 2)
    assert fp_poly.trim([0, 0]) == ()
    assert fp_poly.deg(()) == -1
    assert fp_poly.deg((3, 0, 1)) == 2


def test_deriv():
    # d/dx (x^3 + 2x) = 3x^2 + 2 mod 5
    assert fp_poly.deriv((0, 2, 0, 1), 5) == (2, 0, 3)
    # characteristic kills multiples of p: d/dx x^5 = 0 mod 5
    assert fp_poly.deriv((0, 0, 0, 0, 0, 1), 5) == ()


def test_divmod_examples():
    p = 7
    # (x^2 - 1) = (x + 1)(x - 1) + 0
    q, r = fp_poly.divmod_((6, 0, 1), (1, 1), p)
    assert q == (6, 1) and r == ()
    q, r = fp_poly.divmod_((1, 1, 1), (1, 1), p)
    assert r != () and fp_poly.deg(r) < 1
    with pytest.raises(ZeroDivisionError):
        fp_poly.divmod_((1,), (), p)


@settings(max_examples=60)
@given(f=poly_strategy(13), g=poly_strategy(13))
def test_divmod_reconstructs(f, g):
    if not g:
        return
    q, r = fp_poly.divmod_(f, g, 13)
    qg = fp_poly.mul(q, g, 13)
    n = max(len(qg), len(r))
    recon = [0] * n
    for h in (qg, r):
        for i, c in enumerate(h):
            recon[i] = (recon[i] + c) % 13
    assert fp_poly.trim(recon) == f
    assert fp_poly.deg(r) < fp_poly.deg(g)


@settings(max_examples=60)
@given(f=poly_strategy(11), g=poly_strategy(11))
def test_gcd_divides_both_and_is_monic(f, g):
    d = fp_poly.gcd(f, g, 11)
    if not d:
        assert not f and not g
        return
    assert d[-1] == 1
    for h in (f, g):
        if h:
            _, r = fp_poly.divmod_(h, d, 11)
            assert r == ()


def test_gcd_known_value():
    p = 7
    f = fp_poly.mul((1, 1), (2, 1), p)  # (x+1)(x+2)
    g = fp_poly.mul((1, 1), (3, 1), p)  # (x+1)(x+3)
    assert fp_poly.gcd(f, g, p) == (1, 1)


def test_squarefree_decomposition_example():
    p = 7
    # f = (x+1)^2 (x+2) -> [(x+2, 1), (x+1, 2)]
    f = fp_poly.mul(fp_poly.mul((1, 1), (1, 1), p), (2, 1), p)
    parts = dict()
    for q, e in fp_poly.squarefree_decomposition(f, p):
        parts[e] = q
    assert parts == {1: (2, 1), 2: (1, 1)}


@settings(max_examples=40)
@given(
    roots=st.lists(st.tuples(st.integers(0, 10), st.integers(1, 3)), min_size=1, max_size=3)
)
def test_squarefree_decomposition_reconstructs(roots):
    p = 11
    f = (1,)
    for r, e in roots:
        for _ in range(e):
            f = fp_poly.mul(f, ((-r) % p, 1), p)
    if fp_poly.deg(f) >= p:
        return
    recon = (1,)
    for q, e in fp_poly.squarefree_decomposition(f, p):
        for _ in range(e):
            recon = fp_poly.mul(recon, q, p)
    assert recon == fp_poly.monic(f, p)


def test_squarefree_decomposition_degree_guard():
    # deg f >= p: x^3 + x^2 + x = x (x - 1)^2 over F_3
    assert fp_poly.squarefree_decomposition((0, 1, 1, 1), 3) == [((0, 1), 1), ((2, 1), 2)]


def _sympy_parts(f, p):
    """Monic product of the irreducible factors of each multiplicity, by sympy."""
    x = sympy.Symbol("x")
    parts = {}
    for factor, e in sympy.Poly(list(reversed(f)), x, modulus=p).factor_list()[1]:
        q = fp_poly.monic(tuple(int(c) % p for c in reversed(factor.all_coeffs())), p)
        parts[e] = fp_poly.mul(parts.get(e, (1,)), q, p)
    return sorted(parts.items())


def _check_against_sympy(f, p):
    want = _sympy_parts(f, p)
    assert [(e, q) for q, e in fp_poly.squarefree_decomposition(f, p)] == want, f
    odd = (1,)
    for e, q in want:
        if e % 2:
            odd = fp_poly.mul(odd, q, p)
    assert fp_poly.odd_multiplicity_part(f, p) == odd, f


def test_squarefree_decomposition_matches_sympy_every_monic_f3():
    p = 3
    for d in range(1, 8):
        for low in itertools.product(range(p), repeat=d):
            _check_against_sympy(low + (1,), p)


@pytest.mark.parametrize("p", [5, 7])
def test_squarefree_decomposition_matches_sympy_high_degree(p):
    rng = random.Random(p)
    for _ in range(150):
        # a product of random factors to random powers, so repeated roots and
        # p-th powers occur often
        f = (rng.randrange(1, p),)
        while fp_poly.deg(f) < p:
            q = fp_poly.trim([rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1])
            for _ in range(rng.choice([1, 1, 2, 3, p, p + 1])):
                f = fp_poly.mul(f, q, p)
        _check_against_sympy(f, p)


def test_odd_multiplicity_part():
    p = 11
    sq = fp_poly.mul((3, 1), (3, 1), p)  # (x+3)^2
    f = fp_poly.mul(sq, (5, 1), p)  # (x+3)^2 (x+5)
    assert fp_poly.odd_multiplicity_part(f, p) == (5, 1)
    assert fp_poly.odd_multiplicity_part(sq, p) == (1,)


def test_odd_multiplicity_part_large_degree_fallback():
    # deg f >= p; x^3 (x+1)^2 over F_3
    p = 3
    f = fp_poly.mul((0, 0, 0, 1), fp_poly.mul((1, 1), (1, 1), p), p)
    assert fp_poly.odd_multiplicity_part(f, p) == (0, 1)


def test_eval_at():
    assert fp_poly.eval_at((0, 4, 0, 1), 2, 5) == 1  # x^3 - x at 2 mod 5
    assert fp_poly.eval_at((), 3, 5) == 0


@settings(max_examples=50)
@given(
    coeffs=st.lists(st.integers(-50, 50), max_size=6),
    x=st.integers(0, 12),
)
def test_eval_at_matches_naive(coeffs, x):
    naive = sum(c * x**i for i, c in enumerate(coeffs)) % 13
    assert fp_poly.eval_at(tuple(coeffs), x, 13) == naive


ROOT_PRIMES = [3, 5, 7, 11, 13, 17, 97, 101]


@settings(max_examples=80)
@given(data=st.data(), p=st.sampled_from(ROOT_PRIMES), n=st.integers(0, 250))
def test_powmod_matches_repeated_multiplication(data, p, n):
    f = data.draw(poly_strategy(p))
    m = data.draw(poly_strategy(p).filter(bool))  # constants included
    want = fp_poly.divmod_((1,), m, p)[1]
    for _ in range(n):
        want = fp_poly.divmod_(fp_poly.mul(want, f, p), m, p)[1]
    assert fp_poly.powmod(f, n, m, p) == want


@st.composite
def nonzero_with_roots(draw):
    """(f, p): a unit times (x - r)^e over drawn roots, 0 and repeated roots
    often among them, times a drawn cofactor; f may be a constant."""
    p = draw(st.sampled_from(ROOT_PRIMES))
    f = (draw(st.integers(1, p - 1)),)
    root = st.sampled_from([0, 1, p - 1]) | st.integers(0, p - 1)
    for r, e in draw(st.lists(st.tuples(root, st.integers(1, 3)), max_size=5)):
        for _ in range(e):
            f = fp_poly.mul(f, ((-r) % p, 1), p)
    cofactor = draw(poly_strategy(p, max_deg=3))
    return (fp_poly.mul(f, cofactor, p) if cofactor else f), p


@settings(max_examples=150)
@given(case=nonzero_with_roots())
def test_roots_and_linear_part_match_enumeration(case):
    f, p = case
    want = [x for x in range(p) if fp_poly.eval_at(f, x, p) == 0]
    assert fp_poly.roots(f, p) == want
    part = fp_poly.linear_part(f, p)
    assert part[-1] == 1 and fp_poly.deg(part) == len(want)
    assert all(fp_poly.eval_at(part, x, p) == 0 for x in want)


def test_roots_examples():
    p = 7
    f = fp_poly.mul(fp_poly.mul((0, 1), (0, 1), p), (6, 0, 1), p)  # x^2 (x^2 - 1)
    assert fp_poly.roots(f, p) == [0, 1, 6]
    assert fp_poly.roots((3,), p) == []  # a nonzero constant has no root
    assert fp_poly.roots((1, 0, 1), p) == []  # x^2 + 1, irreducible mod 7
    assert fp_poly.linear_part((1, 0, 1), p) == (1,)
    every = fp_poly.sub((0,) * 7 + (1,), (0, 1), p)  # x^7 - x
    assert fp_poly.roots(every, p) == list(range(p))


def test_sqrt_mod_of_every_square():
    for p in (3, 5, 7, 13, 17, 97, 193, 257):  # 2-adic valuations of p - 1 from 1 to 8
        for x in range(1, p):
            r = fp_poly.sqrt_mod(x * x % p, p)
            assert r * r % p == x * x % p
