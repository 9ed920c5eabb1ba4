"""Polynomial parsing, family files, bad primes, discriminant machinery."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from nagao import load_shipped_family, shipped_family_names
from nagao.family_model import (
    BadPrime,
    BivarPoly,
    FACTOR_BOUND,
    FamilySpec,
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_EXPANSION_WORK,
    MAX_POWER_DEGREE,
    MAX_POWER_TERMS,
    InfinityRule,
    MRule,
    ParseError,
    TraceSpec,
    ValidationError,
    _prime_factors,
    bad_primes,
    check_bad_primes_known,
    fiber_at,
    parse_family,
    parse_m_rule,
    parse_poly,
    render_family,
    resultant_x,
    singular_locus_polys,
    trace_curve_discriminants,
    validate_family,
)
from nagao.fiber_trace import discriminant_locus
from nagao.prime_field import make_field

FAMILY_NAMES = ["constant_E", "shioda_g1", "shioda_g2", "multicover_ex2"]

CUBIC_T = """\
family "cubic_t"
kind hyperelliptic
poly x^3 - x + t^3
genus 1
trace none
infinity trace_zero
"""

_x, _t = sympy.symbols("x t")


def _sympy_poly(poly: BivarPoly, *gens, **kw) -> sympy.Poly:
    expr = sympy.Add(*[c * _x**i * _t**j for i, j, c in poly.terms])
    return sympy.Poly(expr, *gens, **kw)


def _sympy_resultant(f: BivarPoly, g: BivarPoly) -> tuple[int, ...]:
    res = sympy.resultant(_sympy_poly(f, _x), _sympy_poly(g, _x), _x)
    coeffs = [int(c) for c in reversed(sympy.Poly(res, _t).all_coeffs())]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def generic_fiber_squarefree_mod_p(spec: FamilySpec, p: int) -> bool:
    """Direct gcd-based check that every cover (and, for multicovers, the
    product) keeps full x-degree and stays squarefree in x over F_p(t);
    definition-level oracle for bad_primes."""
    polys = list(spec.polys)
    if len(polys) == 2:
        polys.append(polys[0] * polys[1])
    for poly in polys:
        lead = poly.leading_x_coeff()
        if all(c % p == 0 for c in lead):
            return False
        f = _sympy_poly(poly, _x, _t, modulus=p)
        g = sympy.gcd(f, f.diff(_x))
        if sympy.Poly(g, _x, _t, modulus=p).degree(_x) > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# BivarPoly and the expression parser
# ---------------------------------------------------------------------------


def test_parse_poly_basic():
    p = parse_poly("x^3 - x + t^2")
    assert p.as_dict() == {(3, 0): 1, (1, 0): -1, (0, 2): 1}
    assert p.deg_x == 3 and p.deg_t == 2
    # zero-padded literals, which Python itself rejects
    assert parse_poly("05*x + t^02").as_dict() == {(1, 0): 5, (0, 2): 1}


def test_parse_poly_products_and_parens():
    p = parse_poly("(x-2)*(x-3)*(x-5)")
    assert p.as_dict() == {(3, 0): 1, (2, 0): -10, (1, 0): 31, (0, 0): -30}
    q = parse_poly("x*(x-1)*(x-t)")
    assert q.as_dict() == {(3, 0): 1, (2, 0): -1, (2, 1): -1, (1, 1): 1}


def test_parse_poly_unary_minus_and_precedence():
    assert parse_poly("-x^2").as_dict() == {(2, 0): -1}
    assert parse_poly("--x").as_dict() == {(1, 0): 1}
    # ^ binds tighter than *, * tighter than +
    assert parse_poly("2*x^2 + 3").as_dict() == {(2, 0): 2, (0, 0): 3}
    assert parse_poly("0").terms == ()
    # ^ binds tighter than a unary minus after a binary operator too
    assert parse_poly("x + -t^2").as_dict() == {(1, 0): 1, (0, 2): -1}
    assert parse_poly("x*-t^2").as_dict() == {(1, 2): -1}
    assert parse_poly("x - -t^2").as_dict() == {(1, 0): 1, (0, 2): 1}


def test_parse_poly_errors_carry_position():
    with pytest.raises(ParseError):
        parse_poly("x +")
    with pytest.raises(ParseError):
        parse_poly("x ^ t")  # exponent must be a literal
    with pytest.raises(ParseError):
        parse_poly("(x")
    with pytest.raises(ParseError):
        parse_poly("x $ 2")
    err = None
    try:
        parse_poly("x + %", line=7)
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 7 and err.col is not None


def _mono(i: int, j: int, c: int = 1) -> BivarPoly:
    return BivarPoly.from_dict({(i, j): c})


@st.composite
def poly_texts(draw, depth: int = 2) -> tuple[str, BivarPoly]:
    """An expression text with its value, drawn from the grammar layered as
    sum > product > unary minus > power > atom, with random spaces."""

    def sp() -> str:
        return " " * draw(st.integers(0, 2))

    def atom(d):
        kind = draw(st.sampled_from(["int", "x", "t", "()"] if d else ["int", "x", "t"]))
        if kind == "int":
            n = draw(st.integers(0, 99))
            return "0" * draw(st.integers(0, 2)) + str(n), _mono(0, 0, n)
        if kind == "()":
            text, value = expr(d - 1)
            return f"({sp()}{text}{sp()})", value
        return kind, _mono(1, 0) if kind == "x" else _mono(0, 1)

    def power(d):
        text, value = atom(d)
        if draw(st.booleans()):
            k = draw(st.integers(0, 4))
            text = f"{text}{sp()}^{sp()}{'0' * draw(st.integers(0, 1))}{k}"
            value = math.prod([value] * k, start=_mono(0, 0))
        return text, value

    def factor(d):
        text, value = power(d)
        for _ in range(draw(st.integers(0, 2))):  # unary minus binds looser than ^
            text, value = f"-{sp()}{text}", -value
        return text, value

    def product(d):
        text, value = factor(d)
        for _ in range(draw(st.integers(0, 2))):
            rhs, v = factor(d)
            text, value = f"{text}{sp()}*{sp()}{rhs}", value * v
        return text, value

    def expr(d):
        text, value = product(d)
        for _ in range(draw(st.integers(0, 3))):
            op = draw(st.sampled_from("+-"))
            rhs, v = product(d)
            text, value = f"{text}{sp()}{op}{sp()}{rhs}", value + v if op == "+" else value - v
        return text, value

    text, value = expr(depth)
    return f"{sp()}{text}{sp()}", value


@settings(max_examples=300)
@given(poly_texts())
def test_parse_poly_matches_grammar(case):
    text, value = case
    assert parse_poly(text) == value


@pytest.mark.parametrize(
    "text",
    ["x**2", "0x10", "1_0", "1e3", "2^3^2", "x^-1", "x^t", "x/2", "x%2", "x|t",
     "f(x)", "y", "2x", "x t", "", "x # 2", "x\0"],
)
def test_parse_poly_rejects(text):
    with pytest.raises(ParseError):
        parse_poly(text)


@settings(max_examples=300)
@given(st.text(alphabet="xty0123456789+-*/()_.#j \t", max_size=16))
def test_parse_poly_raises_only_parse_error(text):
    try:
        parse_poly(text)
    except ParseError:
        pass


@pytest.mark.parametrize(
    "text, value",
    [
        ("(" * 1200 + "x" + ")" * 1200, _mono(1, 0)),
        ("+".join(["x"] * 5000), _mono(1, 0, 5000)),
        ("-" * 3000 + "x", _mono(1, 0)),
    ],
    ids=["1200 parentheses", "5000 terms", "3000 unary minuses"],
)
def test_parse_poly_huge_input_parses_or_raises_parse_error(text, value):
    try:
        got = parse_poly(text)
    except ParseError:
        return
    assert got == value


def test_parse_poly_long_sum():
    assert parse_poly("+".join(["x"] * 1000)) == _mono(1, 0, 1000)


def test_power_of_a_sum_is_bounded_before_expansion():
    assert parse_poly(f"(t + 1)^{MAX_POWER_DEGREE}").deg_t == MAX_POWER_DEGREE
    for text in (f"x + (t + 1)^{MAX_POWER_DEGREE + 1}", f"x + (x^2 + t)^{MAX_POWER_DEGREE // 2 + 1}"):
        with pytest.raises(ParseError, match="exceeds the bound") as info:
            parse_poly(text, line=3)
        assert (info.value.line, info.value.col) == (3, 5)
    assert parse_poly("t^999999").deg_t == 999999  # a monomial power is one term


def test_power_terms_and_expansion_work_are_bounded():
    # 1001^2 possible terms: refused before any product
    with pytest.raises(ParseError, match=f"1002001 terms exceeds the bound {MAX_POWER_TERMS}") as info:
        parse_poly("x + (x + t + 1)^1000", line=3)
    assert (info.value.line, info.value.col) == (3, 5)
    assert (577**2) <= MAX_POWER_TERMS  # every degree-576 power of the grammar test
    # 501^2 possible terms pass, but the squarings run out of work
    with pytest.raises(ParseError, match=f"exceeds the bound of {MAX_EXPANSION_WORK} term products"):
        parse_poly("(x + t + 1)^500")
    with pytest.raises(ParseError, match="term products"):
        parse_poly("*".join(["(x + t + 1)^40"] * 8))
    assert len(parse_poly("(x + t + 1)^40").terms) == 41 * 42 // 2


def test_coefficient_size_is_bounded_before_the_integer_is_built():
    big = "1" * 4000  # 13285 bits; Python refuses a literal above 4300 digits
    for text, bits in (("x + 2^20000*t", 20000), ("x + 2^99999999", 99999999),
                       (f"x + {big}*{big}*t", math.ceil(2 * math.log2(int(big))))):
        with pytest.raises(ParseError) as info:
            parse_poly(text, line=4)
        assert str(info.value) == (f"coefficient of up to 2^{bits} exceeds the bound "
                                   f"2^{MAX_COEFF_BITS} at line 4, col 5")
    # 2^13000 (3914 digits), and a product up to the bound, pass and render
    poly = parse_poly("x^3 - x + 2^13000*t^2 + (2^7000*x + 1)^2")
    assert poly.as_dict()[(0, 2)] == 2**13000 and poly.as_dict()[(2, 0)] == 2**14000
    assert parse_poly(poly.render()) == poly


def test_expansion_work_is_shared_by_the_lines_of_a_file():
    heavy = "poly (x + t + 1)^70 - (x + t + 1)^70 + x^3 - x + t^2\n"
    one = 'family "six"\nkind hyperelliptic\n' + heavy + "genus 1\ntrace none\ninfinity trace_zero\n"
    assert parse_family(one).polys == (parse_poly("x^3 - x + t^2"),)  # one line fits the budget
    with pytest.raises(ParseError, match="term products") as info:
        parse_family(one.replace(heavy, heavy * 6))
    assert 3 < info.value.line <= 8  # refused on a later poly line, not after all six


def test_prime_factors_stop_at_the_bound():
    assert _prime_factors(-12) == ({2, 3}, 1)
    # a cofactor below the square of the next trial divisor is prime
    assert _prime_factors(999983 * 1000003) == ({999983, 1000003}, 1)
    assert _prime_factors(6 * 1000003**2) == ({2, 3}, 1000003**2)


def test_unfactored_content_limits_the_tmax():
    text = (
        'family "big"\nkind hyperelliptic\npoly 3*1000003^2*x^3 - x + t^2\n'
        "genus 1\ntrace none\ninfinity trace_zero\n"
    )
    spec = parse_family(text)
    assert bad_primes(spec) == {2, 3}
    check_bad_primes_known(spec, FACTOR_BOUND)
    with pytest.raises(ValidationError, match=f"above {FACTOR_BOUND}"):
        check_bad_primes_known(spec, FACTOR_BOUND + 1)
    check_bad_primes_known(load_shipped_family("shioda_g1"), 10 * FACTOR_BOUND)


def test_specialize_t():
    p = parse_poly("x^3 - x + t^2")
    assert p.specialize_t(2, 5) == (4, 4, 0, 1)  # t^2 = 4, -x = 4x
    assert p.specialize_t(0, 5) == (0, 4, 0, 1)


def test_leading_x_coeff_and_t_coeff_polys():
    p = parse_poly("t*x^2 + x + 3")
    assert p.leading_x_coeff() == (0, 1)  # the polynomial t
    cols = p.t_coeff_polys()
    assert cols[0] == (3, 1)  # t^0 part: 3 + x
    assert cols[1] == (0, 0, 1)  # t^1 part: x^2


@settings(max_examples=60)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 3)),
        st.integers(-9, 9),
        max_size=6,
    )
)
def test_render_parse_round_trip(coeffs):
    poly = BivarPoly.from_dict(coeffs)
    assert parse_poly(poly.render()) == poly


@settings(max_examples=40)
@given(
    a=st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 2)), st.integers(-5, 5), max_size=4
    ),
    b=st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 2)), st.integers(-5, 5), max_size=4
    ),
    c=st.integers(0, 10),
)
def test_specialize_is_ring_homomorphism(a, b, c):
    p = 11
    pa, pb = BivarPoly.from_dict(a), BivarPoly.from_dict(b)
    def dense_sum(f):
        out = [0] * 8
        for i, v in enumerate(f):
            out[i] = v
        return out
    prod = (pa * pb).specialize_t(c, p)
    fa, fb = pa.specialize_t(c, p), pb.specialize_t(c, p)
    want = [0] * 8
    for i, u in enumerate(fa):
        for j, v in enumerate(fb):
            want[i + j] = (want[i + j] + u * v) % p
    assert dense_sum(prod) == want


# ---------------------------------------------------------------------------
# Family files
# ---------------------------------------------------------------------------


def test_shipped_family_names():
    assert shipped_family_names() == sorted(FAMILY_NAMES)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_shipped_families_parse_and_round_trip(name):
    spec = load_shipped_family(name)
    assert spec.name == name
    assert parse_family(render_family(spec)) == spec


def test_shipped_family_shapes():
    g1 = load_shipped_family("shioda_g1")
    assert g1.kind == "hyperelliptic" and g1.genus == 1
    assert g1.polys[0] == parse_poly("x^3 - x + t^2")
    g2 = load_shipped_family("shioda_g2")
    assert g2.genus == 2
    assert g2.polys[0] == parse_poly("x^5 - 5*x^3 + 4*x + t^2")
    const = load_shipped_family("constant_E")
    assert const.kind == "constant"
    assert const.trace.curves == ((0, -1, 0, 1),)
    mc = load_shipped_family("multicover_ex2")
    assert mc.kind == "multicover" and len(mc.polys) == 2
    assert mc.infinity_rule == InfinityRule("affine_plus", nu=2)
    assert mc.trace.curves == ((-30, 31, -10, 1),)


MINIMAL = """\
family "toy"
kind hyperelliptic
poly x^3 - x + t^2
genus 1
trace none
infinity trace_zero
"""


def test_parse_family_minimal_and_comments():
    spec = parse_family(MINIMAL + "# trailing comment\n\n")
    assert spec.name == "toy"
    assert spec.trace.is_trivial()
    assert spec.fiber_config is None


@pytest.mark.parametrize(
    "mutation",
    [
        ("family \"toy\"", ""),  # missing name
        ("kind hyperelliptic", ""),
        ("genus 1", ""),
        ("trace none", ""),
        ("infinity trace_zero", ""),
        ("genus 1", "genus one"),
        ("family \"toy\"", "family toy"),
        ("infinity trace_zero", "infinity sideways"),
        ("trace none", "trace maybe"),
        ("infinity trace_zero", "infinity skip"),  # a removed rule
        ("infinity trace_zero", "infinity"),  # no rule at all
    ],
)
def test_parse_family_missing_or_bad_lines(mutation):
    old, new = mutation
    with pytest.raises(ParseError):
        parse_family(MINIMAL.replace(old, new))


def test_parse_family_unknown_key():
    with pytest.raises(ParseError):
        parse_family(MINIMAL + "flavor vanilla\n")


def test_parse_family_badprimes_line():
    spec = parse_family(MINIMAL + "badprimes 7 11\n")
    assert spec.extra_bad_primes == frozenset({7, 11})
    assert {7, 11} <= set(bad_primes(spec))
    with pytest.raises(ParseError):
        parse_family(MINIMAL + "badprimes 9\n")
    with pytest.raises(ParseError, match="exceeds the primality test's bound"):
        parse_family(MINIMAL + f"badprimes {10**30 + 57}\n")


def test_validation_rejects_non_squarefree_generic_fiber():
    with pytest.raises(ValidationError):
        parse_family(MINIMAL.replace("x^3 - x + t^2", "(x - t)^2 * x"))


def test_validation_rejects_covers_sharing_a_factor():
    text = """\
family "mc"
kind multicover
poly (x - t)*(x^2 + 1)
poly (x - t)*(x + 3)
genus 2
trace none
infinity affine_plus 2 1
"""
    with pytest.raises(ValidationError, match="not squarefree in x"):
        parse_family(text)


def test_validation_rejects_non_squarefree_trace_curve():
    with pytest.raises(ValidationError, match="trace curve"):
        parse_family(MINIMAL.replace("trace none", "trace curve x^2*(x - 1)"))
    # a constant has no Jacobian, and every prime would divide its discriminant 0
    with pytest.raises(ValidationError, match="trace curve"):
        parse_family(MINIMAL.replace("trace none", "trace curve 5"))


@pytest.mark.parametrize(
    "old, new, what",
    [
        ("x^3 - x + t^2", "x^3 - x + t^8", "t-degree 8"),
        ("x^3 - x + t^2", "x^8 - x + t^2", "x-degree 8"),
        ("trace none", "trace curve x^9 - x", "trace curve x-degree 9"),
    ],
)
def test_validation_refuses_degrees_above_the_bound(old, new, what):
    # refused before any resultant is computed, whose cost grows like deg^5
    with pytest.raises(ValidationError, match=f"{what} exceeds the bound {MAX_DEGREE}"):
        parse_family(MINIMAL.replace(old, new))


def test_validation_accepts_degrees_at_the_bound():
    spec = parse_family(MINIMAL.replace("x^3 - x + t^2", f"x^{MAX_DEGREE} - x + t^{MAX_DEGREE}")
                        .replace("genus 1", f"genus {(MAX_DEGREE - 1) // 2}"))
    assert spec.polys[0].deg_x == spec.polys[0].deg_t == MAX_DEGREE


def test_validation_genus_degree_consistency():
    with pytest.raises(ValidationError):
        parse_family(MINIMAL.replace("genus 1", "genus 2"))


def test_validation_multicover_needs_affine_plus():
    text = """\
family "mc"
kind multicover
poly x^3 - x + 1
poly x^3 + x + t
genus 4
trace none
infinity trace_zero
"""
    with pytest.raises(ValidationError, match="'infinity trace_zero', but F gives 'infinity affine_plus 2 1'"):
        parse_family(text)
    ok = parse_family(text.replace("infinity trace_zero", "infinity affine_plus 2 1"))
    assert ok.infinity_rule.nu == 2


@pytest.mark.parametrize("name", ["shioda_g1", "constant_E"])
def test_validation_single_cover_needs_trace_zero(name):
    # affine_plus declares nu for a multicover; a single cover's points at
    # infinity follow from its x-degree and leading coefficient
    text = render_family(load_shipped_family(name))
    with pytest.raises(ValidationError, match="'infinity affine_plus 2 1', but F gives 'infinity trace_zero'"):
        parse_family(text.replace("infinity trace_zero", "infinity affine_plus 2 1"))


def test_validation_constant_must_not_involve_t():
    text = MINIMAL.replace("kind hyperelliptic", "kind constant")
    with pytest.raises(ValidationError):
        parse_family(text)


@pytest.mark.parametrize("nu_m", ["-3 0", "5 1", "2 0", "2 2"])
def test_validation_bounds_the_affine_plus_rule(nu_m):
    """Every finite fiber that is not refused is one geometrically irreducible
    curve, so m = 1.  multicover_ex2 has nu = 2, the number of its subcovers
    of even degree: the empty product and G_1 G_2, of degree 6.  Any other nu
    is refused, and both values are named."""
    text = render_family(load_shipped_family("multicover_ex2"))
    nu, m = nu_m.split()
    why = "every fiber has m = 1" if m != "1" else (
        f"'infinity affine_plus {nu} 1', but F gives 'infinity affine_plus 2 1'")
    with pytest.raises(ValidationError, match=why):
        parse_family(text.replace("affine_plus 2 1", f"affine_plus {nu_m}"))
    for nu in (0, 1, 3, 4):
        with pytest.raises(ValidationError, match=f"'infinity affine_plus {nu} 1', but F gives "
                                                  "'infinity affine_plus 2 1'"):
            parse_family(text.replace("affine_plus 2 1", f"affine_plus {nu} 1"))


@pytest.mark.parametrize(
    "rule", ["3", "5 if p % 4 == 1 else 9", "3 if chi(-1) == 1 else 1", "1 if p % 3 == 1 else 3"]
)
def test_m_rule_values_must_lie_in_0_to_n(rule):
    with pytest.raises(ValidationError, match="outside 0..n"):
        parse_family(MINIMAL + f'fiber f n=2 orbits=1 m="{rule}"\n')
    for ok in ("0", "2 if p % 3 == 1 else 0"):
        parse_family(MINIMAL + f'fiber f n=2 orbits=1 m="{ok}"\n')


def test_fiber_config_lines():
    spec = parse_family(
        MINIMAL
        + 'fiber c0 n=2 orbits=1 m="2 if chi(-1) == 1 else 1"\n'
        + 'fiber c1 n=3 orbits=3 m="3"\n'
    )
    fibers = spec.fiber_config.fibers
    assert fibers[0].n == 2 and fibers[0].orbits == 1
    assert fibers[0].m_rule.value(5) == 2  # chi(-1) = chi(4) = 1 mod 5
    assert fibers[0].m_rule.value(7) == 1  # chi(-1) = -1 mod 7
    assert fibers[1].m_rule.value(101) == 3
    with pytest.raises(ValidationError):
        parse_family(MINIMAL + 'fiber bad n=2 orbits=3 m="1"\n')


def test_parse_m_rule_kinds():
    assert parse_m_rule("4") == MRule(kind="const", m=4)
    rule = parse_m_rule("2 if chi(-2) == -1 else 1")
    assert rule.kind == "chi" and rule.d == -2 and rule.want == -1
    rule = parse_m_rule("2 if p % 4 == 1 else 1")
    assert rule.value(13) == 2 and rule.value(7) == 1
    with pytest.raises(ParseError):
        parse_m_rule("maybe 2")
    with pytest.raises(ParseError, match="modulus"):
        parse_m_rule("2 if p % 0 == 1 else 1")


# ---------------------------------------------------------------------------
# Bad primes and discriminant loci
# ---------------------------------------------------------------------------


def test_bad_primes_shipped_families():
    assert bad_primes(load_shipped_family("constant_E")) == frozenset({2})
    assert bad_primes(load_shipped_family("shioda_g1")) == frozenset({2})
    assert bad_primes(load_shipped_family("shioda_g2")) == frozenset({2})
    assert bad_primes(load_shipped_family("multicover_ex2")) == frozenset({2, 3, 5})


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_bad_primes_agree_with_gcd_scan_oracle(name):
    spec = load_shipped_family(name)
    bad = bad_primes(spec)
    for p in [3, 5, 7, 11, 13, 17, 19]:
        assert generic_fiber_squarefree_mod_p(spec, p) == (p not in bad)


bivar_small = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 3)), st.integers(-5, 5), max_size=8
).map(BivarPoly.from_dict)


@settings(max_examples=40, deadline=None)
@given(f=bivar_small, g=bivar_small)
def test_resultant_x_matches_sympy(f, g):
    # sympy also puts the larger x-degree first: Res(g, f) when deg f < deg g
    assert resultant_x(f, g) == _sympy_resultant(f, g)


def _sympy_family_data(spec: FamilySpec):
    """singular_locus_polys, bad_primes and trace_curve_discriminants from sympy."""
    loci = []
    for poly in spec.polys:
        loci += [_sympy_resultant(poly, poly.dx()), poly.leading_x_coeff()]
    if len(spec.polys) == 2:
        loci.append(_sympy_resultant(*spec.polys))
    bad = {2} | set(spec.extra_bad_primes)
    for locus in loci:
        bad |= set(sympy.factorint(sympy.gcd_list([abs(c) for c in locus])))
    discs = []
    for curve in spec.trace.curves:
        g = sympy.Poly(list(reversed(curve)), _x)
        discs.append(abs(int(sympy.resultant(g, g.diff(_x), _x))))
    return tuple(loci), frozenset(bad), tuple(discs)


@pytest.mark.parametrize("name", FAMILY_NAMES + ["cubic_t"])
def test_family_data_matches_sympy(name):
    spec = parse_family(CUBIC_T) if name == "cubic_t" else load_shipped_family(name)
    loci, bad, discs = _sympy_family_data(spec)
    assert singular_locus_polys(spec) == loci
    assert bad_primes(spec) == bad
    assert trace_curve_discriminants(spec) == discs


def test_singular_locus_polys_shioda_g1():
    spec = load_shipped_family("shioda_g1")
    # Res_x(x^3 - x + t^2, 3x^2 - 1) = 27 t^4 - 4, leading coeff 1
    polys = singular_locus_polys(spec)
    assert (-4, 0, 0, 0, 27) in polys
    assert (1,) in polys


def test_discriminant_locus_values():
    g1 = load_shipped_family("shioda_g1")
    # 27 t^4 = 4 has no solution mod 5 but two mod 11 (t^4 = 5*4 = 9 -> t^2 = +-3)
    assert discriminant_locus(g1, make_field(5)) == set()
    locus11 = discriminant_locus(g1, make_field(11))
    for c in locus11:
        assert (27 * pow(c, 4, 11) - 4) % 11 == 0
    with pytest.raises(BadPrime):
        discriminant_locus(load_shipped_family("multicover_ex2"), make_field(3))


def test_trace_curve_discriminants():
    const = load_shipped_family("constant_E")
    # disc-related resultant of x^3 - x: |Res(f, f')| = 4
    assert trace_curve_discriminants(const) == (4,)
    assert trace_curve_discriminants(load_shipped_family("shioda_g1")) == ()


# ---------------------------------------------------------------------------
# fiber_at
# ---------------------------------------------------------------------------


def test_fiber_at_specializes_mod_p():
    spec = load_shipped_family("shioda_g1")
    ctx = make_field(5)
    fiber = fiber_at(spec, ctx, 2)
    assert fiber.polys == ((4, 4, 0, 1),)
    assert fiber.c == 2 and not fiber.at_infinity
    inf = fiber_at(spec, ctx, None)
    assert inf.at_infinity and inf.polys == ()


def test_fiber_at_constant_family_infinity_is_the_curve():
    spec = load_shipped_family("constant_E")
    ctx = make_field(7)
    inf = fiber_at(spec, ctx, None)
    assert inf.at_infinity
    assert inf.polys == ((0, 6, 0, 1),)  # x^3 - x mod 7


def test_fiber_at_rejects_bad_prime_and_bad_c():
    spec = load_shipped_family("multicover_ex2")
    with pytest.raises(BadPrime):
        fiber_at(spec, make_field(5), 0)
    with pytest.raises(ValueError):
        fiber_at(load_shipped_family("shioda_g1"), make_field(5), 5)
