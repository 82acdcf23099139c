"""Polynomial fields: exact derivatives, canonical printing, parsing."""

import dataclasses
import functools
import math
import operator
import os
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from circulant4 import (
    ParseError,
    ScalarField,
    as_point,
    example_manifold,
    load_manifold,
    parse_field,
    run_check,
)
from circulant4 import fields
from circulant4._oracles import exact_jets
from circulant4.fields import MAX_DEPTH, MAX_EXPONENT, MAX_TERMS, CompiledField, jets

from helpers import (
    JET_EDGE_POINTS,
    PARSER_CORPUS,
    REPO_ROOT,
    exact_central_difference,
    random_polynomial,
)

x1, x2, x3, x4 = (ScalarField.coordinate(i) for i in (1, 2, 3, 4))


def test_evaluation():
    f = parse_field("x1^2 + 2*x2*x4")
    assert f((1, 2, 3, 4)) == 17.0
    assert ScalarField.constant(2.5)((0, 0, 0, 0)) == 2.5
    assert x3((1, 2, 3, 4)) == 3.0


def test_coordinate_index_validation():
    with pytest.raises(ValueError):
        ScalarField.coordinate(0)
    with pytest.raises(ValueError):
        ScalarField.coordinate(5)


def test_arithmetic():
    assert (x1 + x2) ** 2 == x1**2 + 2 * x1 * x2 + x2**2
    assert (x1 - x2) * (x1 + x2) == x1**2 - x2**2
    assert 2 + x1 == x1 + 2
    assert 1 - x1 == -(x1 - 1)
    assert x1 * 0 == ScalarField()
    assert x1**0 == ScalarField.constant(1.0)
    for operation in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            operation(x1, "x")
        with pytest.raises(TypeError):
            operation("x", x1)


def test_pow_rejects_bad_exponents():
    with pytest.raises(ValueError):
        x1 ** (-1)
    with pytest.raises(ValueError):
        x1**0.5


def test_degree():
    assert ScalarField().degree == 0
    assert ScalarField.constant(3).degree == 0
    assert (x1 * x2**2 + x3).degree == 3


def test_terms_are_canonical():
    f = x2 + x1**2 + 1
    assert list(f.terms()) == [(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)]


def test_gradient_exact():
    f = x1**2 * x3 + 2 * x2
    assert np.array_equal(f.gradient((1, 2, 3, 4)), [6.0, 2.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        f.partial(5)


def test_hessian_exact_and_symmetric():
    f = x1**3 * x4 + x2 * x3
    h = f.hessian((1, 2, 3, 4))
    assert np.array_equal(h, h.T)
    assert h[0, 0] == 24.0
    assert h[0, 3] == 3.0
    assert h[1, 2] == 1.0
    assert h[2, 2] == 0.0


def test_fd_gradient_agrees():
    # each coordinate has degree at most 2 in these fields, so the exact
    # central difference of exact values is the exact gradient at any step
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = ScalarField(
            {
                tuple(int(e) for e in rng.integers(0, 3, size=4)): float(c)
                for c in rng.uniform(-2, 2, size=5)
            }
        )
        p = rng.uniform(-2, 2, size=4)
        exact = exact_jets([f], [p])[1][0, :, 0]
        differences = exact_central_difference(lambda points: exact_jets([f], points)[0], p)
        assert differences[:, 0].tolist() == exact.tolist()
        gap = np.max(np.abs(f.gradient(p) - exact.astype(float)))
        assert gap <= 1e-15 * (1 + np.max(np.abs(exact)))


def test_immutability_and_equality():
    f = x1 + x2
    with pytest.raises(AttributeError):
        f.extra = 1
    with pytest.raises(TypeError):
        hash(f)
    assert f == parse_field("x2 + x1")
    assert f != x1
    assert not (f == "x1 + x2")


def test_bad_term_construction():
    with pytest.raises(ValueError):
        ScalarField({(1, 0, 0): 1.0})
    with pytest.raises(ValueError):
        ScalarField({(1, 0, 0, -1): 1.0})


def test_to_string_forms():
    assert ScalarField().to_string() == "0"
    assert (-x1).to_string() == "-x1"
    assert (x1 * x2).to_string() == "x1*x2"
    assert (x1**2 - 2.5 * x2 + 1).to_string() == "x1^2 - 2.5*x2 + 1.0"
    assert str(ScalarField.constant(-3)) == "-3.0"
    assert repr(x4) == "ScalarField('x4')"


@pytest.mark.parametrize("text", PARSER_CORPUS)
def test_round_trip_corpus(text):
    f = parse_field(text)
    assert parse_field(f.to_string()) == f


def test_rational_literals():
    assert parse_field("1/2*x1") == 0.5 * x1
    assert parse_field("3/4") == ScalarField.constant(0.75)
    assert parse_field("1/ 2") == ScalarField.constant(0.5)


def test_whitespace_insensitive():
    assert parse_field(" x1+x2 ") == parse_field("x1 + x2")


@pytest.mark.parametrize(
    "text, position, fragment",
    [
        ("x5", 0, "unknown identifier"),
        ("2*y + 1", 2, "unknown identifier"),
        ("x1^-1", 3, "negative exponent"),
        ("x1^1.5", 3, "non-integer exponent"),
        ("x1^", 3, "expected an integer exponent"),
        ("x1^(2)", 3, "expected an integer exponent"),
        ("(x1", 3, "expected ')'"),
        ("x1 + + x2", 5, "unexpected '+'"),
        ("", 0, "unexpected end of expression"),
        ("x1 $", 3, "unexpected character"),
        ("x1 x2", 3, "unexpected 'x2'"),
        ("1/0", 2, "zero denominator"),
        ("x1/2", 2, "integer rational literal"),
        ("1.5/2", 3, "integer numerator"),
        ("1/2.5", 2, "integer denominator"),
    ],
)
def test_parse_errors(text, position, fragment):
    with pytest.raises(ParseError) as err:
        parse_field(text)
    assert err.value.position == position
    assert fragment in str(err.value)
    assert f"position {position}" in str(err.value)


@pytest.mark.parametrize(
    "text, position, fragment",
    [
        ("x1^100000000", 3, "exponent too large"),
        (f"x1^{MAX_EXPONENT + 1}", 3, "exponent too large"),
        # the degree of a power, not only its exponent, is bounded
        (f"(x1^2)^{MAX_EXPONENT // 2 + 1}", 7, "exponent too large"),
        ("2^" + "9" * 5000, 2, "exponent too large"),
        ("1" + "0" * 400 + "/3", 0, "rational literal out of range"),
        ("x1 + 1/" + "9" * 5000, 5, "rational literal out of range"),
        # decimals past the float range would be inf, and their difference NaN
        ("1e400", 0, "literal out of range"),
        ("x1 + 1e400 - 1e400", 5, "literal out of range"),
        ("1" + "0" * 400, 0, "literal out of range"),
        # 165 by 165 terms, refused at the '*'
        ("(x1+x2+x3+x4)^8*(x1+x2+x3+x4)^8", 15, "expansion too large"),
        # the degree of a product is bounded as a power's is, at the '*'
        ("*".join(["x1"] * 1001), 2999, "degree too large"),
        ("x1^600*x1^401", 6, "degree too large"),
    ],
)
def test_parse_refuses_oversized_literals_at_once(text, position, fragment):
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_field(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.position == position
    assert fragment in str(err.value)
    assert peak < 1_000_000


def test_parse_refuses_a_power_past_the_term_bound_early():
    # expanded in full, this would have about 4.6 million terms; the bound
    # stops the power at degree 23, before 2 600 terms times the base's 4
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_field("(x1 + x2 + x3 + x4)^300")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.position == 19
    assert "expansion too large" in str(err.value)
    assert peak < 2_000_000


def test_term_bound_admits_a_product_at_the_bound():
    big = ScalarField({(e, 0, 0, 0): 1.0 for e in range(MAX_TERMS)})
    assert len((big * x2).terms()) == MAX_TERMS
    with pytest.raises(ValueError, match="expansion too large"):
        big * (x2 + x3)
    with pytest.raises(ValueError, match="expansion too large"):
        (x1 + x2 + x3 + x4) ** 300


def test_products_that_overflow_are_still_fields():
    assert parse_field("1e300*1e300*x1").terms() == {(1, 0, 0, 0): math.inf}
    assert parse_field("1e-400") == ScalarField()


def test_degree_bound_admits_a_product_at_the_bound():
    assert parse_field("x1^1000*x2^1000").terms() == {(1000, 1000, 0, 0): 1.0}
    assert parse_field("*".join(["x1"] * MAX_EXPONENT)) == x1**MAX_EXPONENT
    # the bound is the parser's: `*` on fields multiplies at any degree
    assert (x1**MAX_EXPONENT * x1).terms() == {(MAX_EXPONENT + 1, 0, 0, 0): 1.0}


def test_parentheses_nest_at_most_max_depth_levels():
    assert MAX_DEPTH == 100
    nested = "(" * MAX_DEPTH + "x1 + 10" + ")" * MAX_DEPTH
    assert parse_field(nested) == x1 + 10
    with pytest.raises(ParseError) as err:
        parse_field("x2 * " + "(" * (MAX_DEPTH + 1) + "x1" + ")" * (MAX_DEPTH + 1))
    # at the '(' that opens level 101
    assert err.value.position == 5 + MAX_DEPTH
    assert "nested too deeply" in str(err.value)


def test_a_run_of_minus_signs_negates_once_per_odd_count():
    assert parse_field("-" * 5000 + "x1") == x1
    assert parse_field("-" * 5001 + "x1") == -x1
    assert parse_field("- -(x1 - 2)") == x1 - 2


def test_exponent_bound_admits_the_largest_power():
    assert MAX_EXPONENT >= 300
    assert parse_field(f"x1^{MAX_EXPONENT}").terms() == {(MAX_EXPONENT, 0, 0, 0): 1.0}
    assert parse_field(f"(x2^2)^{MAX_EXPONENT // 2}") == x2**MAX_EXPONENT
    # `**` keeps the parser's bound, refused before anything is expanded
    assert x1**MAX_EXPONENT == parse_field(f"x1^{MAX_EXPONENT}")
    with pytest.raises(ValueError, match="exponent too large"):
        x1 ** (MAX_EXPONENT + 1)
    with pytest.raises(ValueError, match="exponent too large"):
        (x1**2) ** (MAX_EXPONENT // 2 + 1)
    with pytest.raises(ValueError, match="exponent too large"):
        x1 ** 10**9


def test_as_point():
    p = as_point([1, 2, 3, 4])
    assert p.dtype == float and p.shape == (4,)
    with pytest.raises(ValueError):
        as_point([1, 2, 3])
    with pytest.raises(ValueError):
        as_point([1, 2, 3, float("nan")])
    with pytest.raises(ValueError):
        as_point([1, 2, 3, float("inf")])
    # a bool is an int, and True was taken as the coordinate 1.0
    for p in ([True, 0.1, 2.0, 0.2], (0.1, np.True_, 2.0, 0.2), np.ones(4, dtype=bool)):
        with pytest.raises(ValueError, match="^point coordinates must be numbers, not bools"):
            as_point(p)
        with pytest.raises(ValueError, match="not bools"):
            run_check(example_manifold(), p)


@pytest.mark.parametrize(
    "points",
    [
        np.ones((1, 4), dtype=bool),
        [[True, 0.1, 2.0, 0.2]],
        [(0.1, np.True_, 2.0, 0.2)],
        [np.ones(4), np.ones(4, dtype=bool)],
        np.array([[1.0, 0.1, 2.0, False]], dtype=object),
    ],
)
def test_jets_refuse_bool_coordinates(points):
    # a bool is an int, and the jets were those at 1.0 and 0.0
    m = example_manifold()
    for evaluate in (m.jets, m.compiled.evaluate, functools.partial(jets, m.compiled)):
        with pytest.raises(ValueError, match="^point coordinates must be numbers, not bools$"):
            evaluate(points, 0)


@pytest.mark.parametrize("order", [True, False, np.True_])
def test_jets_refuse_a_bool_order(order):
    # True was taken as order 1, and False as order 0
    m = example_manifold()
    for evaluate in (m.jets, m.compiled.evaluate):
        with pytest.raises(ValueError, match="^order must be 0, 1 or 2, got "):
            evaluate(np.ones((1, 4)), order)


def test_jets_take_numbers_and_float_arrays_as_they_are():
    m = example_manifold()
    values, _, _ = m.jets([[1, 0, 2, 0]], 0)
    assert values.tolist() == [[5.0], [0.0], [4.0]]
    # a float array, as a scan passes, is read without a copy or a search for bools
    points = np.ones((3, 4))[:, ::-1]
    assert fields._as_points(points) is points
    assert fields._as_points(np.ones((2, 4), dtype=np.float32)).dtype == float


_exponents = st.tuples(*[st.integers(0, 3)] * 4)
_coefficients = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
).filter(lambda c: c != 0.0)
_fields = st.dictionaries(_exponents, _coefficients, min_size=0, max_size=6).map(
    ScalarField
)


@given(_fields)
def test_print_parse_round_trip(f):
    assert parse_field(f.to_string()) == f


@given(_fields, _fields, st.tuples(*[st.floats(-2, 2)] * 4))
def test_product_rule(f, g, p):
    # exact coefficient arithmetic must satisfy d(fg) = f dg + g df
    lhs = (f * g).partial(1)
    rhs = f * g.partial(1) + g * f.partial(1)
    assert abs(lhs(p) - rhs(p)) <= 1e-6 * (1 + abs(lhs(p)))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _reference_fields():
    """Named fields the compiled kernel must reproduce bit for bit."""
    example = example_manifold()
    cubic = load_manifold(os.path.join(REPO_ROOT, "perfbench", "manifolds", "cubic.cfg"))
    rng = np.random.default_rng(20261017)
    fields = {
        "zero": ScalarField(),
        "constant": ScalarField.constant(2.5),
        "negative constant": ScalarField.constant(-1 / 3),
        "x1^4 x2": x1**4 * x2 - 3 * x3**2 * x4**3,
        # two odd exponents in one term: (c * 3) * 3 and c * 9 round apart
        "odd exponents": parse_field("0.1*x1^3*x2^3 - 1/3*x3^5*x4^3 + 0.7*x1^3*x4^5"),
        # finite coefficients whose partials overflow: c * e is inf in some slots
        "overflowing partials": parse_field("1.7e308*x1^2 - 1e308*x3^4*x4"),
    }
    for name in "ABC":
        fields[f"example {name}"] = getattr(example, name)
        fields[f"cubic {name}"] = getattr(cubic, name)
    for k in range(8):
        fields[f"random {k}"] = random_polynomial(rng, degree=4, terms=9, scale=3.0)
    return fields


REFERENCE_FIELDS = _reference_fields()


def _reference_points():
    rng = np.random.default_rng(20261018)
    special = [
        (0.0, 0.0, 0.0, 0.0),
        (-0.0, 1.0, -1.0, 0.5),
        (1.0, 0.1, 2.0, 0.2),
        (1e-160, -1e-170, 1e-300, 3.0),
        (1e100, -1e80, 2.0, 1e60),
    ]
    return np.vstack([special, rng.uniform(-3.0, 3.0, size=(60, 4))])


def _reference_jets(f, points):
    """Values, gradients and Hessians of f by __call__, gradient and hessian, point by point."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            np.array([f(p) for p in points]),
            np.array([f.gradient(p) for p in points]),
            np.array([f.hessian(p) for p in points]),
        )


@pytest.mark.parametrize("name", list(REFERENCE_FIELDS))
def test_compiled_jets_match_reference_bitwise(name):
    f = REFERENCE_FIELDS[name]
    points = _reference_points()
    # the reference points, then the edge cases: 0.0 beside -0.0,
    # overflowing powers and a value on several axes
    for block in (points, JET_EDGE_POINTS):
        expected = _reference_jets(f, block)
        values, gradients, hessians = jets(CompiledField([f]), block)
        assert np.array_equal(_bits(values[0]), _bits(expected[0]))
        assert np.array_equal(_bits(np.moveaxis(gradients[0], -1, 0)), _bits(expected[1]))
        assert np.array_equal(_bits(np.moveaxis(hessians[0], -1, 0)), _bits(expected[2]))
    # one point at a time: no point's entries depend on the others
    values, gradients, hessians = jets(CompiledField([f]), points)
    for k in (0, len(points) - 1):
        single = jets(CompiledField([f]), points[k : k + 1])
        assert all(
            np.array_equal(_bits(a), _bits(b[..., k : k + 1])) for a, b in
            zip(single, (values, gradients, hessians))
        )


def test_compiled_field_refuses_no_fields():
    # its tables hold a row per field, so with none there is nothing to compile
    with pytest.raises(ValueError, match="^CompiledField needs at least one field$"):
        CompiledField([])
    with pytest.raises(ValueError, match="at least one field"):
        CompiledField(iter(()))


def test_jets_of_several_fields_and_orders():
    m = example_manifold()
    points = _reference_points()[:10]
    values, gradients, hessians = jets(CompiledField([m.A, m.B, m.C]), points)
    assert values.shape == (3, 10)
    assert gradients.shape == (3, 4, 10)
    assert hessians.shape == (3, 4, 4, 10)
    assert np.array_equal(hessians, np.swapaxes(hessians, 1, 2))
    for k, f in enumerate((m.A, m.B, m.C)):
        alone = jets(CompiledField([f]), points)
        assert np.array_equal(values[k], alone[0][0])
        assert np.array_equal(hessians[k], alone[2][0])
    v0, g0, h0 = jets(CompiledField([m.A, m.B, m.C]), points, order=0)
    assert np.array_equal(v0, values) and g0 is None and h0 is None
    v1, g1, h1 = jets(CompiledField([m.A, m.B, m.C]), points, order=1)
    assert np.array_equal(g1, gradients) and h1 is None
    empty = jets(CompiledField([m.A, m.B, m.C]), np.zeros((0, 4)))
    assert [x.shape for x in empty] == [(3, 0), (3, 4, 0), (3, 4, 4, 0)]
    with pytest.raises(ValueError):
        jets(CompiledField([m.A]), points, order=3)
    with pytest.raises(ValueError):
        jets(CompiledField([m.A]), points[0])
    with pytest.raises(ValueError):
        jets(CompiledField([m.A]), [[0.0, 0.0, 0.0, float("nan")]])


def test_compiled_form_is_kept_on_the_manifold():
    cubic = os.path.join(REPO_ROOT, "perfbench", "manifolds", "cubic.cfg")
    m = load_manifold(cubic)
    points = _reference_points()[:10]
    first = m.jets(points)
    compiled = m.compiled
    second = m.jets(points)
    assert m.compiled is compiled
    assert load_manifold(cubic) is m and load_manifold(cubic).compiled is compiled
    assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(first, second))
    # a new A compiles anew, with no stale form
    changed = dataclasses.replace(m, A=parse_field("x1^2*x3 - x4"))
    assert changed.compiled is not compiled
    got = changed.jets(points)
    for a, b, expected in zip(got, first, _reference_jets(changed.A, points)):
        assert np.array_equal(_bits(np.moveaxis(a[0], -1, 0)), _bits(expected))
        assert np.array_equal(_bits(a[1:]), _bits(b[1:]))
    clone = pickle.loads(pickle.dumps(m))
    assert clone == m
    assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(clone.jets(points), first))


@given(_fields, st.tuples(*[st.floats(-4, 4)] * 4))
def test_compiled_jets_match_reference_on_random_fields(f, p):
    values, gradients, hessians = jets(CompiledField([f]), [p])
    assert _bits(values[0, 0]) == _bits(f(p))
    assert np.array_equal(_bits(gradients[0, :, 0]), _bits(f.gradient(p)))
    assert np.array_equal(_bits(hessians[0, ..., 0]), _bits(f.hessian(p)))


# Expressions of the parser's grammar, each paired with the field the
# ScalarField operators build from the same syntax tree: the oracle the
# parser must match term for term and bit for bit.
_constant = ScalarField.constant


_literals = st.one_of(
    st.floats(0, 1e308).map(lambda c: (repr(c), _constant(c))),
    st.tuples(st.integers(0, 10**6), st.integers(1, 10**6)).map(
        lambda r: (f"{r[0]}/{r[1]}", _constant(r[0] / r[1]))
    ),
    st.sampled_from(["1e300", "0", "0.5", "3"]).map(lambda t: (t, _constant(float(t)))),
)
_coordinates = st.integers(1, 4).map(lambda i: (f"x{i}", ScalarField.coordinate(i)))


def _expressions(inner):
    atoms = st.one_of(_literals, _coordinates, inner.map(lambda e: (f"({e[0]})", e[1])))
    powers = st.one_of(
        atoms,
        st.tuples(atoms, st.integers(0, 3)).map(lambda a: (f"{a[0][0]}^{a[1]}", a[0][1] ** a[1])),
    )
    unaries = st.tuples(st.integers(0, 2), powers).map(
        lambda u: ("-" * u[0] + u[1][0], functools.reduce(lambda f, _: -f, range(u[0]), u[1][1]))
    )
    terms = st.lists(unaries, min_size=1, max_size=3).map(
        lambda us: ("*".join(t for t, _ in us), functools.reduce(operator.mul, [f for _, f in us]))
    )

    def chain(first, rest):
        text, field = first
        for op, (t, f) in rest:
            text, field = f"{text} {op} {t}", (field + f if op == "+" else field - f)
        return text, field

    return st.tuples(terms, st.lists(st.tuples(st.sampled_from("+-"), terms), max_size=4)).map(
        lambda e: chain(*e)
    )


def _hex_terms(field):
    return [(exps, coeff.hex()) for exps, coeff in field.terms().items()]


@settings(max_examples=300)
@given(st.recursive(st.one_of(_literals, _coordinates), _expressions, max_leaves=10))
@example(("x1 - x1", x1 - x1))
@example(("x1 - x1 + x2*0 - 0*x3", x1 - x1 + x2 * _constant(0) - _constant(0) * x3))
@example(("(x1 + x2 - 1/3)^3 - x1^3", (x1 + x2 - _constant(1 / 3)) ** 3 - x1**3))
@example(("((x1 - 0.1)*(x2 + 1/7))^2", ((x1 - _constant(0.1)) * (x2 + _constant(1 / 7))) ** 2))
@example(("1e300*1e300*x1", _constant(1e300) * _constant(1e300) * x1))
@example(("1e300*1e300*x1 - 1e300*1e300*x1 + x2", _constant(1e300) * _constant(1e300) * x1
          - _constant(1e300) * _constant(1e300) * x1 + x2))
def test_parser_matches_the_operator_oracle(case):
    text, field = case
    assert _hex_terms(parse_field(text)) == _hex_terms(field)
