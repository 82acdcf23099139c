"""Manifold specs, domain validity and the config file format."""

import codecs
import pickle
from pathlib import Path

import numpy as np
import pytest

from circulant4 import (
    ConfigError,
    ManifoldSpec,
    ScalarField,
    SignLineLocus,
    constant_manifold,
    example_manifold,
    load_manifold,
    manifold_from_config,
)
from circulant4 import manifolds
from circulant4.circulant import SLOT_FIELD
from circulant4.connection import Connection
from circulant4.manifolds import MAX_CONFIG_BYTES

P0 = (1.0, 0.1, 2.0, 0.2)


def _reasons(m, points):
    """The reason text of each of N points, None where valid, from one `domain_reasons` call."""
    points = np.array(points, dtype=float)
    values, _, _ = m.jets(points, 0)
    codes, reasons = m.domain_reasons(points, values)
    return [reasons[code] for code in codes]


def test_example_triple_values():
    a, b, c = Connection.at(example_manifold(), P0).values[:, 0].tolist()
    assert a == pytest.approx(5.05, abs=1e-12)
    assert b == pytest.approx(0.9, abs=1e-12)
    assert c == pytest.approx(4.04, abs=1e-12)


def test_example_validity_table():
    m = example_manifold()
    cases = [
        (P0, None),
        ((1, 1, 1, 1), "excluded locus (x,x,x,x)"),
        ((2, 2, 2, 2), "excluded locus (x,x,x,x)"),
        ((-1, 1, -1, 1), "excluded locus (-x,x,-x,x)"),
        ((1, 2, 3, 4), "C > B violated"),
        ((1, -0.1, 2, -0.2), "B > 0 violated"),
    ]
    assert _reasons(m, [point for point, _ in cases]) == [reason for _, reason in cases]
    values, _, _ = m.jets(np.array([(1.0, 2.0, 3.0, 4.0)]), 0)
    assert values.tolist() == [[30.0], [24.0], [22.0]]


def test_ordering_reason_sequence():
    # A > C is checked first, so a reversed constant triple reports it
    m = constant_manifold(1.0, 0.5, 2.0)
    assert _reasons(m, [(0, 0, 0, 0)]) == ["A > C violated"]


def test_sign_line_locus():
    diag = SignLineLocus("(x,x,x,x)", (1, 1, 1, 1))
    alt = SignLineLocus("(-x,x,-x,x)", (-1, 1, -1, 1))
    points = [(2, 2, 2, 2), (2, 2, 2, 2.0001), (-3, 3, -3, 3), (1, 2, 1, 2), (0, 0, 0, 0)]
    assert diag.contains_points(points).tolist() == [True, False, False, False, True]
    # the origin lies on every sign line
    assert alt.contains_points(points).tolist() == [False, False, True, False, True]


def test_metric_at_matches_triple():
    connection = Connection.at(example_manifold(), P0)
    assert np.array_equal(connection.finite_row("metric"), connection.values[:, 0][SLOT_FIELD])


def test_constant_manifold():
    m = constant_manifold(3, 1, 2)
    assert m.name == "constant"
    assert m.excluded_loci == ()
    points = np.array([(0, 0, 0, 0), (5, -3, 2, 7), (9, 9, 9, 9)], dtype=float)
    values, _, _ = m.jets(points, 0)
    assert values.tolist() == [[3.0] * 3, [1.0] * 3, [2.0] * 3]
    assert _reasons(m, points) == [None] * 3


EXAMPLE_CONFIG = """\
# the built-in example, spelled out
name = rewritten
A = x1^2 + x2^2 + x3^2 + x4^2
B = x1*x2 + x2*x3 + x1*x4 + x3*x4   # symmetric cross terms
C = 2*x1*x3 + 2*x2*x4
"""


def test_config_round_trip():
    m = manifold_from_config(EXAMPLE_CONFIG)
    assert m.name == "rewritten"
    base = example_manifold()
    rng = np.random.default_rng(5)
    points = rng.uniform(-3, 3, size=(25, 4))
    assert np.array_equal(m.jets(points, 0)[0], base.jets(points, 0)[0])


def test_config_name_fallbacks():
    text = "A = x1\nB = x2\nC = x3\n"
    assert manifold_from_config(text).name == "custom"
    assert manifold_from_config(text, name="fromfile").name == "fromfile"
    assert manifold_from_config("name = given\n" + text, name="x").name == "given"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("A = x1\nB = x2", "missing field C"),
        ("A = x1\nA = x2\nB = x1\nC = x1", "line 2: duplicate key 'A'"),
        ("D = x1", "line 1: unknown key 'D'"),
        ("just text", "line 1: expected 'key = value'"),
        ("A =", "line 1: empty value for 'A'"),
        ("A = x5\nB = x1\nC = x1", "field A (line 1): unknown identifier 'x5'"),
    ],
)
def test_config_errors(text, fragment):
    with pytest.raises(ConfigError) as err:
        manifold_from_config(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "fields, point, reason",
    [
        (("x1^300", "1", "3"), (20.0, 0.0, 0.0, 0.0), "A is not finite"),
        (("x1^300 - x2^300", "1", "3"), (20.0, 20.0, 0.0, 0.0), "A is not finite"),
        (("5", "x2^300", "3"), (0.0, 20.0, 0.0, 0.0), "B is not finite"),
    ],
)
def test_triple_at_raises_the_reason_of_the_record(fields, point, reason):
    m = manifold_from_config("\n".join(f"{k} = {v}" for k, v in zip("ABC", fields)))
    assert _reasons(m, [point]) == [reason]
    with pytest.raises(ValueError) as err:
        Connection.at(m, point)
    assert str(err.value) == reason


def test_load_manifold_names_after_file(tmp_path):
    path = tmp_path / "disc.cfg"
    path.write_text("A = x1^2 + 2\nB = 1/2\nC = x1\n", encoding="utf-8")
    m = load_manifold(path)
    assert m.name == "disc"
    assert m.jets(np.array([(1.0, 0, 0, 0)]), 0)[0].tolist() == [[3.0], [0.5], [1.0]]


def test_load_manifold_reads_in_bounded_pieces(tmp_path, monkeypatch):
    config = tmp_path / "huge.cfg"
    config.write_bytes(b"#" * (3 * MAX_CONFIG_BYTES))
    asked = []
    open_path = Path.open

    class Recorded:
        def __init__(self, file):
            self.file = file

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.file.close()

        def read(self, size):
            asked.append(size)
            return self.file.read(size)

    monkeypatch.setattr(Path, "open", lambda path, mode="r": Recorded(open_path(path, mode)))
    with pytest.raises(ConfigError, match="larger than"):
        load_manifold(config)
    # no read asks for more than 64 KiB, and none past one byte beyond the bound
    assert max(asked) <= 1 << 16
    assert sum(asked) == MAX_CONFIG_BYTES + 1


@pytest.fixture
def parse_calls(monkeypatch):
    """The expressions `manifold_from_config` parses from now on."""
    calls = []

    def counted(text):
        calls.append(text)
        return parse_field(text)

    parse_field = manifolds.parse_field
    monkeypatch.setattr(manifolds, "parse_field", counted)
    return calls


def test_load_manifold_parses_unchanged_content_once(tmp_path, parse_calls):
    path = tmp_path / "disc.cfg"
    path.write_text("A = x1^2 + 2\nB = 1/2\nC = x1\n", encoding="utf-8")
    first = load_manifold(path)
    assert parse_calls == ["x1^2 + 2", "1/2", "x1"]
    parse_calls.clear()
    assert load_manifold(str(path)) is first
    assert parse_calls == []


def test_load_manifold_keeps_the_name_of_each_file_stem(tmp_path, parse_calls):
    text = "A = x1^2 + 2\nB = 1/2\nC = x1\n"
    for stem in ("left", "right"):
        (tmp_path / f"{stem}.cfg").write_text(text, encoding="utf-8")
    left, right = (load_manifold(tmp_path / f"{stem}.cfg") for stem in ("left", "right"))
    assert (left.name, right.name) == ("left", "right")
    assert (left.A, left.B, left.C) == (right.A, right.B, right.C)
    assert load_manifold(tmp_path / "left.cfg") is left


def test_load_manifold_skips_a_byte_order_mark(tmp_path):
    # the first key is where a mark left in the text would show
    text = "name = disc\nA = x1^2 + 2\nB = 1/2\nC = x1\n".encode()
    (tmp_path / "plain.cfg").write_bytes(text)
    (tmp_path / "marked.cfg").write_bytes(codecs.BOM_UTF8 + text)
    marked = load_manifold(tmp_path / "marked.cfg")
    assert marked == load_manifold(tmp_path / "plain.cfg")
    assert marked.name == "disc"


@pytest.mark.parametrize(
    "broken, error",
    [(b"A = x9\nB = 1\nC = 3\n", ConfigError), (b"A = \xff\nB = 1\nC = 3\n", UnicodeDecodeError)],
)
def test_load_manifold_caches_no_error(tmp_path, broken, error):
    path = tmp_path / "fixed.cfg"
    path.write_bytes(broken)
    for _ in range(2):
        with pytest.raises(error):
            load_manifold(path)
    path.write_bytes(b"A = 6\nB = 1\nC = 3\n")
    assert load_manifold(path).jets(np.array([P0]), 0)[0].tolist() == [[6.0], [1.0], [3.0]]


def test_load_manifold_evicts_the_oldest_config_past_the_bound(tmp_path, parse_calls):
    paths = []
    for k in range(manifolds._CONFIG_CACHE_SIZE + 1):
        paths.append(tmp_path / f"m{k}.cfg")
        paths[-1].write_text(f"A = {k + 6}\nB = 1\nC = 3\n", encoding="utf-8")
    loaded = [load_manifold(path) for path in paths]
    assert len(parse_calls) == 3 * len(paths)
    parse_calls.clear()
    assert load_manifold(paths[-1]) is loaded[-1]
    assert load_manifold(paths[1]) is loaded[1]
    assert parse_calls == []
    oldest = load_manifold(paths[0])
    assert oldest is not loaded[0] and oldest == loaded[0]
    assert parse_calls == ["6", "1", "3"]


def test_manifold_is_frozen_and_picklable():
    m = example_manifold()
    with pytest.raises(AttributeError):
        m.name = "other"
    clone = pickle.loads(pickle.dumps(m))
    assert clone.name == m.name
    assert _reasons(clone, [P0]) == [None]
    assert np.array_equal(clone.jets(np.array([P0]), 0)[0], m.jets(np.array([P0]), 0)[0])


def test_custom_loci():
    m = ManifoldSpec(
        "halfspace",
        A=ScalarField.constant(3),
        B=ScalarField.constant(1),
        C=ScalarField.constant(2),
        excluded_loci=(SignLineLocus("(x,-x,x,-x)", (1, -1, 1, -1)),),
    )
    assert _reasons(m, [(1, -1, 1, -1), (1, 1, 1, 1)]) == ["excluded locus (x,-x,x,-x)", None]
