"""Manifold specs, domain validity and the config file format."""

import pickle
from pathlib import Path

import numpy as np
import pytest

from circulant4 import (
    ConfigError,
    DomainStatus,
    ManifoldSpec,
    ScalarField,
    SignLineLocus,
    constant_manifold,
    example_manifold,
    load_manifold,
    manifold_from_config,
    metric_components,
)
from circulant4 import manifolds
from circulant4.manifolds import MAX_CONFIG_BYTES

P0 = (1.0, 0.1, 2.0, 0.2)


def test_example_triple_values():
    t = example_manifold().triple_at(P0)
    assert t.a == pytest.approx(5.05, abs=1e-12)
    assert t.b == pytest.approx(0.9, abs=1e-12)
    assert t.c == pytest.approx(4.04, abs=1e-12)


def test_example_validity_table():
    m = example_manifold()
    assert m.domain_valid(P0).valid
    assert m.domain_valid(P0).reason is None

    cases = [
        ((1, 1, 1, 1), "excluded locus (x,x,x,x)"),
        ((2, 2, 2, 2), "excluded locus (x,x,x,x)"),
        ((-1, 1, -1, 1), "excluded locus (-x,x,-x,x)"),
        ((1, 2, 3, 4), "C > B violated"),
        ((1, -0.1, 2, -0.2), "B > 0 violated"),
    ]
    for point, reason in cases:
        status = m.domain_valid(point)
        assert not status.valid
        assert status.reason == reason

    t = m.triple_at((1, 2, 3, 4))
    assert (t.a, t.b, t.c) == (30.0, 24.0, 22.0)


def test_domain_status_truthiness():
    assert bool(DomainStatus(True))
    assert not DomainStatus(False, "why")
    m = example_manifold()
    if m.domain_valid(P0):
        pass
    else:
        pytest.fail("validity should support direct branching")


def test_ordering_reason_sequence():
    # A > C is checked first, so a reversed constant triple reports it
    m = constant_manifold(1.0, 0.5, 2.0)
    assert m.domain_valid((0, 0, 0, 0)).reason == "A > C violated"


def test_sign_line_locus():
    diag = SignLineLocus("(x,x,x,x)", (1, 1, 1, 1))
    alt = SignLineLocus("(-x,x,-x,x)", (-1, 1, -1, 1))
    assert diag.contains((2, 2, 2, 2))
    assert not diag.contains((2, 2, 2, 2.0001))
    assert alt.contains((-3, 3, -3, 3))
    assert not alt.contains((1, 2, 1, 2))
    # the origin lies on every sign line
    assert diag.contains((0, 0, 0, 0)) and alt.contains((0, 0, 0, 0))


def test_metric_at_matches_triple():
    m = example_manifold()
    assert np.array_equal(m.metric_at(P0), metric_components(m.triple_at(P0)))


def test_constant_manifold():
    m = constant_manifold(3, 1, 2)
    assert m.name == "constant"
    assert m.excluded_loci == ()
    t1 = m.triple_at((0, 0, 0, 0))
    t2 = m.triple_at((5, -3, 2, 7))
    assert (t1.a, t1.b, t1.c) == (t2.a, t2.b, t2.c) == (3.0, 1.0, 2.0)
    assert m.domain_valid((9, 9, 9, 9)).valid


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
    for _ in range(25):
        p = rng.uniform(-3, 3, size=4)
        t, s = m.triple_at(p), base.triple_at(p)
        assert (t.a, t.b, t.c) == (s.a, s.b, s.c)


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
    assert m.domain_valid(point).reason == reason
    for view in (m.triple_at, m.metric_at):
        with pytest.raises(ValueError) as err:
            view(point)
        assert str(err.value) == reason


def test_load_manifold_names_after_file(tmp_path):
    path = tmp_path / "disc.cfg"
    path.write_text("A = x1^2 + 2\nB = 1/2\nC = x1\n", encoding="utf-8")
    m = load_manifold(path)
    assert m.name == "disc"
    t = m.triple_at((1, 0, 0, 0))
    assert (t.a, t.b, t.c) == (3.0, 0.5, 1.0)


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
    t = load_manifold(path).triple_at(P0)
    assert (t.a, t.b, t.c) == (6.0, 1.0, 3.0)


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
    assert clone.domain_valid(P0).valid
    t, s = clone.triple_at(P0), m.triple_at(P0)
    assert (t.a, t.b, t.c) == (s.a, s.b, s.c)


def test_custom_loci():
    m = ManifoldSpec(
        "halfspace",
        A=ScalarField.constant(3),
        B=ScalarField.constant(1),
        C=ScalarField.constant(2),
        excluded_loci=(SignLineLocus("(x,-x,x,-x)", (1, -1, 1, -1)),),
    )
    assert m.domain_valid((1, -1, 1, -1)).reason == "excluded locus (x,-x,x,-x)"
    assert m.domain_valid((1, 1, 1, 1)).valid
