"""The JSON writer against the standard library's encoder, the writers' errors, and the
intervals that bounded input fields declare."""

import json
import random
import re
from dataclasses import replace
from enum import Enum, IntEnum

import numpy as np
import pytest

from tmsnav.cli import EXIT_OK, EXIT_USAGE, main
from tmsnav.config import RegistrationSettings
from tmsnav.errors import ValidationError
from tmsnav.fieldsim import CoilModel, PulseTrain, SensorModel
from tmsnav.fileio import canonical_json, parse, write_csv, write_json
from tmsnav.registration import IcpConfig
from tmsnav.session import ActuationModel

from conftest import interval_edges
from test_acceptance import acceptance_project  # noqa: F401  (fixture)


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


class Side(str, Enum):
    LEFT = "left \"wing\""


class Count(IntEnum):
    THREE = 3


FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 2.5, -1.7976931348623157e308,
          123456789.123, np.float64(0.1), np.float64(-3e-9), np.float64(1e22))
INTS = (0, -1, 2**53 + 1, -(2**64), 10**40, Count.THREE)
STRINGS = ("", "plain", 'say "hi"', "back\\slash", "tab\tnew\nline\r", "\x00\x01\x1f\x7f",
           "café", "  ", "\U0001f9e0 brain", "\ud800", Side.LEFT)


def scalar(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(FLOATS)
    if kind == 1:
        return rng.uniform(-1e3, 1e3) * 10.0 ** rng.randint(-12, 12)
    if kind == 2:
        return rng.choice(INTS)
    if kind == 3:
        return rng.choice((True, False, None))
    return rng.choice(STRINGS)


def keys(rng: random.Random, n: int) -> list:
    """Keys that sort together: strings, numbers (bools among them), or one key of any kind."""
    family = rng.randrange(6)
    if family == 0:
        return [rng.choice((None, True, 7, 2.5, np.float64(-1.5), Count.THREE))]
    if family == 1:
        return [rng.choice((True, False, -3, 0.5, 2**70, 1e-300, np.float64(9.0)))
                for _ in range(n)]
    return [rng.choice(STRINGS) + str(rng.randrange(4)) for _ in range(n)]


def document(rng: random.Random, depth: int):
    kind = rng.randrange(6) if depth else 5
    n = rng.choice((0, 1, 2, 3, 5))
    if kind == 0:
        return {k: document(rng, depth - 1) for k in keys(rng, n)}
    if kind == 1:
        return [document(rng, depth - 1) for _ in range(n)]
    if kind == 2:
        return tuple(document(rng, depth - 1) for _ in range(n))
    if kind == 3:  # a float-only list, the writer's one-join path
        return [rng.choice(FLOATS) if rng.random() < 0.3 else rng.gauss(0.0, 50.0)
                for _ in range(n)]
    if kind == 4:
        return {"values": [scalar(rng) for _ in range(n)], "n": n}
    return scalar(rng)


DOCUMENTS = [document(random.Random(seed), depth=1 + seed % 5) for seed in range(400)]


@pytest.mark.parametrize("seed", range(0, 400, 50))
def test_canonical_json_is_the_stdlib_encoding(seed):
    for doc in DOCUMENTS[seed:seed + 50]:
        assert canonical_json(doc) == stdlib(doc)


def test_canonical_json_on_edge_documents():
    for doc in ([], {}, (), [[]], {"a": {}}, [{}, [], ()], "x", 1.5, True, None, 2**80,
                [1, 2.0, True, None, "s"], [0.1, np.float64(0.2), -0.0], [0.5, 1],
                {1: "a", 1.5: "b", False: "c"}, {None: []}, {Side.LEFT: Count.THREE}):
        assert canonical_json(doc) == stdlib(doc)


def with_leaf(doc, leaf, rng: random.Random):
    """`leaf` at a random depth next to `doc`: in a list, a float-only list or a dict."""
    for _ in range(rng.randrange(4)):
        leaf = rng.choice(([doc, leaf], [leaf, doc], {"a": doc, "z": leaf}, [0.25, leaf, 1.0]))
    return leaf


@pytest.mark.parametrize("bad,error", [
    (float("nan"), ValueError), (float("inf"), ValueError), (-float("inf"), ValueError),
    (np.float64("nan"), ValueError), (np.int64(3), TypeError), ({1, 2}, TypeError),
    ({(1, 2): 0}, TypeError), ({float("inf"): 0}, ValueError), (b"bytes", TypeError),
])
def test_canonical_json_raises_where_the_stdlib_raises(bad, error):
    for seed in range(40):
        rng = random.Random(seed)
        doc = with_leaf(DOCUMENTS[seed], bad, rng)
        with pytest.raises(error):
            stdlib(doc)
        with pytest.raises(error):
            canonical_json(doc)


def test_canonical_json_cycle_raises_as_the_stdlib_does(tmp_path):
    loop = [1.0]
    loop.append({"self": loop})
    with pytest.raises(ValueError, match="Circular"):
        canonical_json(loop)
    # a cycle holds no key path to name
    with pytest.raises(ValidationError, match="Circular reference detected$"):
        write_json(tmp_path / "loop.json", loop)


def test_criterion_9_json_is_the_stdlib_encoding(acceptance_project, tmp_path):  # noqa: F811
    root = acceptance_project
    cfg = f"--config={root / 'config.json'}"
    out = tmp_path
    commands = [
        [cfg, f"--out={out / 'plan'}", "plan", "--strategy=closest-skin",
         f"--constraint={root / 'constraint.json'}"],
        [cfg, f"--out={out / 'reg'}", "register", f"--cloud={root / 'cloud.json'}"],
        [cfg, f"--out={out / 'chain'}", "chain", f"--graph={root / 'graph.json'}",
         f"--plan={out / 'plan' / 'plan.json'}",
         f"--registration={out / 'reg' / 'registration.json'}"],
        [cfg, f"--out={out / 'hotspot'}", "hotspot", f"--plan={out / 'plan' / 'plan.json'}",
         "--rows=3", "--cols=3", "--spacing=8", f"--responses={root / 'responses.json'}"],
        [cfg, f"--out={out / 'fieldsim'}", "fieldsim", "--single-loop", "--standoff=20",
         "--offsets=0:10:6"],
        [cfg, "--seed=7", f"--out={out / 'session'}", "session", "--mode=holding",
         "--actuation=manual", "--svg"],
        [f"--out={out / 'report'}", "report", f"--input={out / 'session' / 'session.json'}"],
    ]
    for argv in commands:
        assert main(argv) == EXIT_OK
    written = sorted(out.glob("*/*.json"))
    assert [p.name for p in written] == ["commanded.json", "hotspot.json", "plan.json",
                                         "registration.json", "session.json"]
    for path in written:
        text = path.read_text()
        assert text == stdlib(json.loads(text)), path.name


@pytest.mark.parametrize("name,argv", [
    ("session.json", []), ("session.csv", []), ("session.svg", ["--svg"]),
])
def test_unwritable_output_file_is_usage_error_naming_it(tmp_path, capsys, name, argv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"coil": {"segments_per_loop": 64},
                                  "sensor": {"matrix": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1,
                                                        -20.0, 0, 0, 0, 1]},
                                  "train": {"trains": 2}}))
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)  # a directory where the file goes
    code = main([f"--config={config}", f"--out={out}", "session", *argv])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and name in err


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64(-np.inf)])
def test_writers_reject_a_non_finite_number_naming_the_file(tmp_path, bad):
    # canonical_json keeps the stdlib's ValueError; a writer makes it an input error (exit 64)
    # that names the key path of the first value written, keys sorted, and writes no file
    with pytest.raises(ValidationError, match=r"session\.json: .* at stats\.mean\[1\]$"):
        write_json(tmp_path / "session.json",
                   {"trains": [{"v": bad}], "stats": {"mean": [1.0, bad]}})
    with pytest.raises(ValidationError, match="sweep.csv: its secondary1_vpp column"):
        write_csv(tmp_path / "sweep.csv", ["offset_mm", "primary_vpp", "secondary1_vpp"],
                  [(0.0, 1.0, 2.0), (1.0, 1.5, bad)])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("cls", [CoilModel, SensorModel, PulseTrain, IcpConfig,
                                 RegistrationSettings, ActuationModel], ids=lambda c: c.__name__)
def test_a_bounded_field_takes_its_interval_and_nothing_outside_it(cls):
    # the least and greatest values an interval admits construct, built directly or parsed;
    # the nearest values outside are a ValueError naming the JSON key, the interval and the value
    base = ActuationModel.manual(0) if cls is ActuationModel else cls()
    edges = interval_edges(cls)
    assert edges
    for name, key, (below, least, greatest, above) in edges:
        for value in (least, greatest):
            assert getattr(replace(base, **{name: value}), name) == value
            if cls is not ActuationModel:  # no input document holds an actuation model
                assert getattr(parse(cls, {key: value}, "config.x"), name) == value
        for value in (below, above):
            message = rf"^{key} must be in [\[(].*[\])], got {re.escape(repr(value))}$"
            with pytest.raises(ValidationError, match=message):
                replace(base, **{name: value})
            if cls is not ActuationModel:
                with pytest.raises(ValidationError, match=rf"^config\.x: {key} must be in "):
                    parse(cls, {key: value}, "config.x")
