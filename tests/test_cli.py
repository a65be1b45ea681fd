"""Command line interface: config handling, trace files, snapshots,
compare joins, exit codes."""

import csv
import hashlib
import json
import math
import re
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseuq import cli
from sparseuq.adaptive import AdaptiveConfig, TraceRow, run_strategy
from sparseuq.cli import (
    _KNOWN_KEYS,
    DEFAULTS,
    TRACE_COLUMNS,
    ConfigError,
    TraceWriter,
    compare_report,
    load_config,
    load_interpolant,
    main,
    problem_hash,
    read_trace,
    run_experiment,
    write_final_set,
)
from sparseuq.estimators import NormSpec
from sparseuq.fem import MESH_N, PROBLEM_DEFAULTS, SpatialDiscretization, build_problem
from sparseuq.interp import SparseInterpolant, grid_points
from sparseuq.multiindex import MonotoneIndexSet

from oracles import add_evaluated, final_set_text, point_indices, random_monotone


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def deterministic_cfg(tmp_path, **over):
    data = {
        "problem": {"family": "constant", "M": 1, "amps": [0.0], "a0": 2.0},
        "mesh_n": 32,
        "tol": 1e-10,
    }
    data.update(over)
    return write_config(tmp_path, "det.json", data)


def affine_cfg(tmp_path, **over):
    data = {
        "problem": {"family": "constant", "M": 1, "amps": [1.0], "a0": 2.0},
        "mesh_n": 64,
        "tol": 1e-6,
    }
    data.update(over)
    return write_config(tmp_path, "affine.json", data)


# -- config loading ---------------------------------------------------------


def test_load_config_merges_defaults(tmp_path):
    path = write_config(tmp_path, "c.json", {"tol": 1e-3})
    cfg = load_config(path)
    assert cfg["tol"] == 1e-3
    assert cfg["mesh_n"] == DEFAULTS["mesh_n"]
    assert cfg["problem"]["family"] == "cosine"


def test_load_config_nested_merge(tmp_path):
    path = write_config(tmp_path, "c.json", {"problem": {"M": 3}})
    cfg = load_config(path)
    assert cfg["problem"]["M"] == 3
    assert cfg["problem"]["a0"] == 2.0


def test_load_config_malformed_line_numbers(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "tol": 1e-3,\n  oops\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(str(path))


def test_load_config_unknown_key(tmp_path):
    path = write_config(tmp_path, "c.json", {"tolerance": 1e-3})
    with pytest.raises(ConfigError, match="tolerance"):
        load_config(str(path))


def test_load_config_unknown_nested_keys(tmp_path):
    path = write_config(tmp_path, "p.json", {"problem": {"M": 1, "amp": [0.5]}})
    with pytest.raises(ConfigError, match=r"unknown keys problem\.amp$"):
        load_config(path)
    # explicit amplitudes and a load given as a mapping are known
    ok = {"problem": {"M": 1, "amps": [0.5], "f": {"family": "sine", "amp": 2.0}}}
    assert load_config(write_config(tmp_path, "ok.json", ok))["problem"]["amps"] == [0.5]


def test_run_rejects_bad_config_before_writing(tmp_path, capsys):
    cases = (
        ({"norm": {"P": "inf"}, "reference": {"evry": 1}}, "norm.P, reference.evry"),
        ({"problem": {"gama": 0.5}}, "problem.gama"),
        ({"norm": {"p": 3}}, "norm.p must be 2 or inf, got 3.0"),
        # a key removed from the config surface is unknown like any other
        ({"norm": {"quad_order": 12}}, "unknown keys norm.quad_order"),
        ({"norm": {"p": "inf", "sup_points_per_dim": 1}}, "sup_points_per_dim >= 2"),
        # at M = 2 a negative budget once died in a complex int() with exit 1
        (
            {
                "problem": {"family": "constant", "M": 2, "amps": [0.0, 0.0]},
                "norm": {"p": "inf", "sup_budget": -8},
            },
            "norm.sup_budget >= 2",
        ),
        ({"reference": {"quad_order": 0}}, "reference.quad_order must be at least 1, got 0"),
        # a negative cadence once ran with no reference and exited 0
        ({"reference": {"every": -1}}, 'reference.every must be at least 0 or "auto", got -1'),
        ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
        ({"max_solves": -5}, "max_solves must be at least 1, got -5"),
        ({"tol": -1}, "tol must be positive, got -1.0"),
        ({"dorfler": 1.5}, "dorfler must lie in [0, 1], got 1.5"),
        ({"strategies": ["gn_envelope", "newton"]}, "unknown strategy"),
        # wrong-typed values once escaped as TypeError tracebacks with exit 1
        ({"max_iter": None}, "max_iter must be an integer"),
        ({"reference": {"quad_order": [1]}}, "reference.quad_order must be an integer"),
        # so did sections of the wrong type and null problem numbers
        ({"problem": {"M": None}}, "problem.M must be an integer"),
        # fractional integers were once truncated, and booleans taken as 0/1
        ({"problem": {"M": 1.7}}, "problem.M must be an integer, got 1.7"),
        ({"mesh_n": 32.9}, "mesh_n must be an integer, got 32.9"),
        # a load key no family reads once ran with the default and was
        # echoed in summary.json as if it had been used
        (
            {"problem": {"M": 1, "f": {"family": "sine", "amplitude": 5.0}}},
            "unknown keys problem.f.amplitude",
        ),
        # each load family reads its own keys: these once ran with the
        # key ignored and exited 0
        (
            {"problem": {"M": 1, "f": {"family": "constant", "amp": 5.0}}},
            "unknown keys problem.f.amp",
        ),
        (
            {"problem": {"M": 1, "f": {"family": "sine", "value": 5.0}}},
            "unknown keys problem.f.value",
        ),
        ({"max_iter": True}, "max_iter must be an integer, got True"),
        # JSON NaN and Infinity once passed the ellipticity check (a_min nan
        # or inf) and ran to max_iter with total=nan, exit 2
        ({"problem": {"M": 1, "amps": [math.nan]}}, "problem.amps[0] must be finite, got nan"),
        ({"problem": {"M": 1, "a0": math.inf}}, "problem.a0 must be finite, got inf"),
        ({"problem": {"M": 1, "f": math.nan}}, "problem.f must be finite, got nan"),
        # M = 0 once left a header-only trace file behind, then exited 3
        ({"problem": {"M": 0}}, "problem.M must be at least 1"),
        # a p = inf grid of 3 or fewer points per axis lies in {-1, 0, 1},
        # where fresh basis functions vanish: these once ran, stopped "on tol"
        # with estimates of exactly 0 and wrote their files
        ({"problem": {"M": 8}, "norm": {"p": "inf"}}, "at M=8 has 3 points per axis"),
        ({"problem": {"M": 10}, "norm": {"p": "inf"}}, "at M=10 has 2 points per axis"),
        ({"norm": {"p": "inf", "sup_points_per_dim": 3}}, "at M=1 has 3 points per axis"),
        # one strategy under two spellings once wrote two sets of files
        ({"strategies": ["gg", "GG"]}, "strategy 'gg' appears more than once"),
        ({"strategies": ["gg", "gg"]}, "strategy 'gg' appears more than once"),
        ({"problem": [1]}, "problem must be a mapping"),
        ({"norm": [2]}, "norm must be a mapping"),
        ({"reference": 5}, "reference must be a mapping"),
        ({"strategies": 5}, "strategies must be a name or a list"),
    )
    for i, (over, message) in enumerate(cases):
        out = tmp_path / ("o%d" % i)
        cfg = deterministic_cfg(tmp_path, outdir=str(out), **over)
        assert main(["run", cfg]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()
    # the path itself comes from the config here, not from --outdir
    cfg = deterministic_cfg(tmp_path, outdir=5)
    assert main(["run", cfg]) == 3
    assert "outdir must be a path" in capsys.readouterr().err


def test_run_rejects_outdir_that_is_a_file(tmp_path, capsys):
    # an existing file, or a path under one, once ended in a
    # FileExistsError or NotADirectoryError traceback with exit 1
    blocker = tmp_path / "blocker"
    blocker.write_text("keep me\n")
    cfg = deterministic_cfg(tmp_path)
    for out in (blocker, blocker / "sub"):
        assert main(["run", cfg, "--outdir", str(out)]) == 3
        assert "cannot create outdir %s" % out in capsys.readouterr().err
        assert blocker.read_text() == "keep me\n"


def test_norm_p_takes_infinity_in_every_spelling(tmp_path):
    # numbers must be finite, but json writes math.inf as Infinity, which
    # is one more way to name p = inf
    for i, p in enumerate(("inf", "Infinity", "sup", math.inf)):
        out = tmp_path / ("o%d" % i)
        assert main(["run", deterministic_cfg(tmp_path, norm={"p": p}, outdir=str(out))]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["norm"]["p"] == p


# each case is rejected with the same message by the section's owner in
# the Python API and by the CLI, before any file is written
PARITY_CASES = (
    ("problem", {"gama": 0.5}, "unknown keys problem.gama"),
    (
        "problem",
        {"M": 2, "gama": 0.5, "familly": "constant"},
        "unknown keys problem.familly, problem.gama",
    ),
    ("problem", {"M": 1, "f": {"family": "constant", "amp": 5.0}}, "unknown keys problem.f.amp"),
    ("problem", {"M": 1, "f": {"value": 2.0, "amp": 5.0}}, "unknown keys problem.f.amp"),
    ("problem", {"M": 1, "f": {"family": "sine", "value": 5.0}}, "unknown keys problem.f.value"),
    ("problem", {"M": 1, "a0": math.inf}, "problem.a0 must be finite, got inf"),
    ("norm", {"quad_order": 12}, "unknown keys norm.quad_order"),
    ("norm", {"P": "inf", "p": 2}, "unknown keys norm.P"),
    ("norm", {"p": math.nan}, "norm.p must be finite, got nan"),
)
OWNERS = {"problem": build_problem, "norm": NormSpec.from_config}


def test_api_rejects_what_the_cli_rejects(tmp_path, capsys):
    for i, (section, spec, message) in enumerate(PARITY_CASES):
        with pytest.raises(ValueError) as exc:
            OWNERS[section](spec)
        assert str(exc.value) == message
        path = write_config(tmp_path, "c%d.json" % i, {section: spec})
        # load_config names the config file before the message, and what
        # it loads its owner rejects
        try:
            cfg = load_config(path)
        except ConfigError as exc:
            assert str(exc) == "config %s: %s" % (path, message)
        else:
            with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
                OWNERS[section](cfg[section])
        out = tmp_path / ("o%d" % i)
        assert main(["run", path, "--outdir", str(out)]) == 3
        assert capsys.readouterr().err.rstrip().endswith(": " + message)
        assert not out.exists()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))


def test_problem_hash_sensitivity(tmp_path):
    a = load_config(write_config(tmp_path, "a.json", {"tol": 1e-3}))
    b = load_config(write_config(tmp_path, "b.json", {"tol": 1e-9}))
    c = load_config(write_config(tmp_path, "c.json", {"mesh_n": 128}))
    d = load_config(write_config(tmp_path, "d.json", {"nodes": "rleja"}))
    assert problem_hash(a) == problem_hash(b)
    assert problem_hash(a) != problem_hash(c)
    assert problem_hash(a) != problem_hash(d)


# -- run command ------------------------------------------------------------


def test_run_deterministic_single_row(tmp_path):
    cfg = deterministic_cfg(tmp_path)
    out = tmp_path / "out"
    assert run_experiment(cfg, outdir=out) == 0
    phash, rows = read_trace(out / "gn_envelope-trace.csv")
    assert len(rows) == 1
    row = rows[0]
    assert row["n"] == "0"
    assert float(row["total_estimator"]) == 0.0
    assert row["strategy"] == "gn_envelope"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["problem_hash"] == phash
    assert summary["strategies"]["gn_envelope"]["stop_reason"] == "tol"
    assert not summary["strategies"]["gn_envelope"]["budget_exhausted"]


def test_trace_format(tmp_path):
    cfg = affine_cfg(tmp_path)
    out = tmp_path / "out"
    assert run_experiment(cfg, outdir=out) == 0
    text = (out / "gn_envelope-trace.csv").read_text().splitlines()
    assert text[0].startswith("# problem_hash=")
    assert text[1] == ",".join(TRACE_COLUMNS) == (
        "n,strategy,n_indices,n_grid,n_solves,total_estimator,max_estimator,"
        "reference_error,effectivity,wall_ms,estimate_ms,reference_ms,"
        "estimates_fresh,estimates_reused,ratio_c"
    )
    _, rows = read_trace(out / "gn_envelope-trace.csv")
    for row in rows:
        # floats are written with 17 significant digits: the textual
        # form must survive a parse and re-format round trip
        for col in ("total_estimator", "max_estimator"):
            v = float(row[col])
            assert "%.17g" % v == row[col]
        assert int(row["n_solves"]) == int(row["n_grid"])


def test_run_exit_code_on_budget(tmp_path):
    cfg = affine_cfg(tmp_path, tol=1e-14, max_iter=2)
    out = tmp_path / "out"
    assert run_experiment(cfg, outdir=out) == 2
    summary = json.loads((out / "summary.json").read_text())
    st = summary["strategies"]["gn_envelope"]
    assert st["budget_exhausted"] is True
    assert st["stop_reason"] == "max_iter"


def test_final_set_round_trip(tmp_path):
    cfg_path = write_config(
        tmp_path,
        "m2.json",
        {"problem": {"family": "cosine", "M": 2}, "mesh_n": 64, "tol": 1e-3},
    )
    out = tmp_path / "out"
    assert run_experiment(cfg_path, outdir=out) == 0
    P = load_interpolant(out / "gn_envelope-final-set.json")
    # deterministic rerun in memory must agree with the snapshot
    problem = build_problem(load_config(cfg_path)["problem"])
    disc = SpatialDiscretization(problem, 64)
    trace = run_strategy(
        problem,
        disc,
        AdaptiveConfig(strategy="gn_envelope", tol=1e-3, norm=NormSpec(p=2)),
    )
    Y = np.random.default_rng(0).uniform(-1, 1, size=(100, 2))
    assert np.max(np.abs(P.evaluate(Y) - trace.interpolant.evaluate(Y))) <= 1e-15
    snap = json.loads((out / "gn_envelope-final-set.json").read_text())
    assert snap["problem_hash"] == problem_hash(load_config(cfg_path))
    assert snap["a_min"] > 0


# surpluses whose repr json.dumps must keep: a signed zero, subnormals,
# 17-digit values and the extremes of the doubles
AWKWARD_FLOATS = [
    -0.0,
    0.0,
    5e-324,
    -2.225073858507201e-308,
    0.30000000000000004,
    1.0 / 3.0,
    -2.0 / 7.0 * 1e-11,
    123456789.12345679,
    1.7976931348623157e308,
    -1.0,
]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kind", ["leja", "rleja", "clenshaw_curtis"])
def test_streamed_final_set_is_the_snapshot_dump(kind, dim, tmp_path):
    rng = np.random.default_rng(dim)
    s = random_monotone(rng, dim, 2 + 3 * dim)
    P = SparseInterpolant(kind, dim)
    for i in s:
        add_evaluated(P, i, lambda y: np.array([1.0, y.sum(), -0.0]))
    data = P.to_jsonable()
    for rec in data["points"]:
        rec["surplus"] = [AWKWARD_FLOATS[v] for v in rng.integers(0, len(AWKWARD_FLOATS), 7)]
    P = SparseInterpolant.from_jsonable(data)
    header = {"problem_hash": "0123abcd", "strategy": "gg", "a_min": 0.1 + 0.7}
    path = tmp_path / "set.json"
    for Q in (P, SparseInterpolant(kind, dim)):
        write_final_set(path, header, Q)
        assert path.read_text() == final_set_text(header, Q)
    write_final_set(path, header, P)
    # the reload gives back every surplus bit, -0.0 included
    R = load_interpolant(path)
    assert R.surpluses().tobytes() == P.surpluses().tobytes()
    assert final_set_text(header, R) == path.read_text()


def test_run_final_set_is_the_snapshot_dump(tmp_path):
    cfg = write_config(
        tmp_path,
        "gg.json",
        {"problem": {"family": "cosine", "M": 2}, "mesh_n": 64, "tol": 1e-4, "strategies": ["gg"]},
    )
    out = tmp_path / "out"
    assert run_experiment(cfg, outdir=out) == 0
    text = (out / "gg-final-set.json").read_text()
    header = json.loads(text)
    assert final_set_text(header, load_interpolant(out / "gg-final-set.json")) == text


@pytest.mark.parametrize("key", ["interpolant", "nodes", "dim", "indices", "points"])
def test_snapshot_without_a_key_names_it(key, tmp_path):
    # a missing key once raised KeyError from the dict and the file alike
    P = SparseInterpolant("leja", 2)
    add_evaluated(P, (0, 0), lambda y: np.array([1.0, -2.0]))
    snap = {"strategy": "gg", "interpolant": P.to_jsonable()}
    missing = 'has no "%s"' % key
    if key == "interpolant":
        del snap[key]
    else:
        del snap["interpolant"][key]
        with pytest.raises(ValueError, match=missing):
            SparseInterpolant.from_jsonable(snap["interpolant"])
    path = tmp_path / "set.json"
    path.write_text(json.dumps(snap) + "\n")
    with pytest.raises(ValueError, match=missing):
        load_interpolant(path)


def _drop(key, at):
    def edit(inner):
        del inner["points"][at][key]

    return edit


def _set_record(at, value):
    def edit(inner):
        inner["points"][at] = value

    return edit


@pytest.mark.parametrize(
    "edit, message, reader_message",
    [
        (_drop("j", 1), 'point record 2 is not an object with a "j"', None),
        (_drop("surplus", 1), 'point (1, 0) has no "surplus"', None),
        (lambda inner: inner.update(indices=5), '"indices" is not a list: 5', None),
        (
            _set_record(1, [1, 0]),
            'point record 2 is not an object with a "j"',
            "expected a point record",
        ),
        (lambda inner: inner.update(dim=None), "dim must be an integer, got None", None),
        (lambda inner: inner.update(dim=[2]), "dim must be an integer, got [2]", None),
        (
            lambda inner: inner.update(points=5),
            'the interpolant\'s "points" is not a list of records: 5',
            "expected '[' opening \"points\"",
        ),
    ],
    ids=[
        "no-j",
        "no-surplus",
        "indices-5",
        "record-not-object",
        "dim-null",
        "dim-list",
        "points-5",
    ],
)
def test_malformed_point_record_or_indices_names_it(edit, message, reader_message, tmp_path):
    # each of these once raised KeyError or TypeError from the dict and,
    # where a file can hold it, from the file; a record that is not an
    # object, or points that are not a list, are refused by the file's
    # reader (reader_message) before from_jsonable sees them
    P = SparseInterpolant("leja", 2)
    add_evaluated(P, (0, 0), lambda y: np.array([1.0, -2.0]))
    add_evaluated(P, (1, 0), lambda y: np.array([y[0], 0.5]))
    snap = json.loads(json.dumps({"strategy": "gg", "interpolant": P.to_jsonable()}))
    edit(snap["interpolant"])
    with pytest.raises(ValueError, match=re.escape(message)):
        SparseInterpolant.from_jsonable(snap["interpolant"])
    path = tmp_path / "set.json"
    path.write_text(json.dumps(snap) + "\n")
    with pytest.raises(ValueError, match=re.escape(reader_message or message)):
        load_interpolant(path)


# surpluses the text must carry bit for bit: any finite or infinite double
# (signed zeros and subnormals included), the awkward values above and NaN,
# which json.dumps writes as NaN and the reload reads back as float("nan")
SURPLUS_VALUES = st.one_of(
    st.floats(allow_nan=False), st.sampled_from(AWKWARD_FLOATS + [math.nan])
)


@st.composite
def final_sets(draw):
    """A snapshot header and an interpolant of a drawn node family, M = 1..3
    and K = 1..4, whose surpluses are drawn, with those surpluses."""
    kind = draw(st.sampled_from(["leja", "rleja", "clenshaw_curtis"]))
    dim, K = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    s = MonotoneIndexSet(dim, [(0,) * dim])
    for _ in range(draw(st.integers(0, 6))):
        cand = s.reduced_margin()
        s.add(cand[draw(st.integers(0, len(cand) - 1))])
    rows = [draw(st.lists(SURPLUS_VALUES, min_size=K, max_size=K)) for _ in grid_points(kind, s)]
    data = {
        "nodes": kind,
        "dim": dim,
        "indices": s.to_jsonable(),
        "points": [{"j": list(j), "surplus": row} for j, row in zip(grid_points(kind, s), rows)],
    }
    header = {"problem_hash": "0123abcd", "strategy": "gg", "a_min": draw(SURPLUS_VALUES)}
    return header, SparseInterpolant.from_jsonable(data), rows


def assert_same_set(Q, P):
    assert Q.surpluses().shape == P.surpluses().shape
    assert Q.surpluses().tobytes() == P.surpluses().tobytes()
    assert point_indices(Q) == point_indices(P)
    assert {i: Q.block_of(i) for i in Q.indexset} == {i: P.block_of(i) for i in P.indexset}


@settings(max_examples=60, deadline=None)
@given(final_sets(), st.integers(1, 64), st.data())
def test_final_set_reload_round_trips_and_refuses_other_layouts(drawn, chunk, data):
    # the loader reads the file in chunks of _CHUNK characters; small
    # chunks cut records, keys and numbers at every place
    header, P, rows = drawn
    assert P.surpluses().tobytes() == np.array(rows, dtype=np.float64).tobytes()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_CHUNK", chunk)
        path = Path(tmp) / "set.json"
        write_final_set(path, header, P)
        text = path.read_text()
        snap = json.loads(text)

        def reload(body):
            path.write_text(body)
            return load_interpolant(path)

        for body in (
            text,
            json.dumps(snap, indent=2),
            json.dumps(snap, separators=(",", ":")),
            " \n" + text + "\t\r\n ",
        ):
            assert_same_set(reload(body), P)
        # text[:-1] drops only the newline, and is still the whole snapshot
        cut = data.draw(st.integers(0, len(text) - 2), label="cut")
        trailing = data.draw(
            st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1),
            label="trailing",
        )
        inner = snap["interpolant"]
        order = ("nodes", "dim", "points", "indices")
        swapped = dict(snap, interpolant={k: inner[k] for k in order})
        for body in (text[:cut], text + trailing, json.dumps(swapped)):
            with pytest.raises(ValueError):
                reload(body)


def test_malformed_record_is_refused_without_reading_on(tmp_path, monkeypatch):
    # only a value that may go on past the window's end is decoded again
    # with the next chunk; a malformed record raises once the window holds
    # it, so the loader never holds the rest of the file
    P = SparseInterpolant("leja", 1)
    for k in range(40):
        add_evaluated(P, (k,), lambda y: np.array([np.exp(y[0]), 1.0]))
    path = tmp_path / "set.json"
    write_final_set(path, {"strategy": "gg"}, P)
    text = path.read_text()
    at = text.index('"surplus": [') + len('"surplus": [')
    path.write_text(text[:at] + "}" + text[at + 1 :])
    reads = []
    more = cli._Window._more
    monkeypatch.setattr(cli._Window, "_more", lambda self: reads.append(1) or more(self))
    monkeypatch.setattr(cli, "_CHUNK", 64)
    with pytest.raises(ValueError, match="Expecting value at character %d$" % at):
        load_interpolant(path)
    assert len(reads) <= at // 64 + 3 < len(text) // 64, (len(reads), at, len(text))


def test_final_set_moves_one_record_at_a_time(tmp_path, monkeypatch):
    # a gg Clenshaw-Curtis M = 5 final set (1,425 points of 257 values,
    # about 8.7 MB of JSON).  The write, everything run_experiment does
    # after the build, holds one record at a time: json.dumps of the
    # whole snapshot peaked at 29.7 MB here.  The reload holds one window
    # of text and one record besides the surrogate's own buffers: reading
    # the whole text had peaked at 2.0 times the file (17.5 MB), and a
    # whole tree of Python floats at 2.4 times.
    amps = [0.9 * (m + 1) ** -2.0 for m in range(5)]
    cfg = write_config(
        tmp_path,
        "gg5.json",
        {
            "problem": {"family": "cosine", "M": 5, "a0": 2.0, "amps": amps, "f": 1.0},
            "mesh_n": 256,
            "nodes": "clenshaw_curtis",
            "strategies": ["gg"],
            "tol": 5.7e-7,
            "max_iter": 400,
            "reference": {"every": 0},
        },
    )
    built = {}

    def traced_after_build(*args, **kwargs):
        built["trace"] = run_strategy(*args, **kwargs)
        tracemalloc.start()
        return built["trace"]

    monkeypatch.setattr(cli, "run_strategy", traced_after_build)
    try:
        assert run_experiment(cfg, outdir=tmp_path / "out") == 0
        write_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    P = built["trace"].interpolant
    assert P.n_points == 1425 and P.surpluses().shape[1] == 257
    assert write_peak < 1e6
    path = tmp_path / "out" / "gg-final-set.json"
    size = path.stat().st_size
    tracemalloc.start()
    try:
        Q = load_interpolant(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(Q.surpluses(), P.surpluses())
    assert load_peak < Q.surpluses().nbytes + 1e6, load_peak


def test_run_past_64_parameters(tmp_path):
    # problem.M above 64 was once refused: fresh points were unravelled into
    # an array with one axis per parameter, and NumPy allows 64
    cfg = write_config(tmp_path, "m65.json", {"problem": {"M": 65, "sigma": 4}, "tol": 1e-3})
    out = tmp_path / "out"
    assert main(["run", cfg, "--outdir", str(out)]) == 0
    P = load_interpolant(out / "gn_envelope-final-set.json")
    assert P.dim == 65 and P.n_points > 1
    Y = np.random.default_rng(5).uniform(-1.0, 1.0, size=(4, 65))
    assert np.all(np.isfinite(P.evaluate(Y)))


def test_run_multiple_strategies(tmp_path):
    cfg = affine_cfg(tmp_path, strategies=["gn_envelope", "gg"], tol=1e-5)
    out = tmp_path / "out"
    assert run_experiment(cfg, outdir=out) == 0
    for name in ("gn_envelope", "gg"):
        assert (out / ("%s-trace.csv" % name)).exists()
        assert (out / ("%s-final-set.json" % name)).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["strategies"]) == {"gn_envelope", "gg"}
    gg = summary["strategies"]["gg"]
    assert gg["post_augmentation_error"] is not None
    assert gg["n_grid"] == gg["n_solves"]


def test_run_names_outputs_by_normalized_strategy(tmp_path):
    cfg = deterministic_cfg(tmp_path, strategies=["GG"])
    out = tmp_path / "out"
    assert run_experiment(cfg, outdir=out) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["gg-final-set.json", "gg-trace.csv", "summary.json"]
    assert json.loads((out / "gg-final-set.json").read_text())["strategy"] == "gg"
    assert list(json.loads((out / "summary.json").read_text())["strategies"]) == ["gg"]


def test_gg_trace_includes_augmentation_row(tmp_path):
    cfg = affine_cfg(tmp_path, strategies=["gg"], tol=1e-5)
    out = tmp_path / "out"
    assert run_experiment(cfg, outdir=out) == 0
    _, rows = read_trace(out / "gg-trace.csv")
    assert len(rows) >= 2
    assert rows[-1]["n_grid"] == rows[-1]["n_solves"]
    assert rows[-1]["total_estimator"] == rows[-2]["total_estimator"]


def test_main_run_error_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["run", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err
    ell = write_config(
        tmp_path,
        "ell.json",
        {"problem": {"family": "constant", "M": 1, "amps": [1.0], "a0": 1.0}},
    )
    assert main(["run", ell, "--outdir", str(tmp_path / "o")]) == 3
    assert "ellipticity" in capsys.readouterr().err.lower()
    assert main(["run"]) == 3


def test_main_print_defaults(capsys):
    assert main(["run", "--print-defaults"]) == 0
    text = capsys.readouterr().out
    data = json.loads(text)
    assert data["mesh_n"] == 256
    assert data["strategies"] == ["gn_envelope"]
    assert "seed" not in data
    # the printed defaults are byte-identical to those the CLI once
    # spelled out itself, before it read them from the section owners
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "fae8cac308413857fb9128960d262a601b3b607470939fef1d4fe85210338726"


def test_defaults_come_from_the_section_owners(tmp_path):
    run = AdaptiveConfig()
    assert DEFAULTS["problem"] == PROBLEM_DEFAULTS
    assert DEFAULTS["mesh_n"] == MESH_N
    assert DEFAULTS["norm"] == {"p": 2, "sup_points_per_dim": 33, "sup_budget": 40000}
    assert NormSpec.from_config(DEFAULTS["norm"]).describe() == NormSpec().describe()
    assert DEFAULTS["strategies"] == [run.strategy]
    assert DEFAULTS["reference"]["quad_order"] == run.reference_quad
    for key in ("nodes", "tol", "max_iter", "max_solves", "dorfler"):
        assert DEFAULTS[key] == getattr(run, key), key
    # a loaded config shares no dict with DEFAULTS, nor DEFAULTS with an owner
    cfg = load_config(write_config(tmp_path, "c.json", {"problem": {"M": 3}}))
    cfg["problem"]["a0"] = cfg["norm"]["p"] = cfg["reference"]["every"] = 0
    assert DEFAULTS["problem"]["a0"] == 2.0 and DEFAULTS["norm"]["p"] == 2
    assert DEFAULTS["reference"]["every"] == "auto"
    assert DEFAULTS["problem"] is not PROBLEM_DEFAULTS


@pytest.mark.parametrize("dim, every", [(2, 1), (3, 5), (5, 0)])
def test_summary_records_resolved_reference_cadence(tmp_path, dim, every):
    # "auto" puts a reference on every row at M <= 2, every 5th up to
    # M = 4, and none past it; summary.json says which
    cfg = write_config(
        tmp_path,
        "auto.json",
        {"problem": {"family": "cosine", "M": dim}, "mesh_n": 16, "tol": 1e-2},
    )
    out = tmp_path / "out"
    assert run_experiment(cfg, outdir=out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["reference"]["every"] == "auto"
    assert summary["reference_every"] == every
    rows = read_trace(out / "gn_envelope-trace.csv")[1]
    due = [int(r["n"]) % every == 0 if every else False for r in rows]
    assert [bool(r["reference_error"]) for r in rows] == due
    # the median taken by hand is statistics.median's, bit for bit
    effs = [float(r["effectivity"]) for r in rows if r["effectivity"]]
    median = summary["strategies"]["gn_envelope"]["effectivity_median"]
    assert median == (statistics.median(effs) if effs else None), len(effs)


def test_reference_every_infeasible_dim(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "m5.json",
        {
            "problem": {"family": "cosine", "M": 5},
            "mesh_n": 32,
            "tol": 1e-1,
            "reference": {"every": 1},
        },
    )
    code = main(["run", cfg, "--outdir", str(tmp_path / "o")])
    assert code == 3
    assert "infeasible for M=5" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_usage_errors_exit_3(tmp_path, capsys):
    cfg = deterministic_cfg(tmp_path)
    usage_errors = (
        ["run", cfg, "--parallelism", "2"],
        ["run", cfg, "--force-reference"],
        ["run", "--nope"],
        ["nodes", "leja", "x"],
    )
    for argv in usage_errors:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "error:" in capsys.readouterr().err
    for argv in (["--help"], ["--version"], ["run", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


def test_removed_config_key_rejected(tmp_path, capsys):
    for key in ("parallelism", "seed"):
        cfg = deterministic_cfg(tmp_path, **{key: 2})
        assert main(["run", cfg, "--outdir", str(tmp_path / "o")]) == 3
        assert "unknown keys %s" % key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _dotted(keys, prefix=""):
    for key, val in sorted(keys.items()):
        if isinstance(val, dict):
            yield from _dotted(val, prefix + key + ".")
        else:
            yield prefix + key


def test_settable_surface_is_pinned(capsys):
    # every config key and run flag a user can set: adding or removing a
    # knob changes this list
    assert list(_dotted(_KNOWN_KEYS)) == [
        "dorfler",
        "max_iter",
        "max_solves",
        "mesh_n",
        "nodes",
        "norm.p",
        "norm.sup_budget",
        "norm.sup_points_per_dim",
        "outdir",
        "problem.M",
        "problem.a0",
        "problem.amps",
        "problem.f",
        "problem.family",
        "problem.floor",
        "problem.gamma",
        "problem.sigma",
        "reference.every",
        "reference.quad_order",
        "strategies",
        "tol",
    ]
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    flags = sorted(set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)))
    assert flags == ["--help", "--outdir", "--print-defaults"]


def test_trace_counts_fresh_and_reused_estimates(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {
            "problem": {"M": 2},
            "mesh_n": 32,
            "tol": 1e-4,
            "strategies": ["gn_envelope", "gg"],
        },
    )
    out = tmp_path / "out"
    assert run_experiment(cfg, outdir=out) == 0
    for strategy in ("gn_envelope", "gg"):
        rows = read_trace(out / ("%s-trace.csv" % strategy))[1]
        fresh = [int(r["estimates_fresh"]) for r in rows]
        reused = [int(r["estimates_reused"]) for r in rows]
        # the first report estimates everything; later ones reuse values
        assert reused[0] == 0 < fresh[0]
        assert sum(reused) > 0
    # the gg augmentation row repeats the stopping report, estimating nothing
    assert fresh[-1] == reused[-1] == 0 < fresh[-2] + reused[-2]


def test_trace_ratio_c_column(tmp_path):
    cfg = write_config(
        tmp_path,
        "c.json",
        {"problem": {"M": 2}, "mesh_n": 32, "tol": 1e-4, "strategies": ["gn_envelope"]},
    )
    out = tmp_path / "out"
    assert run_experiment(cfg, outdir=out) == 0
    rows = read_trace(out / "gn_envelope-trace.csv")[1]
    # the full-margin maximum over the reduced-margin one is at least 1
    assert rows and all(float(r["ratio_c"]) >= 1.0 for r in rows)
    # an infinite ratio (reduced margin all zero) is written as inf
    path = tmp_path / "ratio-trace.csv"
    writer = TraceWriter(path, "0")
    for ratio in (2.5, math.inf):
        writer.write_row(TraceRow(0, "gn_envelope", 1, 1, 1, 0.5, 0.5, ratio_c=ratio))
    writer.close()
    assert [r["ratio_c"] for r in read_trace(path)[1]] == ["2.5", "inf"]


def test_compare_reads_trace_without_ratio_c(tmp_path):
    cfg = affine_cfg(tmp_path, reference={"every": 2})
    out = tmp_path / "out"
    assert run_experiment(cfg, outdir=out) == 0
    new = out / "gn_envelope-trace.csv"
    old = tmp_path / "old" / "gn_envelope-trace.csv"
    old.parent.mkdir()
    # the same trace as written before the ratio_c column existed
    lines = new.read_text().splitlines()
    with old.open("w", newline="") as fh:
        fh.write(lines[0] + "\n")
        w = csv.writer(fh, lineterminator="\n")
        for row in csv.reader(lines[1:]):
            w.writerow(row[:-1])
    assert "ratio_c" not in old.read_text()
    assert compare_report([str(old)]) == compare_report([str(new)])


def test_trace_splits_wall_time(tmp_path):
    cfg = affine_cfg(
        tmp_path, strategies=["gn_envelope", "gg"], tol=1e-5, reference={"every": 2}
    )
    out = tmp_path / "out"
    assert run_experiment(cfg, outdir=out) == 0
    for strategy in ("gn_envelope", "gg"):
        rows = read_trace(out / ("%s-trace.csv" % strategy))[1]
        loop = rows[:-1] if strategy == "gg" else rows
        for r in loop:
            wall, est, ref = (float(r[c]) for c in ("wall_ms", "estimate_ms", "reference_ms"))
            assert est > 0.0 and ref >= 0.0
            assert wall == pytest.approx(est + ref, rel=1e-9, abs=1e-9)
        # a row with a reference error spends time on it
        timed = [float(r["reference_ms"]) for r in loop if r["reference_error"]]
        assert timed and min(timed) > 0.0
    # the gg augmentation row estimates nothing but times its reference,
    # which is all its wall time
    aug = rows[-1]
    assert aug["reference_error"] and float(aug["estimate_ms"]) == 0.0
    assert float(aug["reference_ms"]) > 0.0
    assert float(aug["wall_ms"]) == float(aug["reference_ms"])


def test_compare_reads_trace_without_split_times(tmp_path):
    cfg = affine_cfg(tmp_path, reference={"every": 2})
    out = tmp_path / "out"
    assert run_experiment(cfg, outdir=out) == 0
    new = out / "gn_envelope-trace.csv"
    old = tmp_path / "old" / "gn_envelope-trace.csv"
    old.parent.mkdir()
    # the same trace as written before estimate_ms and reference_ms existed
    lines = new.read_text().splitlines()
    header = next(csv.reader(lines[1:2]))
    keep = [i for i, c in enumerate(header) if c not in ("estimate_ms", "reference_ms")]
    assert len(keep) == len(header) - 2
    with old.open("w", newline="") as fh:
        fh.write(lines[0] + "\n")
        w = csv.writer(fh, lineterminator="\n")
        for row in csv.reader(lines[1:]):
            w.writerow([row[i] for i in keep])
    assert "reference_ms" not in old.read_text()
    assert compare_report([str(old)]) == compare_report([str(new)])


# -- compare command --------------------------------------------------------


def test_compare_joins_on_solves(tmp_path, capsys):
    # a reference every second iteration leaves rows without one
    cfg = affine_cfg(
        tmp_path, strategies=["gn_envelope", "gg"], tol=1e-5, reference={"every": 2}
    )
    out = tmp_path / "out"
    run_experiment(cfg, outdir=out)
    t1 = str(out / "gn_envelope-trace.csv")
    t2 = str(out / "gg-trace.csv")
    header, table = compare_report([t1, t2])
    assert header[0] == "n_solves"
    assert len(header) == 5
    assert header[3:] == ["gg-trace:gg:reference_error", "gg-trace:gg:total_estimator"]
    counts = [int(r[0]) for r in table]
    assert counts == sorted(counts)
    # every trace row fills exactly one line, in trace order, even where
    # rows share a solve count (the gg augmentation row reuses the
    # stopping row's solves); a trace's cells are blank on other lines
    for path, first in ((t1, 1), (t2, 3)):
        rows = read_trace(path)[1]
        want = [[r["n_solves"], r["reference_error"], r["total_estimator"]] for r in rows]
        got = [[row[0]] + row[first : first + 2] for row in table if row[first + 1] != ""]
        assert got == want
    gg_counts = [r["n_solves"] for r in read_trace(t2)[1]]
    assert len(set(gg_counts)) < len(gg_counts)
    assert any(row[3] == "" and row[4] != "" for row in table)
    assert main(["compare", t1, t2]) == 0
    outlines = capsys.readouterr().out.splitlines()
    assert outlines[0].startswith("n_solves,")


def test_compare_rejects_mismatched_problems(tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run_experiment(affine_cfg(tmp_path, tol=1e-3), outdir=out1)
    run_experiment(
        affine_cfg(tmp_path, tol=1e-3, mesh_n=32), outdir=out2
    )
    with pytest.raises(ConfigError, match="different problems"):
        compare_report(
            [str(out1 / "gn_envelope-trace.csv"), str(out2 / "gn_envelope-trace.csv")]
        )


def test_compare_missing_trace_exits_3(tmp_path, capsys):
    # a missing trace once ended in a FileNotFoundError traceback, exit 1
    missing = tmp_path / "missing.csv"
    assert main(["compare", str(missing)]) == 3
    assert "cannot read trace %s" % missing in capsys.readouterr().err
    with pytest.raises(ConfigError, match="cannot read trace"):
        read_trace(missing)


@pytest.mark.parametrize(
    "header, missing",
    [
        ("n,wall_ms", "strategy, n_solves"),
        ("strategy,wall_ms", "n_solves"),
        ("", "strategy, n_solves"),
    ],
    ids=["neither", "no-n_solves", "empty"],
)
def test_compare_trace_without_its_key_columns_exits_3(header, missing, tmp_path, capsys):
    # a hash line without the strategy or n_solves column once ended in a
    # KeyError traceback, exit 1
    path = tmp_path / "t.csv"
    path.write_text("# problem_hash=0123abcd\n" + (header + "\n0,1.5\n" if header else ""))
    assert main(["compare", str(path)]) == 3
    assert "%s: no %s column" % (path, missing) in capsys.readouterr().err
    with pytest.raises(ConfigError, match="no %s column" % missing):
        read_trace(path)


def test_read_trace_requires_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("n,strategy\n0,gg\n")
    with pytest.raises(ConfigError, match="problem_hash"):
        read_trace(path)


# -- nodes command ----------------------------------------------------------


def test_nodes_command(capsys):
    assert main(["nodes", "leja", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index,level,coordinate"
    assert lines[1] == "0,0,-1"
    assert lines[2] == "1,1,1"
    assert lines[3] == "2,2,0"


def test_nodes_command_rejects_negative_count(capsys):
    assert main(["nodes", "leja", "-3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "non-negative" in captured.err


def test_nodes_command_cc_levels(capsys):
    assert main(["nodes", "cc", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    levels = [int(l.split(",")[1]) for l in lines]
    assert levels == [0, 1, 1, 2, 2]


# -- subprocess end to end --------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sparseuq", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_subprocess_nodes():
    res = run_cli("nodes", "rleja", "3")
    assert res.returncode == 0
    assert res.stdout.splitlines()[1] == "0,0,1"


def test_subprocess_run_and_version(tmp_path):
    cfg = deterministic_cfg(tmp_path)
    out = tmp_path / "sub"
    res = run_cli("run", cfg, "--outdir", str(out))
    assert res.returncode == 0, res.stderr
    assert (out / "summary.json").exists()
    res = run_cli("--version")
    assert res.returncode == 0
    assert "sparseuq" in res.stdout


def test_import_leaves_scipy_unloaded():
    code = (
        "import sys, sparseuq; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_import_leaves_run_free_modules_unloaded():
    # argparse, csv, statistics and fractions serve main, read_trace, the
    # run summary and the R-Leja sequence only, none of them on the way
    # from the import to the first solve
    code = (
        "import sys, sparseuq.cli; "
        "print([m for m in ('argparse', 'csv', 'statistics', 'fractions') if m in sys.modules])"
    )
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_run_reaches_the_first_solve_without_run_free_modules(tmp_path):
    # nor does run_experiment import any of them before its strategy loop
    code = (
        "import sys\n"
        "from sparseuq import cli\n"
        "def entered(*args, **kw):\n"
        "    print([m for m in ('argparse', 'csv', 'statistics') if m in sys.modules])\n"
        "    raise SystemExit(0)\n"
        "cli.run_strategy = entered\n"
        "cli.run_experiment(sys.argv[1])\n"
    )
    cfg = deterministic_cfg(tmp_path, outdir=str(tmp_path / "out"))
    res = subprocess.run(
        [sys.executable, "-c", code, cfg], capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_subprocess_selftest():
    res = run_cli("selftest")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "ok:" in res.stdout


def test_selftest_fails_under_optimize_flag():
    # python -O strips assert statements; a broken check must still fail
    code = (
        "import sys\n"
        "from sparseuq import selftest\n"
        "print(__debug__)\n"
        "selftest._euclidean_lp_norm = lambda *args: 0.0\n"
        "sys.exit(selftest.run())\n"
    )
    res = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert res.stdout.splitlines()[0] == "False", res.stdout + res.stderr
    assert res.returncode == 1, res.stdout + res.stderr
    assert "FAIL: parametric norms" in res.stdout
    assert "1 of 6 checks failed" in res.stdout
