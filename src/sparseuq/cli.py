"""Configuration-driven experiment runner.

Subcommands:

* ``run config.json``: build the configured problem, run each requested
  strategy, and write per-strategy trace CSVs, final-set JSON snapshots
  and a summary.json into the output directory.  The config alone sets
  the run, including the reference-error cadence (``reference.every``).
  A trace's columns are the fields of adaptive.TraceRow.  Each row is
  written as the run appends it, or with a reference cadence right after
  the run's one reference pass, and summary.json records that cadence as
  resolved (``reference_every``).  A final set is written and reloaded
  one point record at a time (write_final_set, load_interpolant); its
  bytes are json.dumps of the whole snapshot, followed by a newline, and
  the reload holds one fixed-size window of its text and one record
  besides the surrogate's own buffers.
* ``compare trace.csv ...``: align traces of the same problem on the
  cumulative solve count, emitting a plot-ready table with a reference
  error and an estimator column per trace.
* ``nodes kind n``: dump the first n nodes of a family.
* ``selftest``: fast built-in consistency checks.

Exit codes: 0 success, 2 when any run stopped on a budget instead of
the tolerance, 3 for usage, configuration or ellipticity errors.
"""

import dataclasses
import hashlib
import itertools
import json
import logging
import math
import re
import sys
from pathlib import Path

# argparse, csv and statistics are imported where they are used (main,
# read_trace, the run summary): none is on the way from the import to the
# first solve

from . import __version__
from .adaptive import AdaptiveConfig, TraceRow, run_strategy
from .estimators import MAX_REFERENCE_DIM, NormSpec, check_reference_dim, sup_points_per_dim
from .fem import (
    MESH_N,
    PROBLEM_DEFAULTS,
    PROBLEM_KEYS,
    SpatialDiscretization,
    build_problem,
    check_ellipticity,
    check_keys,
    config_mapping,
    config_number,
)
from .interp import SparseInterpolant
from .nodes import get_family, growth_inverse, normalize_kind

log = logging.getLogger("sparseuq.cli")


def _field_defaults(owner):
    return {f.name: f.default for f in dataclasses.fields(owner)}


_RUN_DEFAULTS = _field_defaults(AdaptiveConfig)
# each section's defaults come from its owner: build_problem's
# PROBLEM_DEFAULTS, SpatialDiscretization's MESH_N, NormSpec's and
# AdaptiveConfig's fields; the CLI adds only the strategies list, the
# "auto" reference cadence and outdir
DEFAULTS = {
    "problem": dict(PROBLEM_DEFAULTS),
    "mesh_n": MESH_N,
    "nodes": _RUN_DEFAULTS["nodes"],
    "norm": _field_defaults(NormSpec),
    "strategies": [_RUN_DEFAULTS["strategy"]],
    "tol": _RUN_DEFAULTS["tol"],
    "max_iter": _RUN_DEFAULTS["max_iter"],
    "max_solves": _RUN_DEFAULTS["max_solves"],
    "reference": {"quad_order": _RUN_DEFAULTS["reference_quad"], "every": "auto"},
    "dorfler": _RUN_DEFAULTS["dorfler"],
    "outdir": "results",
}
# every key a config may set: the defaults, plus explicit problem amplitudes
_KNOWN_KEYS = dict(DEFAULTS, problem=PROBLEM_KEYS)

TRACE_COLUMNS = tuple(f.name for f in dataclasses.fields(TraceRow))

# per-trace columns of the compare table; errors and estimators never share one
COMPARE_COLUMNS = ("reference_error", "total_estimator")


class ConfigError(ValueError):
    pass


def load_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc))
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            "config %s: line %d column %d: %s" % (path, exc.lineno, exc.colno, exc.msg)
        )
    if not isinstance(data, dict):
        raise ConfigError("config %s: top level must be a JSON object" % path)
    try:
        check_keys(data, _KNOWN_KEYS)
    except ValueError as exc:
        raise ConfigError("config %s: %s" % (path, exc)) from None
    # DEFAULTS updated section by section, each section a new dict
    cfg = {}
    for key, val in DEFAULTS.items():
        given = data.get(key, val)
        cfg[key] = {**val, **given} if isinstance(val, dict) and isinstance(given, dict) else given
    return cfg


def problem_hash(cfg):
    """Stable hash of everything that defines the measured truth."""
    block = {
        "problem": cfg["problem"],
        "mesh_n": cfg["mesh_n"],
        "nodes": normalize_kind(cfg["nodes"]),
        "norm": NormSpec.from_config(cfg["norm"]).describe(),
    }
    canon = json.dumps(block, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


class TraceWriter:
    """Streams rows so the CSV is valid after a crash at any boundary."""

    def __init__(self, path, phash):
        self.path = Path(path)
        self.fh = self.path.open("w", newline="")
        self.fh.write("# problem_hash=%s\n" % phash)
        self.fh.write(",".join(TRACE_COLUMNS) + "\n")
        self.fh.flush()

    def write_row(self, row):
        self.fh.write(",".join(_fmt(getattr(row, c)) for c in TRACE_COLUMNS) + "\n")
        self.fh.flush()

    def close(self):
        self.fh.close()


def _reference_cadence(cfg, dim):
    every = config_mapping("reference", cfg["reference"])["every"]
    if every == "auto":
        if dim <= 2:
            return 1
        if dim <= MAX_REFERENCE_DIM:
            return 5
        return 0
    every = config_number("reference.every", every, int)
    if every < 0:
        raise ConfigError('reference.every must be at least 0 or "auto", got %d' % every)
    if every > 0:
        check_reference_dim(dim)
    return every


def run_experiment(config_path, outdir=None):
    """Run every configured strategy; returns the process exit code."""
    cfg = load_config(config_path)
    if outdir is not None:
        cfg["outdir"] = str(outdir)
    problem = build_problem(cfg["problem"])
    disc = SpatialDiscretization(problem, cfg["mesh_n"])
    info = check_ellipticity(problem, disc)
    phash = problem_hash(cfg)
    every = _reference_cadence(cfg, problem.dim)
    strategies = cfg["strategies"]
    if isinstance(strategies, str):
        strategies = [strategies]
    if not isinstance(strategies, list):
        raise ConfigError("strategies must be a name or a list, got %r" % (strategies,))
    if not strategies:
        raise ConfigError("strategies list is empty")
    quad = config_number("reference.quad_order", cfg["reference"]["quad_order"], int)
    if quad < 1:
        raise ConfigError("reference.quad_order must be at least 1, got %d" % quad)
    # the run settings the config names as AdaptiveConfig does (nodes,
    # norm, tol, ...); every strategy's are checked before any file is written
    run = {key: cfg[key] for key in _RUN_DEFAULTS.keys() & cfg.keys()}
    configs = [
        AdaptiveConfig(strategy=strategy, reference_every=every, reference_quad=quad, **run)
        for strategy in strategies
    ]
    # the strategies share one norm; a p = inf grid too coarse is refused here
    if configs[0].norm.p == math.inf:
        sup_points_per_dim(configs[0].norm, problem.dim)
    # files and summary entries are named by the normalized strategy
    names = [acfg.strategy for acfg in configs]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError("strategy %r appears more than once in strategies" % name)
    if not isinstance(cfg["outdir"], str):
        raise ConfigError("outdir must be a path, got %r" % (cfg["outdir"],))
    out = Path(cfg["outdir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("cannot create outdir %s: %s" % (out, exc))
    log.info(
        "problem %s: M=%d a_min=%.6g a_max=%.6g alpha=%.6g",
        phash,
        problem.dim,
        info["a_min"],
        info["a_max"],
        info["alpha"],
    )
    import statistics

    exit_code = 0
    summary = {
        "problem_hash": phash,
        "ellipticity": info,
        "config": cfg,
        "reference_every": every,
        "strategies": {},
    }
    for acfg in configs:
        strategy = acfg.strategy
        writer = TraceWriter(out / ("%s-trace.csv" % strategy), phash)
        try:
            trace = run_strategy(problem, disc, acfg, on_row=writer.write_row)
        finally:
            writer.close()
        header = {"problem_hash": phash, "strategy": strategy, "a_min": info["a_min"]}
        write_final_set(out / ("%s-final-set.json" % strategy), header, trace.interpolant)
        effs = [r.effectivity for r in trace.rows if r.effectivity is not None]
        last = trace.rows[-1]
        summary["strategies"][strategy] = {
            "iterations": len(trace.rows),
            "stop_reason": trace.stop_reason,
            "budget_exhausted": trace.budget_exhausted,
            "n_indices": last.n_indices,
            "n_grid": last.n_grid,
            "n_solves": last.n_solves,
            "total_estimator": last.total_estimator,
            "reference_error": last.reference_error,
            "pre_augmentation_error": trace.pre_augmentation_error,
            "post_augmentation_error": trace.post_augmentation_error,
            "effectivity_min": min(effs) if effs else None,
            "effectivity_median": statistics.median(effs) if effs else None,
            "wall_ms_total": sum(r.wall_ms for r in trace.rows),
        }
        if trace.budget_exhausted:
            exit_code = 2
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return exit_code


def write_final_set(path, header, P):
    """Write json.dumps(dict(header, interpolant=P.to_jsonable())) + "\n"
    to path, one point record at a time.

    The text up to the "points" list, which ends the snapshot, is
    json.dumps of the header with the points left out; each record of
    P.point_records follows as json.dumps of it, with the ", " separator
    json.dumps puts between list items.  So the bytes are the whole
    snapshot's, and no more than one record is formed at a time.
    """
    head = json.dumps(dict(header, interpolant=P.to_jsonable(points=False)))
    if not head.endswith("[]}}"):
        raise ValueError("the points list must end the snapshot of %s" % path)
    with Path(path).open("w") as fh:
        fh.write(head[:-3])
        for n, rec in enumerate(P.point_records()):
            fh.write(", " + json.dumps(rec) if n else json.dumps(rec))
        fh.write("]}}\n")


# characters of a final set read at a time while it is reloaded
_CHUNK = 1 << 16
_SPACE = re.compile(r"[ \t\n\r]*")
# "" (the window's end) and the characters that can go on a JSON number
_NUMBER_GOES_ON = frozenset(("", *"+-.0123456789Ee"))
# len("-Infinity"): where the JSON decoder reports a failure, it has read
# at most this many characters on, except through a string, which it
# reports as unterminated
_LONGEST_TOKEN = 9


class _Window:
    """A forward-only window on a JSON text file, decoded one value at a
    time: it holds the unread rest of the last chunk read, plus whatever
    value is being decoded, never the whole file."""

    def __init__(self, fh, path):
        self.fh, self.path = fh, path
        self.decoder = json.JSONDecoder()
        self.text, self.pos, self.offset = "", 0, 0

    def _more(self):
        """Read the next chunk behind the unread text; False at the file's end."""
        chunk = self.fh.read(_CHUNK)
        self.offset += self.pos
        self.text, self.pos = self.text[self.pos :] + chunk, 0
        return bool(chunk)

    def error(self, what, pos=None):
        at = self.offset + (self.pos if pos is None else pos)
        return ValueError("final set %s: %s at character %d" % (self.path, what, at))

    def peek(self):
        """The next character past whitespace, "" at the file's end."""
        while True:
            self.pos = _SPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or not self._more():
                return self.text[self.pos : self.pos + 1]

    def take(self, char):
        """Read char if it comes next past whitespace."""
        found = self.peek() == char
        self.pos += found
        return found

    def expect(self, chars, what):
        char = self.peek()
        if not char or char not in chars:
            raise self.error("expected %s" % what)
        self.pos += 1
        return char

    def value(self):
        """Decode the next JSON value, again with the next chunk read
        behind it while it may go on past the window's end.  A cut
        string, literal, object or list fails to decode, with an
        unterminated string or at most _LONGEST_TOKEN characters before
        the window's end; a failure anywhere else is the file's, and is
        raised without reading on.  A cut number decodes as a shorter one
        ("1.5" of "1.53e-7"), so a value that the window's end or a
        character that can go on a number follows is decoded again."""
        self.peek()
        while True:
            try:
                obj, end = self.decoder.raw_decode(self.text, self.pos)
            except json.JSONDecodeError as exc:
                cut = exc.msg.startswith("Unterminated string")
                if (cut or len(self.text) - exc.pos <= _LONGEST_TOKEN) and self._more():
                    continue
                raise self.error(exc.msg, exc.pos) from None
            if self.text[end : end + 1] not in _NUMBER_GOES_ON or not self._more():
                self.pos = end
                return obj

    def members_until(self, name):
        """Read the members of the object that opens next, up to the one
        called name, whose ':' is read so that its value comes next.
        Returns the members before it, and whether it was found before
        the object closed."""
        self.expect("{", "'{'")
        members = {}
        closed = self.take("}")
        while not closed:
            if self.peek() != '"':
                raise self.error("expected a member name")
            key = self.value()
            self.expect(":", "':'")
            if key == name:
                return members, True
            members[key] = self.value()
            closed = self.expect(",}", "',' or '}'") == "}"
        return members, False

    def point_records(self):
        """The records of the points list whose '[' was read, one decoded
        object at a time; then the '}}' that close the interpolant and the
        snapshot, and nothing but whitespace after them."""
        done = self.take("]")
        while not done:
            if self.peek() != "{":
                raise self.error("expected a point record")
            yield self.value()
            done = self.expect(",]", "',' or ']'") == "]"
        for closes in ("the interpolant", "the snapshot"):
            self.expect("}", "'}' closing %s, which \"points\" must end" % closes)
        if self.peek():
            raise self.error("trailing text")


def load_interpolant(path):
    """Reload a final-set snapshot written by write_final_set.

    The file is read in _CHUNK-character chunks.  Its members before the
    "points" list are decoded with json; then the point records are
    decoded one at a time (JSONDecoder.raw_decode over the window, again
    with the next chunk behind it when a record runs past the window's
    end) and handed to SparseInterpolant.from_jsonable as a generator,
    which makes each record's surplus a float64 row as it arrives and
    writes it into the surplus buffer, so the reload holds one record and
    the surrogate's own buffers, never the file's text.  The layout is
    write_final_set's: "points" is the last member of "interpolant",
    which is the last of the snapshot, with any whitespace and separators
    json.dumps makes.  Any other layout, a truncated file or trailing
    text raises ValueError, as does every check of from_jsonable (a
    record without "j" or "surplus", or a bad surplus, names the first
    such record).
    """
    with Path(path).open() as fh:
        window = _Window(fh, path)
        if not window.members_until("interpolant")[1]:
            raise ValueError('final set %s has no "interpolant"' % path)
        data, found = window.members_until("points")
        if found:
            window.expect("[", "'[' opening \"points\"")
            data["points"] = window.point_records()
        return SparseInterpolant.from_jsonable(data)


def read_trace(path):
    import csv

    path = Path(path)
    try:
        fh = path.open()
    except OSError as exc:
        raise ConfigError("cannot read trace %s: %s" % (path, exc))
    with fh:
        first = fh.readline()
        if not first.startswith("# problem_hash="):
            raise ConfigError("%s: missing problem_hash header" % path)
        phash = first.strip().split("=", 1)[1]
        reader = csv.DictReader(fh)
        # compare cannot do without these; a trace missing another column
        # (one older than ratio_c, say) leaves its cells blank
        missing = [c for c in ("strategy", "n_solves") if c not in (reader.fieldnames or ())]
        if missing:
            raise ConfigError("%s: no %s column" % (path, ", ".join(missing)))
        rows = list(reader)
    return phash, rows


def compare_report(paths):
    """Join traces on cumulative solves; returns (header, table rows).

    Rows of one trace that share a solve count go on successive lines in
    trace order: the j-th line at a count pairs each trace's j-th row at
    that count and is blank where a trace has fewer rows there.
    """
    if not paths:
        raise ConfigError("at least one trace file is required")
    traces = []
    hashes = set()
    for path in paths:
        phash, rows = read_trace(path)
        hashes.add(phash)
        label = "%s:%s" % (Path(path).stem, rows[0]["strategy"] if rows else "?")
        traces.append((label, rows))
    if len(hashes) > 1:
        raise ConfigError(
            "traces describe different problems (hashes %s)" % ", ".join(sorted(hashes))
        )
    header = ["n_solves"]
    per_trace = []
    for label, rows in traces:
        header += [label + ":" + col for col in COMPARE_COLUMNS]
        m = {}
        for row in rows:
            cells = [row.get(col) or "" for col in COMPARE_COLUMNS]
            m.setdefault(int(row["n_solves"]), []).append(cells)
        per_trace.append(m)
    blank = [""] * len(COMPARE_COLUMNS)
    table = []
    for c in sorted(set().union(*per_trace)):
        at = [m.get(c, ()) for m in per_trace]
        for line in itertools.zip_longest(*at, fillvalue=blank):
            table.append([str(c)] + [cell for cells in line for cell in cells])
    return header, table


def _cmd_run(args):
    if args.print_defaults:
        print(json.dumps(DEFAULTS, indent=2))
        return 0
    if args.config is None:
        print("error: a config file is required unless --print-defaults", file=sys.stderr)
        return 3
    return run_experiment(args.config, outdir=args.outdir)


def _cmd_compare(args):
    header, table = compare_report(args.traces)
    print(",".join(header))
    for row in table:
        print(",".join(row))
    widths = [max(len(h), max((len(r[i]) for r in table), default=0)) for i, h in enumerate(header)]
    fmt = "  ".join("%%-%ds" % w for w in widths)
    print(fmt % tuple(header), file=sys.stderr)
    for row in table:
        print(fmt % tuple(row), file=sys.stderr)
    return 0


def _cmd_nodes(args):
    kind = normalize_kind(args.kind)
    fam = get_family(kind)
    pts = fam.nodes(args.count)
    print("index,level,coordinate")
    for idx, y in enumerate(pts):
        print("%d,%d,%s" % (idx, growth_inverse(kind, idx), _fmt(float(y))))
    return 0


def _cmd_selftest(args):
    from . import selftest

    return selftest.run()


def main(argv=None):
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Usage errors exit 3 like configuration errors; 2 means a budget stop."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(3, "%s: error: %s\n" % (self.prog, message))

    parser = _Parser(
        prog="sparseuq",
        description="Adaptive sparse-grid collocation for parametric diffusion.",
    )
    parser.add_argument("--version", action="version", version="sparseuq %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the strategies of a config file")
    p_run.add_argument("config", nargs="?", help="JSON experiment config")
    p_run.add_argument("--outdir", default=None, help="output directory override")
    p_run.add_argument(
        "--print-defaults", action="store_true", help="print the default config and exit"
    )
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare", help="align traces on the solve count")
    p_cmp.add_argument("traces", nargs="+", help="trace CSV files")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_nodes = sub.add_parser("nodes", help="dump a node table")
    p_nodes.add_argument("kind", help="leja | rleja | clenshaw_curtis")
    p_nodes.add_argument("count", type=int, help="number of nodes")
    p_nodes.set_defaults(fn=_cmd_nodes)

    p_self = sub.add_parser("selftest", help="fast internal consistency checks")
    p_self.set_defaults(fn=_cmd_selftest)

    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(message)s"
    )
    try:
        return args.fn(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
