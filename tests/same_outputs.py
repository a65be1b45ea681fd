"""The "same outputs" matrix: 72 small runs whose marked indices, solve
counts and estimator values a change that keeps behaviour must keep.

3 strategies x Leja, R-Leja, CC x p in {2, inf} x M in {1, 2, 3, 5}, on
the default cosine problem with mesh 48 and tol 1e-4, and a reference
error on every row at M <= 3 (none at M = 5, past the tensor-grid
limit).  The committed table same_outputs.tsv holds one line per trace
row: the run, the row number, the indices marked since the row before
(in the order they were added, the gg augmentation row included), the
index and solve counts, and the total estimator, largest estimator and
reference error as repr floats.  test_same_outputs.py re-runs the
matrix and compares.  A change that alters behaviour on purpose
regenerates the table with

    PYTHONPATH=src python tests/same_outputs.py

and says which entries moved.
"""

import itertools
from pathlib import Path

from sparseuq.adaptive import STRATEGIES, AdaptiveConfig, run_strategy
from sparseuq.fem import SpatialDiscretization, build_problem

TABLE = Path(__file__).with_name("same_outputs.tsv")
NODES = ("leja", "rleja", "clenshaw_curtis")
NORMS = ("2", "inf")
DIMS = (1, 2, 3, 5)
MESH_N = 48
TOL = 1e-4
HEADER = (
    "strategy",
    "nodes",
    "p",
    "M",
    "n",
    "marked",
    "n_indices",
    "n_solves",
    "total_estimator",
    "max_estimator",
    "reference_error",
)


def _spell(k):
    return "(%s)" % ",".join(map(str, k))


def run_matrix():
    """The table's lines as tuples of strings, in table order."""
    lines = []
    for M in DIMS:
        problem = build_problem({"M": M})
        disc = SpatialDiscretization(problem, MESH_N)
        for strategy, nodes, p in itertools.product(STRATEGIES, NODES, NORMS):
            config = AdaptiveConfig(
                strategy=strategy,
                nodes=nodes,
                norm={"p": p},
                tol=TOL,
                reference_every=1 if M <= 3 else 0,
            )
            trace = run_strategy(problem, disc, config)
            P = trace.interpolant
            # each index's points follow those of every index added before it
            added = sorted(P.indexset, key=lambda k: P.block_of(k)[0])
            seen = 0
            for row in trace.rows:
                marked = added[seen : row.n_indices]
                seen = row.n_indices
                lines.append(
                    (strategy, nodes, p, str(M), str(row.n), ";".join(map(_spell, marked)))
                    + (str(row.n_indices), str(row.n_solves))
                    + tuple(
                        repr(v)
                        for v in (row.total_estimator, row.max_estimator, row.reference_error)
                    )
                )
    return lines


def read_table(path=TABLE):
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    if tuple(rows[0]) != HEADER:
        raise ValueError("%s: unexpected header %r" % (path, rows[0]))
    return [tuple(row) for row in rows[1:]]


def write_table(lines, path=TABLE):
    path.write_text("".join("\t".join(line) + "\n" for line in [HEADER] + lines))


if __name__ == "__main__":
    lines = run_matrix()
    write_table(lines)
    print("wrote %d rows to %s" % (len(lines), TABLE))
