"""The same-outputs matrix (same_outputs.py) against its committed table:
marked indices and solve counts exactly, estimator values and reference
errors to roundoff."""

import math

from same_outputs import HEADER, read_table, run_matrix

# the run, row, marked indices, index and solve counts
EXACT = HEADER.index("total_estimator")
# total, largest estimator and reference error may move by roundoff on
# another BLAS build or CPU, never by more
RTOL = 1e-12


def _close(got, want):
    if "None" in (got, want):
        return got == want
    return math.isclose(float(got), float(want), rel_tol=RTOL, abs_tol=0.0)


def differences(got, want):
    """Line pairs of got and want that differ, in table order; a row
    count that differs comes first."""
    out = []
    if len(got) != len(want):
        out.append("%d rows, the table has %d" % (len(got), len(want)))
    for g, w in zip(got, want):
        if g[:EXACT] != w[:EXACT] or not all(map(_close, g[EXACT:], w[EXACT:])):
            out.append("got  %s\nwant %s" % ("\t".join(g), "\t".join(w)))
    return out


def test_differences_sees_each_kind_of_change():
    line = ("gg", "leja", "2", "1", "0", "(0)", "1", "1", "0.5", "0.5", "None")
    assert differences([line], [line]) == []
    assert differences([line[:8] + ("0.5000000000001", "0.5", "None")], [line]) == []
    for changed in (
        line[:5] + ("(1)",) + line[6:],
        line[:7] + ("2",) + line[8:],
        line[:8] + ("0.50000000001", "0.5", "None"),
        line[:10] + ("0.1",),
    ):
        assert len(differences([changed], [line])) == 1
    assert differences([], [line]) == ["0 rows, the table has 1"]


def test_same_outputs_as_the_committed_table():
    diff = differences(run_matrix(), read_table())
    assert not diff, "\n".join(
        diff[:5]
        + [
            "%d lines differ; if the change is meant, regenerate the table with"
            " `PYTHONPATH=src python tests/same_outputs.py`" % len(diff)
        ]
    )
