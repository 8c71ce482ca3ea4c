"""Shared builders for synthetic fusion instances used across test modules."""

import numpy as np
from hypothesis import strategies as st

from datafuse import (
    FunctionalDescriptor,
    FunctionalFit,
    FunctionalKind,
    FusionInputs,
    validate_summary,
)


def centered(rng, n, k):
    """Random n x k matrix with exactly mean-zero columns."""
    a = rng.standard_normal((n, k))
    return a - a.mean(axis=0)


def random_spd(rng, q, jitter=0.5):
    w = rng.standard_normal((q, q))
    return w @ w.T + jitter * np.eye(q)


def mean_binding(q, prefix="c"):
    return tuple(
        FunctionalDescriptor(FunctionalKind.MEAN, {"column": f"{prefix}{j}"})
        for j in range(q)
    )


def synth_inputs(rng, n, p, q, splits=None, m_range=(50, 400)):
    """Synthetic FusionInputs with random influence columns and summaries.

    splits optionally partitions the q summary coordinates into several
    sources (a list of block widths summing to q).
    """
    tau_fit = FunctionalFit(rng.standard_normal(p), centered(rng, n, p), label="tau")
    beta_fit = FunctionalFit(rng.standard_normal(q), centered(rng, n, q), label="beta")
    splits = [q] if splits is None else list(splits)
    assert sum(splits) == q
    summaries = []
    at = 0
    for idx, qb in enumerate(splits):
        summaries.append(
            validate_summary(
                rng.standard_normal(qb),
                random_spd(rng, qb),
                int(rng.integers(*m_range)),
                mean_binding(qb, prefix=f"s{idx}_"),
                source_id=f"synthetic-{idx}",
            )
        )
        at += qb
    return FusionInputs(tau_fit=tau_fit, beta_fit=beta_fit, summaries=tuple(summaries))


# Cells that float() and np.loadtxt may read differently: quotes, whitespace
# of every kind (float() strips only ASCII whitespace, loadtxt any Unicode
# whitespace), underscores, non-finite spellings, empty cells, a BOM,
# non-ASCII digits and separators that are line breaks only for some readers.
CSV_ODD_CELLS = (
    "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "+infinity", "1e500", "-1e-400",
    "1_0", "1_000.5", " 1.5 ", "\t2", "1\u2003", "\u20031", "1\xa0", "1\x85", "1\x0c",
    "1\x1c", "\x1d1", "1\x1e", "1\x1f", "1\u3000", "\u205f1",
    "", " ", '"1.5"', '"1,5"', '"', "0x10", "\u0661", "+.5", "5.", "-0", "--1", "1d5",
    "1e", "\ufeff1", "#1", "1 2", "1\x00", "1\x0b", "1\u2028", "True",
)


@st.composite
def csv_files(draw, names=("X", "Y", "T"), max_rows=6):
    """Bytes of a small CSV: a header of `names` (sometimes altered) and rows
    of numbers in several spellings, with up to two odd cells, odd widths and
    blank lines mixed in; \n, \r\n or \r line ends (sometimes mixed), with
    or without a final one, sometimes a BOM or a byte that is not UTF-8."""
    header = list(names)
    if draw(st.integers(0, 4)) == 0:
        header = draw(st.lists(st.sampled_from(["X", "Y", "T", " X", "", "a b", '"Q"', '"a,b"']), max_size=4))
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(-1e3, 1e3).map(lambda v: "%.17g" % v),
        st.integers(-(10**20), 10**20).map(str),
        st.sampled_from(["0", "1", "0.0", "1.0"]),
    )
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.integers(0, 11))
        width = len(header) if kind > 1 else draw(st.integers(0, len(header) + 1))
        rows.append([] if kind == 0 else [draw(number) for _ in range(width)])
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.integers(0, len(rows))) if rows else 0
        if row < len(rows) and rows[row]:
            rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(st.sampled_from(CSV_ODD_CELLS))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    mixed = draw(st.integers(0, 5)) == 0
    text = ",".join(header)
    for row in rows:
        text += (draw(st.sampled_from(["\n", "\r\n", "\r"])) if mixed else eol) + ",".join(row)
    text += draw(st.sampled_from(["", eol, eol, eol + eol]))
    if draw(st.integers(0, 9)) == 0:
        text = "\ufeff" + text
    raw = text.encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw
