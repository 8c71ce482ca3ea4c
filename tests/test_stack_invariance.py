"""Every batched entry point of datafuse against the same call on each slice
of its stack alone, from one table (ROWS). A row draws 1-5 lone calls of
one shape, stacks them as a caller does, and runs its entry points on the
stack and on each slice alone (as drawn if `unbatched`, else as the stack of
one): each slice's result must equal the lone one by dtype, shape and bytes
(helpers.assert_same_bits), and errors must match by class and message,
under the entry point's rule (_check): `first`, the stack raises the first
failing slice's error after the slices' warnings in order; `any`, a
lockstep kernel raises one of its slices' errors, else warns as they do as
a multiset; `replay`, the stack raises or warns whenever a slice would
alone (which sim._run_chunk's and debias._tune's replays depend on), else
gives each slice its lone result. numpy's RuntimeWarnings come once per
operation, on a stack as on one slice, and are not compared. A row's draws
must reach the outcomes it names (_heads, "mixed" for failing and passing
slices in one stack, the row's tags and what its entries' checks return).
An entry's check also asserts what the lone calls must give: inv_sqrt_spd
fails exactly on an indefinite or NaN matrix, a result's se and warnings
are those of its avar and note, and the fold sums are those built one input
at a time. Rows may add `explicit` stacks that draws rarely make, such as
_Moments slices next to its thresholds beside ordinary ones. Each row runs once (reached), also for the tests of
test_stacked_newton, test_stacked_ols and test_cv_folds that read its run."""

import functools
import importlib
import re
import warnings
from collections import Counter, namedtuple
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    FOLD_BINDINGS, FOLD_TARGETS, JOINT, PREPARE_BINDINGS, PREPARE_TAUS, assert_same_bits, fuzz_rng,
    pick, random_spd, stack_of_one, synth_inputs, xz_dataset, xz_summary,
)

from datafuse import (
    DebiasConfig,
    FunctionalKind,
    Method,
    ScenarioConfig,
    debias,
    functionals,
    kfold_indices,
    prepare_inputs,
    validate_dataset,
    validate_summary,
)
from datafuse._linalg import logistic, sym
from datafuse.errors import DataFuseError, NotPositiveDefinite, SingularCalibration
from datafuse.fusion import _Calibration
from datafuse.sim import SCENARIOS, gen_scenario1

SEEDS = st.integers(0, 2**32 - 1)


def _matrix(rng, q, kind):
    """A symmetric q x q matrix V diag(lam) V': well conditioned ("plain"),
    with lam_min / lam_max far below 1 / COND_LIMIT or zero ("ridge"), with
    an eigenvalue of -lam_max ("indefinite"), or holding a NaN ("nan")."""
    v = np.linalg.qr(rng.standard_normal((q, q)))[0]
    lam = rng.uniform(0.5, 2.0, q) * 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "ridge":
        lam[0] = lam.max() * rng.choice([0.0, 1e-14, 1e-17])
    elif kind == "indefinite":
        lam[0] = -lam.max()
    a = (v * lam) @ v.T
    if kind == "nan":
        a[0, 0] = np.nan
    return a


@st.composite
def _stacks(draw, nan=False):
    """(rng, k matrices of one q x q shape, their kinds): k and q in 1..5,
    each matrix plain or ridged, at most one indefinite and, with `nan`, at
    most one holding a NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, q = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(["plain", "ridge"]), min_size=k, max_size=k))
    for kind in ("indefinite", "nan") if nan else ("indefinite",):
        at = draw(st.none() | st.integers(0, k - 1))
        if at is not None:
            kinds[at] = kind
    return rng, np.array([_matrix(rng, q, kind) for kind in kinds]), kinds


@st.composite
def _systems(draw):
    """spd_solve's (a, b) per slice, b a vector or a two-column matrix."""
    rng, a, kinds = draw(_stacks(nan=True))
    b = rng.standard_normal(a.shape[:2] if draw(st.booleans()) else a.shape[:2] + (2,))
    return list(zip(a, b)), set(kinds)


def _fails_on_indefinite_or_nan(lone, tags, alone):
    """inv_sqrt_spd fails on a stack exactly when one of its matrices is
    indefinite or holds a NaN."""
    assert all(o.error is None for o in alone) == (tags <= {"plain", "ridge"}), tags
    return set()


def _calibrations(rng, gram, p):
    """A stack of calibrations on the matrices `gram`, about half of them
    with zero external covariance, so that a gram that needs the ridge makes
    a fused system that needs it."""
    k, q = gram.shape[:2]
    phi = rng.standard_normal((k, p, p))
    sigma_ext = np.array([_matrix(rng, q, "plain") * rng.choice([0.0, 1.0]) for _ in range(k)])
    return _Calibration(
        tau=rng.standard_normal((k, p)),
        phi_var=phi @ phi.swapaxes(1, 2),
        cross=rng.standard_normal((k, p, q)),
        gram=gram,
        residual=rng.standard_normal((k, q)),
        sigma_ext=sigma_ext,
    )


@st.composite
def _calibration_cases(draw):
    """(calibration, kept coordinates) per slice, the coordinates shared."""
    rng, gram, kinds = draw(_stacks())
    calib = _calibrations(rng, gram, draw(st.integers(1, 3)))
    keep = draw(st.lists(st.integers(0, gram.shape[1] - 1), unique=True).map(sorted))
    return [(calib[i], keep) for i in range(len(gram))], set(kinds)


# a drawn design's mode; the modes that raise are drawn about a third of the time
DESIGN_MODES = ("well",) * 5 + ("ill",) * 2 + ("zero", "collinear", "near")


def _design_stack(seed, size):
    """(design (size, n, k), y (size, n), modes): one row count n of 1-400
    and one width k of 1-4 for the stack, the designs views of one
    column-major buffer as functionals._joint_design builds them, each with
    an intercept column first and drawn by one of DESIGN_MODES: well is
    standard normal, ill has its columns scaled by 1e-8 to 1e8, zero has a
    zero column, collinear repeats a column times 2, near adds 1e-13 noise
    to such a copy. About one stack in eight has fewer rows than columns."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    if k > 1 and rng.random() < 0.125:
        n = int(rng.integers(1, k))
    else:
        n = max(k, int(np.exp(rng.uniform(np.log(2), np.log(401)))))
    columns = np.empty((size, k, n))
    columns[:, 0] = 1.0
    modes = []
    for b in range(size):
        mode = pick(rng, DESIGN_MODES) if k > 1 else "well"
        columns[b, 1:] = rng.standard_normal((k - 1, n))
        if mode == "ill":
            columns[b] *= 10.0 ** rng.uniform(-8, 8, size=(k, 1))
        elif mode == "zero":
            columns[b, rng.integers(1, k)] = 0.0
        elif mode in ("collinear", "near"):
            a, c = rng.choice(k, size=2, replace=False)
            columns[b, c] = 2.0 * columns[b, a]
            if mode == "near":
                columns[b, c] += 1e-13 * rng.standard_normal(n)
        modes.append(mode)
    y = rng.standard_normal((size, n)) * pick(rng, (1e-3, 1.0, 1e3))
    return columns.swapaxes(1, 2), y, modes


@st.composite
def _design_cases(draw, with_y=True):
    design, y, modes = _design_stack(draw(SEEDS), draw(st.integers(1, 5)))
    tags = set(modes) | ({"rows < columns"} if design.shape[1] < design.shape[2] else set())
    return [(d, t) if with_y else (d,) for d, t in zip(design, y)], tags


def _ill_and_full_rank(lone, tags, alone):
    ok = all(o.error is None for o in alone)
    return {"ill-scaled and full rank"} if "ill" in tags and ok else set()


# a drawn fit's mode; the modes that raise are drawn about a fifth of the time
NEWTON_MODES = ("logistic",) * 6 + ("far_start", "warm", "slow") * 2 + (
    "complete", "pinned_probe", "one_class", "rare", "collinear",
)
# LOGISTIC_MAX_ITER for a stack: small caps stop some fits there, not others
CAPS = (100, 100, 3, 5, 8)


def _newton_stack(seed, fits):
    """(design (fits, n, k), y (fits, n), start (fits, k) or None): one
    row count n of 6-400 and one width k of 1-3 for the stack, each design
    a view of one column-major buffer as functionals._joint_design builds
    it, and each fit drawn by one of NEWTON_MODES, with covariates on a
    scale of 0.3 to 3, so the fits stop at different iterations: far_start
    starts 3 to 30 standard deviations out (its steps are halved), warm
    starts from the fit on half the rows, slow has nearly separated classes
    (many iterations), complete separates them, pinned_probe pushes the
    first row of each class far out, one_class and rare leave a class empty
    or nearly so, and collinear repeats a covariate."""
    rng = np.random.default_rng(seed)
    n, k = int(np.exp(rng.uniform(np.log(6), np.log(401)))), int(rng.integers(1, 4))
    columns = np.empty((fits, k, n))
    columns[:, 0] = 1.0
    y, start, warm = np.empty((fits, n)), np.zeros((fits, k)), False
    for b in range(fits):
        mode = pick(rng, NEWTON_MODES)
        x = rng.standard_normal((n, k - 1)) * pick(rng, (0.3, 1.0, 3.0))
        signal = 0.3 + x.sum(axis=1) * (8.0 if mode == "slow" else 1.0)
        y[b] = rng.random(n) < logistic(signal)
        if mode == "complete" and k > 1:
            y[b] = x[:, 0] > np.median(x[:, 0])
        elif mode == "pinned_probe" and k > 1:
            for label, sign in ((1.0, 1.0), (0.0, -1.0)):
                rows = np.flatnonzero(y[b] == label)
                if rows.size:
                    x[rows[0]] = sign * pick(rng, (25.0, 40.0))
        elif mode == "one_class":
            y[b] = rng.integers(0, 2)
        elif mode == "rare":
            y[b] = 0.0
            y[b, rng.choice(n, size=int(rng.integers(1, 3)), replace=False)] = 1.0
        elif mode == "collinear" and k > 2:
            x[:, 1] = 2.0 * x[:, 0]
        columns[b, 1:] = x.T
        if mode == "far_start":
            start[b], warm = pick(rng, (3.0, 30.0)) * rng.standard_normal(k), True
        elif mode == "warm":
            half = rng.choice(n, size=max(k + 2, n // 2), replace=False)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    start[b] = stack_of_one(
                        functionals._newton_logistic, columns[b].T[half], y[b, half], "start"
                    )[0]
                warm = True
            except DataFuseError:
                pass
    return columns.swapaxes(1, 2), y, start if warm else None


def _newton_case(seed, fits, cap):
    """(design, y, start or None, cap) per fit of a _newton_stack."""
    design, y, start = _newton_stack(seed, fits)
    starts = [None] * fits if start is None else list(start)
    return [(*one, cap) for one in zip(design, y, starts)], {"cold" if start is None else "warm"}


_newton_cases = st.builds(_newton_case, SEEDS, st.integers(1, 5), st.sampled_from(CAPS))
# stacks with the rarest outcomes over seeds 0-299 (about one fit in 250
# each): a fit with no improving step (52), a Hessian that is not positive
# definite (113, 185), coefficients that diverge (113, 176)
_RARE = tuple(_newton_case(*c) for c in ((52, 3, 3), (113, 4, 5), (176, 2, 100), (185, 1, 100)))


def _capped(newton, design, y, start, cap):
    with mock.patch.object(functionals, "LOGISTIC_MAX_ITER", cap):
        return newton(design, y, "p", start)


def _aipw_case(seed, fits, spread):
    """(Scenario I dataset, start or None) per fit: one row count of 30-400
    for the stack, and the propensity Newton started cold (spread None) or
    from coefficients of scale `spread`."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 400))
    data = [gen_scenario1(n, 50, rng)[0] for _ in range(fits)]
    start = [None] * fits if spread is None else list(spread * rng.standard_normal((fits, 3)))
    return list(zip(data, start)), {"cold" if spread is None else f"start {spread}"}


_aipw_cases = st.builds(_aipw_case, SEEDS, st.integers(1, 5), st.sampled_from((None, 0.1, 3.0)))


def _steps(lone, tags, alone):
    """"staggered": the fits stop after different numbers of steps (solves);
    "halved": one halves a step (a log-likelihood more than one per step)."""
    fitted = [o.counts for o in alone if o.error is None]
    out = {"staggered"} if len({solves for solves, _ in fitted}) > 1 else set()
    return out | ({"halved"} if any(ll > 1 + solves for solves, ll in fitted) else set())


# every descriptor of PREPARE_TAUS and PREPARE_BINDINGS, each fitted alone by _refit
DESCRIPTORS = PREPARE_TAUS + tuple(d for b in PREPARE_BINDINGS for d in b)
# a dataset's defect: none most often, Z = 2 X, or Z zero
DEFECTS = (None,) * 6 + ("collinear", "zero")


@st.composite
def _fit_cases(draw, descriptors, start=None):
    """(dataset, descriptor or binding[, start]) per slice, of 12-300 rows with
    DEFECTS; half the time an aipw_ate fit starts from small coefficients
    (start="propensity"), or a _Moments form from random centers ("center")."""
    rng = fuzz_rng(draw)
    n, what, size = int(rng.integers(12, 300)), pick(rng, descriptors), draw(st.integers(1, 5))
    datas = [xz_dataset(rng, n, pick(rng, DEFECTS)) for _ in range(size)]
    if start is None:
        return [(data, what) for data in datas], {desc.kind.value for desc in what}
    starts = [None] * size
    if rng.random() < 0.5 and start == "center":
        starts = list(rng.standard_normal((size, what._base_width())))
    elif rng.random() < 0.5 and what.kind is FunctionalKind.AIPW_ATE:
        starts = list(0.1 * rng.standard_normal((size, 3)))
    return [(data, what, one) for data, one in zip(datas, starts)], {what.kind.value}


def _moments(moments, datas, desc, center):
    """The centers and features of _Moments on every row in order, and both
    parts of the fit on all rows from the feature sums: _Moments.solve (the
    estimate) and _Moments.fit (the influence maps and refit flags)."""
    form, (size, n) = moments(datas, desc, center), (len(datas), datas[0].n)
    out = np.empty((size, len(form.factors) * (len(form.factors) + 1) // 2 - 1, n))
    form.features(out, np.arange(size * n).reshape(size, n))
    sums = (np.full(size, float(n)), out.sum(axis=-1), out @ out.swapaxes(-1, -2))
    return (form.center, out) + moments.solve(form.center, *sums[:2]) + moments.fit(
        form.center, *sums)


def _near_threshold(slices):
    """A stack of JOINT (Y on 1, X, Z) fits of 40 rows, each from a random
    center, of the given kinds of slice: "ordinary" (xz_dataset);
    "near-collinear", Z = X + delta W with delta set so that the unit-diagonal
    gram has lambda_min / lambda_max = 0.8 CANCELLATION_FLOOR, which fails
    _Moments.solve's test alone but would pass it against the largest
    eigenvalue of an ordinary slice (about half its own); "exact", Y
    = 1 + X - 0.5 Z with no noise, from a center 1e3 away, whose influence
    cancels, so that _Moments.fit refits it alone, and whose terms are large
    enough that an ordinary slice measured by them would be refitted too."""
    rng, out = np.random.default_rng(7), []
    for kind in slices:
        data, center = xz_dataset(rng, 40), rng.standard_normal(3)
        x, z = data.columns["X"], data.columns["Z"]
        if kind == "near-collinear":
            delta = 1e-2
            for _ in range(3):  # lambda_min is about quadratic in delta
                design = np.column_stack([np.ones(40), x, x + delta * z])
                gram = design.T @ design
                scale = 1.0 / np.sqrt(np.diag(gram))
                unit = np.linalg.eigvalsh(gram * scale[:, None] * scale)
                delta *= np.sqrt(0.8 * functionals.CANCELLATION_FLOOR * unit[-1] / unit[0])
            data = validate_dataset({**data.columns, "Z": x + delta * z}, outcome="Y")
        elif kind == "exact":
            data = validate_dataset({**data.columns, "Y": 1.0 + x - 0.5 * z}, outcome="Y")
            center = center * 1e3
        out.append((data, JOINT, center))
    return out, {"joint_ols"}


def _moment_flags(lone, tags, alone):
    """Which lone fits failed _Moments.solve's tests, and which passed them
    and were flagged by _Moments.fit alone."""
    values = [o.value for o in alone if o.error is None]
    return {"failed" for v in values if v[3]} | {"refit" for v in values if v[-1] and not v[3]}


@st.composite
def _prepare_cases(draw):
    """(dataset, target, 1-2 summaries of its own bindings) per slice."""
    size, rng = draw(st.integers(1, 5)), fuzz_rng(draw)
    n, tau = int(rng.integers(12, 300)), pick(rng, PREPARE_TAUS)
    return [
        (xz_dataset(rng, n), tau,
         [xz_summary(rng, pick(rng, PREPARE_BINDINGS)) for _ in range(int(rng.integers(1, 3)))])
        for _ in range(size)
    ], {tau.kind.value}


@st.composite
def _external_cases(draw):
    """(summaries, n) per slice: sources of 1-2 coordinates shared by the
    stack, each slice's own summaries, and n a size or one per fold."""
    rng = fuzz_rng(draw)
    splits = [int(w) for w in rng.integers(1, 3, size=rng.integers(1, 4))]
    folds = pick(rng, (None, 2, 3))
    return [
        (synth_inputs(rng, 4, 1, sum(splits), splits).summaries,
         int(rng.integers(2, 5000)) if folds is None else rng.integers(2, 5000, size=folds))
        for _ in range(draw(st.integers(1, 5)))
    ], {"folds" if folds else "inputs"}


def _avars(rng, size, p):
    """A stack of p x p avars: PSD, some with a zero row and column (a zero
    se), some with round-off asymmetry or a clipped negative diagonal, and
    now and then one that is not PSD (the FusionResult constructor rejects
    it)."""
    avar = np.empty((size, p, p))
    for b in range(size):
        w = rng.standard_normal((p, p + 1))
        avar[b] = w @ w.T
        kind = pick(rng, ("psd",) * 4 + ("zero", "roundoff", "negative"))
        if kind == "zero":
            j = rng.integers(p)
            avar[b, j], avar[b, :, j] = 0.0, 0.0
        elif kind == "roundoff":
            avar[b] += 1e-15 * rng.standard_normal((p, p))
            avar[b, 0, 0] = -1e-14
        elif kind == "negative":
            avar[b] -= 10.0 * np.trace(avar[b]) * np.eye(p)
    return avar


LEVELS = (0.9, 0.9, 0.9, 1.5)  # the last outside (0, 1)


@st.composite
def _result_cases(draw):
    """(method, n, gain, estimate, avar, level, warnings, note) per fit."""
    size, rng = draw(st.integers(1, 5)), fuzz_rng(draw)
    p, q = int(rng.integers(1, 4)), int(rng.integers(0, 4))
    ns = [int(n) for n in rng.integers(2, 5000, size=size)]
    gain, estimate = rng.standard_normal((size, p, q)), rng.standard_normal((size, p))
    avar = _avars(rng, size, p)
    warn = [] if rng.random() < 0.5 else ["ill-conditioned system (calibration): ..."]
    method, note, level = pick(rng, tuple(Method)), pick(rng, ("", "a note")), pick(rng, LEVELS)
    lone = zip(ns, gain, estimate, avar)
    return [(method, n, g, e, a, level, warn, note) for n, g, e, a in lone], set()


def _se_and_warnings(lone, tags, alone):
    """Each result's se is sqrt(max(diag avar, 0) / n), and its warnings are
    the fit's, then one for a zero se, then the note."""
    out = set()
    for (_, n, _, _, avar, _, warn, note), one in zip(lone, alone):
        if one.error is None:
            diagonal = sym(avar).diagonal()
            se = np.sqrt(np.maximum(diagonal, 0.0) / n)
            assert_same_bits(one.value.se, se, "se")
            zero = ["zero standard error: one-sided p set to NaN"] if (se == 0.0).any() else []
            assert one.value.warnings == tuple(warn + zero + ([note] if note else []))
            out |= {"zero se"} if zero else set()
            out |= {"clipped diagonal"} if (diagonal < 0.0).any() else set()
    return out


def _wald_of_results(wald, method, ns, gain, estimate, avar, level, warn, note):
    """_wald on the estimates and se of _build_results's arguments, as it calls it."""
    n = np.array(ns, dtype=float)[:, None]
    return wald(estimate, np.sqrt(np.maximum(np.diagonal(avar, 0, -2, -1), 0.0) / n), level)


MOMENT_TARGETS = tuple(desc for desc in FOLD_TARGETS if desc.kind is not FunctionalKind.AIPW_ATE)
MOMENT_BINDINGS = tuple(desc for desc in FOLD_BINDINGS if desc.kind is not FunctionalKind.AIPW_ATE)
# how an input's folds are drawn: kfold_indices, an unequal partition of
# shuffled rows, kfold_indices with a row left out, or kfold_indices on data
# scaled by 1e80, whose feature sums overflow
LAYOUTS = ("kfold",) * 4 + ("partition", "row-out", "overflow")


def _stack_case(seed):
    """(inputs, folds), or None if prepare_inputs raises on every input:
    1-5 inputs of one moment-form target and one binding of 1-2 sources of
    1-2 moment-form descriptors, each input with its own data of 30 or 45
    rows (as in test_cv_folds._case), its own summaries and folds drawn by
    one of LAYOUTS, 2-5 of them by kfold_indices, 4 most often. Inputs of
    one row count and fold count share their fold sizes, so they are built
    as one group; an input on which prepare_inputs raises is left out."""
    rng = np.random.default_rng(seed)
    tau = MOMENT_TARGETS[rng.integers(len(MOMENT_TARGETS))]
    sources = [
        [MOMENT_BINDINGS[j] for j in rng.integers(len(MOMENT_BINDINGS), size=rng.integers(1, 3))]
        for _ in range(rng.integers(1, 3))
    ]
    inputs, folds = [], []
    for _ in range(rng.integers(1, 6)):
        n, layout = int(rng.choice([30, 30, 30, 45])), LAYOUTS[rng.integers(len(LAYOUTS))]
        x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
        b = (rng.random(n) < 0.4).astype(float)
        t = (rng.random(n) < 0.5).astype(float)
        noise = rng.choice([1.0, 1e-6]) * rng.standard_normal(n)
        y = 1.0 + x1 - 0.5 * x2 + 0.3 * b + 0.2 * t + noise
        if layout == "overflow":
            x1, x2, y = 1e80 * x1, 1e80 * x2, 1e80 * y
        data = validate_dataset({"Y": y, "X1": x1, "X2": x2, "B": b, "T": t})
        summaries = []
        for binding in sources:
            q = sum(desc.width() for desc in binding)
            beta, sigma1 = rng.standard_normal(q), random_spd(rng, q)
            summaries.append(validate_summary(beta, sigma1, int(rng.integers(20, 400)), binding))
        try:
            inputs.append(prepare_inputs(data, tau, summaries))
        except DataFuseError:
            continue
        if layout == "partition":
            cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(1, 5)), replace=False))
            folds.append(np.split(rng.permutation(n), cuts))
        else:
            k = int(rng.choice([2, 3, 4, 4, 4, 5]))
            folds.append(kfold_indices(n, k, int(rng.integers(1000))))
            if layout == "row-out":
                folds[-1][0] = folds[-1][0][1:]
    return (inputs, folds) if inputs else None


@st.composite
def _stack_cases(draw):
    """(inputs, folds) per input of a _stack_case."""
    case = _stack_case(draw(st.integers(0, 2**32 - 1)))
    assume(case is not None)
    return list(zip(*case)), set()


def _sums_alone(data, part, slots, centers, spans):
    """The feature sums of one dataset's folds built as one input at a time
    builds them: the features in row order, the products of each fold's
    rows taken out of them, and each train sum the other folds' products
    added in fold order."""
    features = np.empty((1, spans[-1].stop, data.n))
    features[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for desc, center, span in zip(slots, centers, spans):
            functionals._Moments([data], desc, center).features(
                features[:, span], np.arange(data.n)[None])
        test = []
        for rows in part:
            block = features[0].take(rows, 1)
            test.append(block @ block.T)
        train = [sum(test[g] for g in range(len(part)) if g != f) for f in range(len(part))]
    return np.array(test), np.array(train)


# the layouts of groups that _fold_fits has met in one _FoldFits call
_GROUPINGS = set()


def _fold_fits(fold_fits, inputs, folds):
    """Per input: its folds' refit flags and train row counts, and each
    fold's (held-out estimate, calibration) or error (class, message). Each
    group's feature sums (debias._fold_sums) must be those of its inputs
    built one at a time (_sums_alone). A call of several groups adds
    "several groups" to _GROUPINGS, and "a group with no live fold" if
    every input of one group has sums that are not finite and another
    group has a live one."""
    calls, fold_sums = [], debias._fold_sums

    def recording(datas, parts, sizes, slots, centers, spans):
        out = fold_sums(datas, parts, sizes, slots, centers, spans)
        calls.append((datas, parts, slots, spans, out))
        return out

    with mock.patch.object(debias, "_fold_sums", recording):
        fits = fold_fits(inputs, folds)
    live = []
    for datas, parts, slots, spans, (test, train, centers) in calls:
        for b, (data, part) in enumerate(zip(datas, parts)):
            alone = _sums_alone(data, part, slots, [c[b : b + 1] for c in centers], spans)
            assert_same_bits((test[b], train[b]), alone, "fold sums")
        live.append(np.isfinite(test + train).all(axis=(1, 2, 3)).any())
    if len(calls) > 1:
        _GROUPINGS.add("several groups")
        if any(live) and not all(live):
            _GROUPINGS.add("a group with no live fold")
    out, start = [], 0
    for part in folds:
        span = slice(start, start + len(part))
        out.append((fits.refit[span], fits.train_size[span], []))
        for g in range(span.start, span.stop):
            try:
                out[-1][2].append(fits.fold(g))
            except DataFuseError as exc:
                out[-1][2].append((type(exc), str(exc)))
        start = span.stop
    return out


def _fold_paths(lone, tags, alone):
    """The paths the folds took: read from sums, refitted, failed; and the
    layouts of groups met so far (_GROUPINGS)."""
    done = [o.value for o in alone if o.error is None]
    return {"refitted" if flag else "read from sums" for refit, _, _ in done for flag in refit} | {
        "fold error" for _, _, folds in done for fold in folds if isinstance(fold[0], type)
    } | _GROUPINGS


@st.composite
def _method_cases(draw):
    """(method, inputs, beta_true, unbiased set, fold seed, debias config)
    per input of a _stack_case, the method and config shared."""
    inputs = [one for one, _ in draw(_stack_cases())[0]]
    rng = fuzz_rng(draw)
    method, k = pick(rng, tuple(Method)), int(rng.integers(2, 4))
    config = DebiasConfig(grid_c=(1.0, 10.0), k=k)
    return [
        (method, one, rng.standard_normal(one.q),
         tuple(np.flatnonzero(rng.random(one.q) < 0.5).tolist()), int(rng.integers(1000)), config)
        for one in inputs
    ], {method.value}


def _replication_case(scenario, n, seed, reps):
    """(config, the rep's pair of seed sequences) per rep of one scenario at
    n rows (at n = 12 a third of Scenario I reps fail their fits)."""
    config = ScenarioConfig(scenario=scenario, n=n, m=2 * n if scenario == "I" else 4 * n,
                            reps=1, debias=DebiasConfig(grid_c=(1.0, 10.0), k=2))
    return [(config, one.spawn(2)) for one in np.random.SeedSequence(seed).spawn(reps)], {scenario}


@st.composite
def _replication_cases(draw):
    rng = fuzz_rng(draw)
    scenario, n = pick(rng, SCENARIOS), pick(rng, (12, 12, 60, 200))
    return _replication_case(scenario, n, int(rng.integers(2**32)), int(rng.integers(1, 5)))


def _stacker(*shared, designs=False):
    """How a row stacks its lone calls' arguments: `shared` ones (and Nones)
    from the first call, arrays on a new axis (with `designs` argument 0 as
    one column-major buffer, as _joint_design builds it), calibrations as one, the rest listed."""

    def stack(lone):
        out = []
        for i, values in enumerate(zip(*lone)):
            if i in shared or all(value is None for value in values):
                out.append(values[0])
            elif designs and i == 0:
                out.append(np.array([design.T for design in values]).swapaxes(1, 2))
            elif isinstance(values[0], np.ndarray):
                out.append(np.array(values))
            else:
                is_calib = isinstance(values[0], _Calibration)
                out.append(_Calibration.stack(values) if is_calib else list(values))
        return tuple(out)

    return stack


# An entry point ("module:attribute.path" in datafuse), its rule, how to call
# it on a row's arguments (directly if None), and `check`, which asserts what
# the lone calls give, from (their arguments, the row's tags, their
# outcomes), and returns more outcomes reached.
Entry = namedtuple("Entry", "name rule call check", defaults=(None, None))
# A strategy of (lone calls' arguments, tags), how to stack them, the entry
# points, the examples to draw besides the `explicit` ones, and the outcomes
# to reach; each lone call counts the calls of the `spies`.
Row = namedtuple("Row", "cases stack entries examples reach unbatched spies explicit",
                 defaults=(False, (), ()))
_FIT_ERRORS = ("RankDeficientDesign", "DegenerateRegressor")
_DESIGNS_REACH = set(DESIGN_MODES) | {"rows < columns", "mixed", "ill-scaled and full rank"}
_NEWTON_REACH = {
    "cold", "warm", "ok", "mixed", "staggered", "halved", "logistic fit stopped at iteration cap",
    "ill-conditioned system", "fitted probabilities pinned at 0/1", "no improving Newton step",
    "coefficients diverged", "matrix is not positive definite", "design matrix is rank deficient",
}
# marginal slopes on X and Z of two datasets, Z zero in the second
_ZERO_Z = ([(xz_dataset(np.random.default_rng(seed), 40, bad), PREPARE_BINDINGS[2])
            for seed, bad in ((0, None), (1, "zero"))], {"marginal_ols"})
ROWS = (
    Row(_systems(), _stacker(), (Entry(
        "_linalg:spd_solve", "first", lambda f, a, b: f(a, b, SingularCalibration, None, "x")),),
        300, {"ok", "mixed", "ill-conditioned system", "matrix is not finite",
              "matrix is not positive definite", "singular system"}, unbatched=True),
    Row(_stacks(nan=True).map(lambda c: ([(a,) for a in c[1]], set(c[2]))), _stacker(), (Entry(
        "_linalg:inv_sqrt_spd", "first", lambda f, a: f(a, NotPositiveDefinite, "x"),
        _fails_on_indefinite_or_nan),),
        300, {"ok", "mixed", "matrix is not finite", "matrix is not positive semidefinite"},
        unbatched=True),
    Row(_design_cases(with_y=False), _stacker(designs=True), (Entry(
        "_linalg:check_full_rank", "first", lambda f, d: f(d, SingularCalibration, "stack"),
        _ill_and_full_rank),), 300, _DESIGNS_REACH, unbatched=True),
    Row(_design_cases(), _stacker(designs=True), (Entry(
        "functionals:_ols_fit", "first", lambda f, design, y: f(design, y, "stack"),
        _ill_and_full_rank),), 300, _DESIGNS_REACH, unbatched=True),
    Row(_newton_cases, _stacker(3, designs=True), (
        Entry("functionals:_newton_logistic", "any", _capped, _steps),), 300, _NEWTON_REACH,
        explicit=_RARE, spies=("functionals:spd_solve", "functionals:_bernoulli_loglik")),
    Row(_aipw_cases, _stacker(), (Entry(
        "functionals:_fit_aipw", "any", lambda f, datas, start: f(
            datas, "Y", "T", ["X", "X2"], functionals.PROPENSITY_TRIM, start=start)),), 40,
        {"ok", "cold", "start 0.1", "start 3.0"}),
    Row(_fit_cases(DESCRIPTORS, "propensity"), _stacker(1), (Entry("functionals:_refit", "any"),),
        60, {k.value for k in functionals._FITTERS} | {"ok", "mixed", *_FIT_ERRORS}),
    Row(_fit_cases(PREPARE_BINDINGS), _stacker(1), (
        Entry("functionals:_evaluate_bindings", "first"),), 40, {"ok", "mixed", *_FIT_ERRORS},
        explicit=(_ZERO_Z,)),
    Row(_fit_cases([d for d in DESCRIPTORS if d.kind is not FunctionalKind.AIPW_ATE], "center"),
        _stacker(1), (Entry("functionals:_Moments", "first", _moments, _moment_flags),), 40,
        {"mean", "joint_ols", "marginal_ols", "ok", "mixed", "failed", "refit"},
        explicit=(_near_threshold(("ordinary", "near-collinear", "ordinary")),
                  _near_threshold(("exact", "ordinary", "exact")))),
    Row(_prepare_cases(), _stacker(1), (Entry("fusion:_prepare", "first"),), 60,
        {"ok", "aipw_ate", "joint_ols", "mean"}),
    Row(_external_cases(), _stacker(), (Entry("fusion:_external", "first"),), 100,
        {"inputs", "folds"}),
    Row(_result_cases(), _stacker(0, 5, 6, 7), (
        Entry("fusion:_build_results", "first", None, _se_and_warnings),
        Entry("fusion:_wald", "first", _wald_of_results),
    ), 200, {"ok", "mixed", "avar is not positive semidefinite", "MalformedInput", "zero se",
             "clipped diagonal"}),
    Row(_calibration_cases(), _stacker(1), (
        Entry("fusion:_Calibration.restrict", "first"),
        Entry("fusion:_Calibration.fuse", "first", lambda f, calib, keep: f(calib.restrict(keep))),
        Entry("fusion:_Calibration.gram_coef", "first", lambda f, calib, keep: f(calib)),
        Entry("debias:_whiten", "first", lambda f, calib, keep: f(calib)),
    ), 300, {"ok", "mixed", "ill-conditioned system", "singular system",
             "matrix is not positive definite", "matrix is not positive semidefinite"},
        unbatched=True),
    Row(_stack_cases(), _stacker(), (
        Entry("debias:_FoldFits", "first", _fold_fits, _fold_paths),
        Entry("debias:_tune", "first",
              lambda f, inputs, folds: f(inputs, folds, [1.0, 3.0, 10.0], 1.0, 2.0)),
    ), 200, {"read from sums", "refitted", "fold error", "ok", "mixed", "FoldTooSmall",
             "several groups", "a group with no live fold"}),
    Row(_method_cases(), _stacker(0, 5), (Entry(
        "debias:_run_methods", "replay",
        lambda f, method, inputs, beta, unbiased, seeds, config: f(
            method, inputs, 0.9, beta_true=beta, unbiased=unbiased, debias=config, seeds=seeds)),),
        30, {m.value for m in Method} | {"ok"}),
    Row(_replication_cases(), _stacker(0), (Entry("sim:_replicate", "replay"),), 20,
        set(SCENARIOS) | {"ok", "mixed", "PropensityDegenerate"},
        explicit=(_replication_case("I", 12, 1, 3),)),  # ok, then two reps that fail
)
# a call's value, error (class, message), warnings (category, message) and spy calls
_Outcome = namedtuple("_Outcome", "value error shown counts")


def _resolve(name: str):
    """The object "module:attribute.path" names in datafuse."""
    module, path = name.split(":")
    target = importlib.import_module("datafuse." + module)
    for attribute in path.split("."):
        target = getattr(target, attribute)
    return target


def _run(compute, counts) -> _Outcome:
    before = list(counts)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, error = compute(), None
        except DataFuseError as exc:
            value, error = None, (type(exc), str(exc))
    shown = [(w.category, str(w.message)) for w in caught if w.category is not RuntimeWarning]
    return _Outcome(value, error, shown, tuple(a - b for a, b in zip(counts, before)))


def _part(result, i):
    """Slice i of a stacked result, part by part."""
    return tuple(_part(part, i) for part in result) if isinstance(result, tuple) else result[i]


def _check(rule, stacked, alone):
    errors = [o.error for o in alone if o.error is not None]
    if rule == "first":
        upto = next((i + 1 for i, o in enumerate(alone) if o.error is not None), len(alone))
        assert stacked.error == (errors[0] if errors else None)
        assert stacked.shown == [w for o in alone[:upto] for w in o.shown]
    elif rule == "any" and errors:
        assert stacked.error in errors
    elif rule == "any":
        assert stacked.error is None
        assert Counter(stacked.shown) == Counter(w for o in alone for w in o.shown)
    elif errors or any(o.shown for o in alone):
        assert stacked.error is not None or stacked.shown
    else:
        assert stacked.error is None and not stacked.shown
    if stacked.error is None and not (rule == "replay" and stacked.shown):
        for i, one in enumerate(alone):
            assert_same_bits(_part(stacked.value, i), one.value, f"slice {i}")


def _heads(outcome):
    """An outcome's labels: "ok" or its error's class and head, its warnings' heads."""
    error = [outcome.error[0].__name__, outcome.error[1]] if outcome.error else []
    labels = [re.split(r" \(|: ", text)[0] for text in error[1:] + [m for _, m in outcome.shown]]
    return set(labels + error[:1]) if outcome.error else set(labels) | {"ok"}


# the rows by their first entry point's name, without its module
ROW = {r.entries[0].name.split(":")[1].split(".")[0]: r for r in ROWS}


@functools.cache
def reached(name):
    """The outcomes that the draws of row `name` reach, each draw compared."""
    row = ROW[name]
    entries = [(entry, _resolve(entry.name)) for entry in row.entries]
    counts, seen = [0] * len(row.spies), set()

    def counting(i, spied):
        return lambda *args, **kw: counts.__setitem__(i, counts[i] + 1) or spied(*args, **kw)

    @settings(max_examples=row.examples, deadline=None)
    @given(row.cases)
    def each_slice(case):
        lone, tags = case
        seen.update(tags)
        stacked_args = row.stack(lone)
        for entry, target in entries:
            call = entry.call or (lambda f, *args: f(*args))
            stacked = _run(lambda: call(target, *stacked_args), counts)
            alone = [
                _run(lambda: call(target, *args) if row.unbatched
                     else _part(call(target, *row.stack([args])), 0), counts)
                for args in lone
            ]
            _check(entry.rule, stacked, alone)
            mixed = len({one.error is None for one in alone}) > 1
            seen.update(*map(_heads, alone), ["mixed"] * mixed)
            seen.update(entry.check(lone, tags, alone) if entry.check else ())

    for case in row.explicit:
        each_slice = example(case)(each_slice)
    with ExitStack() as spies:
        for i, name in enumerate(row.spies):
            module, attribute = name.split(":")
            module = importlib.import_module("datafuse." + module)
            spies.enter_context(mock.patch.object(module, attribute, counting(i, _resolve(name))))
        each_slice()
    return frozenset(seen)


@pytest.mark.parametrize("name", ROW)
def test_each_slice_of_a_stack_is_its_lone_call(name):
    missed = ROW[name].reach - reached(name)
    assert not missed, sorted(missed)
