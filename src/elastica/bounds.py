"""Universal eigenvalue bounds for the vector operator Δu + α grad(div u).

Everything here is a pure function of an eigenvalue list (a :class:`Spectrum`)
and the pair (n, α).  The central quantity is the Yang-type coefficient

    C(n, α) = min{ 4(n+α)/n²,  A(n, α)/(n+α) },

where A(n, α) switches branch at α* = (n+2+√((n+2)²+16))/2:

    A = 4 + α²                          for α ≥ α*,
    A = (8 + (n+2)α) / (1 + L)          for α < α*,
    L = (4 + (n+2)α − α²) n² / (4(n+α)²)  (> 0 below the threshold).

The quadratic inequality  Σᵢ(σ_{k+1}−σᵢ)² ≤ C Σᵢ(σ_{k+1}−σᵢ)σᵢ  then yields
explicit upper bounds on σ_{k+1}, on eigenvalue gaps and on index growth;
the comparator bounds of Levine–Protter, Hook, Levitin–Parnovski and
Cheng–Yang are provided alongside for dominance checks.

Every inequality the program judges is one row of a table here, judged by
:func:`make_record` with an error band b: the box records of
:data:`BOX_RECORDS` on a :class:`Spectrum` (:func:`evaluate_all`), the cap
records of :data:`CAP_RECORDS` on first eigenvalues (:func:`evaluate_cap`).
Upper and lower bounds pass at slack ≥ 0 and are marginal down to slack −b;
a strict lower bound passes only with slack > b; an equality passes with
|measured − bound| ≤ b and is marginal up to 2b.  Anything else fails.  A
:class:`Spectrum` refuses values whose bound sums overflow (:data:`SUM_LIMIT`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

SPECTRUM_SOURCES = ("synthetic", "computed")
VERDICTS = ("pass", "marginal", "fail", "skip")
SENSES = ("upper", "lower", "strict lower", "equality")

#: relative gap below which σ_{k+1} and σ_k count as one eigenvalue
DEGENERATE_GAP_RTOL = 1e-8

#: gaps σ_{k+1} − σᵢ up to GAP_ROUNDING_ULPS·ε·σ_{k+1} are rounding of a
#: degenerate pair (measured up to 16ε on box spectra, whose real gaps are
#: >= 1e-3 relative), and count as exact zeros (:func:`_next_gaps`)
GAP_ROUNDING_ULPS = 256

#: conservative admissible constant in the index-growth bound (the true
#: dimension-dependent constant is only known to be <= 4)
INDEX_GROWTH_CONSTANT = 4.0

#: the bounds square sums of up to len(values) eigenvalues scaled by
#: factors below 6 + 4α (2 + C(n, α), C <= 4(1+α)); these stay below
#: SUM_LIMIT, so no square overflows
SUM_LIMIT = math.sqrt(np.finfo(float).max)


class SpectrumError(ValueError):
    """Invalid spectrum data or an inconsistent synthetic spectrum."""


class DegenerateGapError(ValueError):
    """A ratio bound was requested at a vanishing eigenvalue gap."""


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigenvalue list with provenance.

    ``values`` must be finite, strictly positive and non-decreasing.
    Computed spectra carry per-eigenvalue residual norms (finite and
    non-negative) and the solver tolerance they were required to meet.
    """

    dim: int
    alpha: float
    values: np.ndarray
    source: str = "synthetic"
    mesh: str | None = None
    residuals: np.ndarray | None = None
    solver_tol: float | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if self.dim < 1:
            raise SpectrumError("dimension must be >= 1")
        if not 0 <= self.alpha < math.inf:
            raise SpectrumError("alpha must be finite and non-negative")
        if values.ndim != 1 or values.size < 1:
            raise SpectrumError("need at least one eigenvalue")
        if not np.all((values > 0) & (values < np.inf)):
            raise SpectrumError("eigenvalues must be positive and finite")
        if np.any(np.diff(values) < 0):
            raise SpectrumError("eigenvalues must be non-decreasing")
        if (6.0 + 4.0 * self.alpha) * values.size * values[-1] >= SUM_LIMIT:
            raise SpectrumError(
                f"eigenvalues up to {values[-1]:.3g} at alpha = "
                f"{self.alpha:g} are too large: the bound sums would "
                f"overflow")
        if self.source not in SPECTRUM_SOURCES:
            raise SpectrumError(f"unknown source tag {self.source!r}")
        if self.residuals is not None:
            residuals = np.asarray(self.residuals, dtype=np.float64)
            object.__setattr__(self, "residuals", residuals)
            if residuals.shape != values.shape:
                raise SpectrumError("residuals must match values in length")
            if not np.all((residuals >= 0) & (residuals < np.inf)):
                raise SpectrumError("residuals must be finite and non-negative")
            if self.source == "computed" and self.solver_tol is not None \
                    and np.any(residuals > self.solver_tol):
                raise SpectrumError("residuals exceed the recorded solver tolerance")

    def __len__(self):
        return int(self.values.size)


@dataclass(frozen=True)
class DomainGeometry:
    """Dimension and volume, the domain data of volume-dependent bounds."""

    dim: int
    volume: float

    def __post_init__(self):
        if not 0 < self.volume < math.inf:
            raise ValueError("volume must be positive and finite")


@dataclass(frozen=True, slots=True)
class BoundRecord:
    """One evaluated inequality.

    ``slack`` is signed so that nonneg means the inequality holds: for upper
    bounds it is bound − measured, for lower bounds measured − bound, for
    equalities band − |measured − bound|.  Slotted: a record has no
    ``__dict__``, so the reports a run keeps hold only their fields.
    """

    name: str
    kind: str
    k: int
    bound_value: float
    measured_value: float
    slack: float
    verdict: str
    note: str = ""


@dataclass(frozen=True)
class VerifyTolerance:
    """Slack policy for verdicts.

    ``rel`` is the base relative band; its default 1e-9 is also the
    ``fixed`` policy's band without an eps and every cap run's floor;
    ``per_index_rel`` optionally adds a per-eigenvalue relative error budget
    (e.g. a Richardson a-posteriori estimate), of which the maximum over the
    ``count`` leading eigenvalues entering a record is applied.
    """

    rel: float = 1e-9
    per_index_rel: np.ndarray | None = None

    def band(self, count, scale):
        rel = self.rel
        if self.per_index_rel is not None:
            rel = max(rel, float(np.max(self.per_index_rel[:count])))
        return rel * max(abs(scale), 1e-300)


def make_record(name, kind, k, bound, measured, band, sense, note=""):
    """Judge one inequality of the given sense (see :data:`SENSES`)."""
    if sense not in SENSES:
        raise ValueError(f"unknown sense {sense!r}")
    slack = bound - measured if sense == "upper" else measured - bound
    if sense == "equality":
        slack = band - abs(measured - bound)
    passed = slack > band if sense == "strict lower" else slack >= 0
    verdict = "pass" if passed else "marginal" if slack >= -band else "fail"
    return BoundRecord(name, kind, k, bound, measured, slack, verdict, note)


def alpha_threshold(n):
    """Branch point (n+2+sqrt((n+2)^2+16))/2 of the coupling coefficient."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (n + 2 + math.sqrt((n + 2) ** 2 + 16)) / 2.0


def blend_weight(n, alpha):
    """The positive factor L = (4+(n+2)α−α²)n² / (4(n+α)²).

    Only defined below the branch threshold; above it the quantity would be
    non-positive and the caller is on the wrong branch.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    if alpha >= alpha_threshold(n):
        raise ValueError(
            f"blend weight requested at alpha={alpha} >= threshold "
            f"{alpha_threshold(n)} for n={n}")
    return (4.0 + (n + 2) * alpha - alpha ** 2) * n ** 2 / (4.0 * (n + alpha) ** 2)


def coupling_coefficient(n, alpha):
    """The branchwise coefficient A(n, α); continuous across the threshold."""
    if n < 1 or alpha < 0:
        raise ValueError("need n >= 1, alpha >= 0")
    if alpha >= alpha_threshold(n):
        return 4.0 + alpha ** 2
    return (8.0 + (n + 2) * alpha) / (1.0 + blend_weight(n, alpha))


def yang_coefficient(n, alpha):
    """C(n, α) = min{4(n+α)/n², A(n, α)/(n+α)}; equals 4/n at α = 0."""
    return min(4.0 * (n + alpha) / n ** 2,
               coupling_coefficient(n, alpha) / (n + alpha))


def _check_k(spectrum, k, need_next=False):
    if k < 1:
        raise ValueError("k must be >= 1")
    needed = k + 1 if need_next else k
    if needed > len(spectrum):
        raise ValueError(f"need {needed} eigenvalues, spectrum has {len(spectrum)}")


def _next_gaps(spectrum, k):
    """Gaps σ_{k+1} − σᵢ, i ≤ k, with those at the rounding level of
    σ_{k+1} (``GAP_ROUNDING_ULPS``) set to exact zeros: they are a
    degenerate pair, and their rounding would otherwise reach the record."""
    _check_k(spectrum, k, need_next=True)
    sig = spectrum.values
    d = sig[k] - sig[:k]
    return np.where(d > GAP_ROUNDING_ULPS * np.finfo(float).eps * abs(sig[k]),
                    d, 0.0)


def yang_type_quadratic(spectrum, k):
    """Both sides of Σ(σ_{k+1}−σᵢ)² ≤ C·Σ(σ_{k+1}−σᵢ)σᵢ as (lhs, rhs).

    Rounding-level gaps count as exact zeros (:func:`_next_gaps`).
    """
    d = _next_gaps(spectrum, k)
    sig = spectrum.values
    c = yang_coefficient(spectrum.dim, spectrum.alpha)
    return float(np.sum(d ** 2)), float(c * np.sum(d * sig[:k]))


def cheng_yang_sum(spectrum, k):
    """Both sides of the Cheng–Yang inequality as (lhs, rhs).

    lhs = Σ(σ_{k+1}−σᵢ), rhs = (2√(n+α)/n)·{Σ(σ_{k+1}−σᵢ)^½ ·
    Σ(σ_{k+1}−σᵢ)^½ σᵢ}^½.  Rounding-level gaps count as exact zeros on
    both sides (:func:`_next_gaps`): under the square root, a rounding gap
    would add √ε noise to rhs.
    """
    d = _next_gaps(spectrum, k)
    n, alpha = spectrum.dim, spectrum.alpha
    sig = spectrum.values
    root = np.sqrt(d)
    rhs = (2.0 * math.sqrt(n + alpha) / n) * math.sqrt(
        float(np.sum(root)) * float(np.sum(root * sig[:k])))
    return float(np.sum(d)), rhs


def yang_type_next_upper(spectrum, k):
    """Largest root of k x² − (2+C)S₁ x + (1+C)S₂, an upper bound on σ_{k+1}.

    The root is extracted in the cancellation-safe form because C grows
    linearly in α.
    """
    _check_k(spectrum, k)
    sig = spectrum.values[:k]
    c = yang_coefficient(spectrum.dim, spectrum.alpha)
    s1 = float(np.sum(sig))
    s2 = float(np.sum(sig ** 2))
    a = float(k)
    b = -(2.0 + c) * s1
    cc = (1.0 + c) * s2
    disc = b * b - 4.0 * a * cc
    if disc < 0:
        raise SpectrumError(
            f"negative discriminant at k={k}: the first {k} eigenvalues are "
            "inconsistent with the quadratic eigenvalue inequality")
    q = -0.5 * (b - math.sqrt(disc))  # b < 0, so this is the larger root's numerator
    return q / a


def average_upper(spectrum, k):
    """(1 + C) times the running mean of σ₁..σ_k; upper bound on σ_{k+1}."""
    _check_k(spectrum, k)
    c = yang_coefficient(spectrum.dim, spectrum.alpha)
    return (1.0 + c) * float(np.mean(spectrum.values[:k]))


def gap_upper(spectrum, k):
    """C times the running mean; upper bound on the gap σ_{k+1} − σ_k."""
    _check_k(spectrum, k)
    c = yang_coefficient(spectrum.dim, spectrum.alpha)
    return c * float(np.mean(spectrum.values[:k]))


def levitin_parnovski_gap(spectrum, k):
    """Gap bound max{4+α², (n+2)α+8}/(n+α) times the running mean."""
    _check_k(spectrum, k)
    n, alpha = spectrum.dim, spectrum.alpha
    coeff = max(4.0 + alpha ** 2, (n + 2) * alpha + 8.0) / (n + alpha)
    return coeff * float(np.mean(spectrum.values[:k]))


def hook_sum_ratio(spectrum, k):
    """Hook's trace bound: (lhs, rhs) of Σ σᵢ/(σ_{k+1}−σᵢ) ≥ n²k/(4(n+α)).

    Raises :class:`DegenerateGapError` when σ_{k+1} and σ_k coincide within
    ``DEGENERATE_GAP_RTOL`` (the ratio is then undefined, not violated).
    """
    _check_k(spectrum, k, need_next=True)
    sig = spectrum.values
    if sig[k] - sig[k - 1] <= DEGENERATE_GAP_RTOL * sig[k]:
        raise DegenerateGapError(
            f"sigma_{k + 1} equals sigma_{k} within tolerance; ratio undefined")
    lhs = float(np.sum(sig[:k] / (sig[k] - sig[:k])))
    n, alpha = spectrum.dim, spectrum.alpha
    rhs = n ** 2 * k / (4.0 * (n + alpha))
    return lhs, rhs


def sphere_surface_measure(n):
    """omega_{n-1} = 2 pi^{n/2} / Gamma(n/2), via log-gamma for large n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi)
                    - math.lgamma(0.5 * n))


def levine_protter_lower(geometry, k):
    """Lower bound (4π²n/(n+2))·k^{1+2/n}/(V ω_{n−1})^{2/n} on Σᵢ≤k σᵢ."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = geometry.dim
    measure = geometry.volume * sphere_surface_measure(n)
    return (4.0 * math.pi ** 2 * n / (n + 2)) * k ** (1.0 + 2.0 / n) \
        / measure ** (2.0 / n)


def low_order_sides(spectrum):
    """(bound, measured) of σ₂+⋯+σ_{n+1} ≤ (n + 4(1+α))σ₁."""
    n = spectrum.dim
    if len(spectrum) < n + 1:
        raise SpectrumError(
            f"low-order bound needs {n + 1} eigenvalues, have {len(spectrum)}")
    sig = spectrum.values
    measured = float(np.sum(sig[1:n + 1]))
    return (n + 4.0 * (1.0 + spectrum.alpha)) * sig[0], measured


def index_growth_upper(sigma1, n, alpha, k):
    """Bound (1 + a(n+α)/n²)·k^{2(n+α)/n²}·σ₁ with the ceiling a = 4.

    Conservative: the sharp dimension constant is not available, only its
    ceiling, so the bound is valid but not tight.
    """
    if sigma1 <= 0 or k < 1 or n < 1 or alpha < 0:
        raise ValueError("need sigma1 > 0, k >= 1, n >= 1, alpha >= 0")
    a = INDEX_GROWTH_CONSTANT
    exponent = 2.0 * (n + alpha) / n ** 2
    try:
        bound = (1.0 + a * (n + alpha) / n ** 2) * k ** exponent * sigma1
    except OverflowError:  # from k ** exponent; the products give inf
        bound = math.inf
    if bound == math.inf:
        raise ValueError(f"index-growth bound overflows at k = {k}")
    return bound


#: a box record: ``sides(spectrum, geometry, k)`` is its (measured, bound)
#: at k, its band covers σ₁..σ_{k+covers}; a row ``at`` an index (a function
#: of n) is judged once, after the per-k rows, a ``volume`` row needs geometry
BoxRow = namedtuple("BoxRow", "name kind sense covers sides note at volume",
                    defaults=("", None, False))
#: every box record, in report order
BOX_RECORDS = (
    BoxRow("yang_quadratic", "quadratic_form", "upper", 1,
           lambda s, g, k: yang_type_quadratic(s, k)),
    BoxRow("cheng_yang", "quadratic_form", "upper", 1,
           lambda s, g, k: cheng_yang_sum(s, k)),
    BoxRow("next_upper", "upper_next", "upper", 1,
           lambda s, g, k: (s.values[k], yang_type_next_upper(s, k))),
    BoxRow("average_upper", "upper_next", "upper", 1,
           lambda s, g, k: (s.values[k], average_upper(s, k))),
    BoxRow("gap_upper", "gap", "upper", 1,
           lambda s, g, k: (s.values[k] - s.values[k - 1], gap_upper(s, k))),
    BoxRow("levitin_parnovski_gap", "gap", "upper", 1,
           lambda s, g, k: (s.values[k] - s.values[k - 1],
                            levitin_parnovski_gap(s, k))),
    BoxRow("hook_sum_ratio", "sum_ratio", "lower", 1,
           lambda s, g, k: hook_sum_ratio(s, k)),
    BoxRow("levine_protter_sum", "lower_sum", "lower", 0,
           lambda s, g, k: (np.sum(s.values[:k]), levine_protter_lower(g, k)),
           volume=True),
    BoxRow("index_growth", "index_growth", "upper", 1,
           lambda s, g, k: (s.values[k], index_growth_upper(
               float(s.values[0]), s.dim, s.alpha, k)),
           "conservative constant"),
    BoxRow("low_order", "low_order", "upper", 0,
           lambda s, g, k: low_order_sides(s)[::-1], at=lambda n: n + 1),
)


def evaluate_all(spectrum, k_max, geometry=None, tolerance=None):
    """The records of :data:`BOX_RECORDS` for k = 1..k_max.  A failing row
    (degenerate gap, missing data) makes a skip record, never an abort;
    the volume rows are left out without ``geometry``."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if len(spectrum) < k_max + 1:
        raise SpectrumError(
            f"need {k_max + 1} eigenvalues for k_max={k_max}, "
            f"have {len(spectrum)}")
    tol = tolerance or VerifyTolerance()
    rows = [row for row in BOX_RECORDS if geometry or not row.volume]
    steps = [(row, k) for k in range(1, k_max + 1)
             for row in rows if not row.at]
    steps += [(row, row.at(spectrum.dim)) for row in rows if row.at]
    records = []
    for row, k in steps:
        try:
            measured, bound = map(float, row.sides(spectrum, geometry, k))
        except ValueError as err:
            records.append(BoundRecord(row.name, row.kind, k, math.nan,
                                       math.nan, math.nan, "skip", str(err)))
            continue
        band = tol.band(k + row.covers, max(abs(bound), abs(measured)))
        records.append(make_record(row.name, row.kind, k, bound, measured,
                                   band, row.sense, row.note))
    return records


CAP_DIM = 2  # caps live in the round 2-sphere
#: smallest hemisphere equality band, relative to the exact value
CAP_EQUALITY_FLOOR = 0.005
#: every cap record, in report order: (name, cap kind, kind, sense, c,
#: times λ₁), its bound c·λ₁ or c; a lower bound's c is n, an equality's
#: the exact value on the hemisphere, the only cap where it is judged
CAP_RECORDS = (
    ("clamped_vs_n_lambda1", "clamped", "cap_strict_lower", "strict lower",
     CAP_DIM, True),
    ("buckling_vs_n", "buckling", "cap_strict_lower", "strict lower",
     CAP_DIM, False),
    ("p1_vs_n_lambda1", "p_problem", "cap_lower", "lower", CAP_DIM, True),
    ("q1_vs_n", "q_problem", "cap_lower", "lower", CAP_DIM, False),
    ("lambda1_hemisphere", "dirichlet_laplacian", "cap_equality", "equality",
     2.0, False),
    ("p1_hemisphere", "p_problem", "cap_equality", "equality", 4.0, False),
    ("q1_hemisphere", "q_problem", "cap_equality", "equality", 2.0, False),
)


def evaluate_cap(values, bands, boundary_mean_curvature_nonneg, hemisphere):
    """The records of the cap kinds in ``values`` (first eigenvalues, λ₁
    among them) at error bands ``bands``; a bound c·λ₁ adds c·(λ₁'s band).
    The paper claims nothing where the rim's mean curvature is < 0: there
    the strict records are exploratory and the others skipped."""
    lam, lam_band = values["dirichlet_laplacian"], bands["dirichlet_laplacian"]
    records = []
    for name, kind, record_kind, sense, c, times_lambda1 in CAP_RECORDS:
        if kind not in values or sense == "equality" and not hemisphere:
            continue
        bound, band, note = (c * lam, bands[kind] + c * lam_band, "") \
            if times_lambda1 else (float(c), bands[kind], "")
        if sense == "equality":
            band = max(band, CAP_EQUALITY_FLOOR * c)
            note = f"equality within slack {band:.3g}"
        elif not boundary_mean_curvature_nonneg:
            note = "exploratory (no claim here)" if sense == "strict lower" \
                else "hypothesis not satisfied: boundary mean curvature < 0"
        record = make_record(name, record_kind, 1, bound, values[kind], band,
                             sense, note)
        skip = not boundary_mean_curvature_nonneg and sense == "lower"
        records.append(replace(record, verdict="skip") if skip else record)
    return records
