"""End-to-end per-transform certification pipelines.

Each pipeline produces a CertificationResult whose verdict is auditable
from its recorded fields: a certified verdict always stores the
estimated lower confidence bound, the aliasing bound when one was used,
and the parameter-space bound the declared region was compared against.

* ``certify_resolvable``: blur and reflect-padded translation via the
  closed-form radius of the query's noise family.
* ``certify_bc_rectangle``: brightness/contrast rectangles via the
  confidence-shift chain; both sides of the final inequality are
  monotone enough that checking the rectangle's corners under the worst
  endpoint shift covers the interior.
* ``certify_diff_resolvable``: rotation / scaling via an aliasing bound
  plus progressive certification of every anchor parameter, jointly at
  1 - alpha, in one pass.  Anchors read only their first check against
  the bound built from the anchors alone (as arrays, for an affine
  classifier) until one cannot be decided there; from that anchor on
  they run in full against the grid's bound.
* ``certify_translation_enum``: exact brute-force enumeration for
  black-padded translation (no statistics involved).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .aliasing import AliasingBound, IntervalGrid, aliasing_bound
from .radii import ConfidencePair, bc_condition, bc_confidence_shift, closed_form_radius
from .smoothing import (ABSTAIN, BaseClassifier, RowStream, SmoothedQuery, _isotropic_sigma,
                        _label_params, certify, predict, progressive_certify)
from .tensor import ImageTensor
from .transforms import _BLOCK_IMAGES, transform_spec

__all__ = [
    "ParameterSet",
    "CertificationResult",
    "SampleReport",
    "ReportTable",
    "certify_resolvable",
    "certify_bc_rectangle",
    "certify_diff_resolvable",
    "certify_translation_enum",
    "robust_accuracy_report",
]

CERTIFIED = "certified"
NOT_CERTIFIED = "not_certified"
ABSTAINED = "abstain"


@dataclass(frozen=True)
class ParameterSet:
    """A declared region of transform parameters to certify.

    kinds: 'blur' ([0, alpha_max]), 'disk' (displacement radius rho),
    'rect' ([k_lo, k_hi] x [b_lo, b_hi]).  Rotation and scaling certify
    the range of their ``IntervalGrid``.
    """

    kind: str
    bounds: tuple

    def __post_init__(self):
        object.__setattr__(self, "bounds", tuple(float(v) for v in self.bounds))
        b = self.bounds
        if not all(math.isfinite(v) for v in b):
            raise ValueError(f"{self.kind} region bounds must be finite, got {b}")
        if self.kind == "blur":
            if len(b) != 1 or b[0] <= 0.0:
                raise ValueError("blur region needs alpha_max > 0")
        elif self.kind == "disk":
            if len(b) != 1 or b[0] < 0.0:
                raise ValueError("disk region needs radius >= 0")
        elif self.kind == "rect":
            if len(b) != 4 or b[0] > b[1] or b[2] > b[3]:
                raise ValueError("rect region needs k_lo <= k_hi and b_lo <= b_hi")
        else:
            raise ValueError(f"unknown region kind {self.kind!r}")

    @classmethod
    def blur_interval(cls, alpha_max: float) -> "ParameterSet":
        return cls("blur", (alpha_max,))

    @classmethod
    def translation_disk(cls, rho: float) -> "ParameterSet":
        return cls("disk", (rho,))

    @classmethod
    def bc_rect(cls, k_lo: float, k_hi: float, b_lo: float, b_hi: float) -> "ParameterSet":
        return cls("rect", (k_lo, k_hi, b_lo, b_hi))


@dataclass(frozen=True)
class CertificationResult:
    """Verdict plus every quantity needed to re-check it offline."""

    verdict: str
    predicted_class: int
    p_a_lower: float | None
    region_bound: float | None
    aliasing: AliasingBound | None
    samples_used: int
    witness: tuple | None = None
    # rotation/scaling: an anchor's first check could not decide, so the
    # row read the smaller of the two-point and the grid's own bound
    refined: bool = False

    @property
    def certified(self) -> bool:
        return self.verdict == CERTIFIED


class PipelineConfigError(ValueError):
    """Incompatible transform / noise / region combination."""


def certify_resolvable(x: ImageTensor, label: int, q: SmoothedQuery,
                       region: ParameterSet) -> CertificationResult:
    """Certify blur or reflect-padded translation via a closed-form radius.

    Blur pairs with a scalar noise family that draws no negative
    parameter (``SmoothedQuery`` enforces this) and certifies
    [0, alpha_max] when alpha_max is under the family's radius;
    translation pairs with isotropic 2-d gaussian noise and certifies
    the displacement disk of radius rho when rho < sigma * (quantile
    gap)/2.
    """
    kind = q.transform.kind
    if kind == "gaussian_blur":
        if region.kind != "blur":
            raise PipelineConfigError("blur certification needs a blur region")
        if q.noise.family == "uniform" and q.noise.params[0] != 0.0:
            raise PipelineConfigError("blur uniform noise must start at 0")
    elif kind == "translation_reflect":
        if region.kind != "disk":
            raise PipelineConfigError("translation certification needs a disk region")
        try:  # before any draw; ``SmoothedQuery`` has checked the dimension
            sigma = _isotropic_sigma(q.noise)
        except ValueError as exc:
            raise PipelineConfigError(f"translation smoothing: {exc}") from None
    else:
        raise PipelineConfigError(
            f"certify_resolvable handles gaussian_blur and translation_reflect, "
            f"got {kind!r}")

    outcome = certify(q, x)
    if outcome.abstained:
        return CertificationResult(ABSTAINED, ABSTAIN, outcome.p_a_lower, None,
                                   None, outcome.samples_used)
    bound = closed_form_radius(q.noise, ConfidencePair(outcome.p_a_lower))
    if kind == "translation_reflect":
        bound *= sigma
    certified = outcome.label == label and region.bounds[0] < bound
    verdict = CERTIFIED if certified else NOT_CERTIFIED
    return CertificationResult(verdict, outcome.label, outcome.p_a_lower,
                               bound, None, outcome.samples_used)


def certify_bc_rectangle(x: ImageTensor, label: int, q: SmoothedQuery,
                         rect: ParameterSet) -> CertificationResult:
    """Certify a brightness/contrast rectangle [k_lo,k_hi] x [b_lo,b_hi].

    The estimated confidence is first degraded by the worst endpoint
    contrast shift (the shift is monotone in |k|, so endpoints are
    worst).  The certification inequality's left side is convex in k and
    monotone in |b|, so it peaks at the rectangle's corners: the region
    is certified iff every corner passes under the worst shifted
    confidence.
    """
    if q.transform.kind != "brightness_contrast":
        raise PipelineConfigError("certify_bc_rectangle needs a brightness_contrast query")
    if rect.kind != "rect":
        raise PipelineConfigError("brightness/contrast certification needs a rect region")
    if q.noise.family != "gaussian":  # ``SmoothedQuery`` has checked the dimension
        raise PipelineConfigError("brightness/contrast smoothing needs gaussian noise")
    sigma, tau = q.noise.sigmas()
    if sigma <= 0.0 or tau <= 0.0:
        raise PipelineConfigError("brightness/contrast noise scales must be positive")

    outcome = certify(q, x)
    if outcome.abstained:
        return CertificationResult(ABSTAINED, ABSTAIN, outcome.p_a_lower, None,
                                   None, outcome.samples_used)
    k_lo, k_hi, b_lo, b_hi = rect.bounds
    p_shift = min(bc_confidence_shift(outcome.p_a_lower, k_lo),
                  bc_confidence_shift(outcome.p_a_lower, k_hi))
    shifted = (ConfidencePair(p_shift) if p_shift >= 0.5
               else ConfidencePair(0.5, 0.5))
    corners_ok = all(
        bc_condition(k, b, sigma, tau, shifted)
        for k in (k_lo, k_hi) for b in (b_lo, b_hi))
    # the half quantile gap that sqrt((k/sigma)^2 + (b e^k / tau)^2) is
    # compared against at the worst-contrast-shifted confidence
    quantile_gap = closed_form_radius(q.noise, shifted)
    certified = outcome.label == label and corners_ok
    verdict = CERTIFIED if certified else NOT_CERTIFIED
    return CertificationResult(verdict, outcome.label, outcome.p_a_lower,
                               quantile_gap, None, outcome.samples_used)


def certify_diff_resolvable(x: ImageTensor, label: int, q: SmoothedQuery,
                            grid: IntervalGrid, batch: int) -> CertificationResult:
    """Certify rotation or scaling over the range [a, b] of ``grid``.

    The grid is the certified interval: an aliasing bound M caps how far
    any image in [a, b] sits from its nearest anchor (a grid point), and
    every anchor is then certified (additive isotropic pixel noise)
    against target sqrt(M), in anchor order.  Certified iff all anchors
    certify the requested label; the first that does not is the witness.

    Each of the N anchors runs at alpha / N.  All read one ``RowStream``
    (shared i.i.d. guess and estimation draws, which the union bound over
    anchors and checks does not mind).  Built before any draw or bound, it
    refuses a query without additive isotropic gaussian noise, fixes the
    row's protocol, and keeps what it reads (C class scores per draw for
    an affine classifier, else the guess draws and first check) plus one
    check's draws; one block of anchor images is alive.

    Anchor 0's guess and first check are read first, against no target.
    A wrong guess ends the row there, as does a hopeless check
    (Hoeffding's bound at the per-check alpha at most 1/2, which no
    target clears); such a row reports no bound.  Otherwise the draw
    buffer is freed, the bound from the anchors alone (two inner points
    per interval) is built, and the anchors' first checks are read
    against it: as arrays for an affine classifier, from the offsets the
    bound's own end images give (``RowStream.end_offsets``), else one by
    one, anchor 0 again from its kept counts.  The first that guesses
    the label but fails there ends the row on that bound if hopeless;
    else it hands the row over (``refined``): the ``grid`` bound is
    built, the smaller of the two kept, and from that anchor on each is
    warped again and runs in full against it.

    Either bound is a valid M, and an anchor certified against the
    larger clears the smaller, so every certified radius exceeds the
    reported ``sqrt_m``.  Every read, the bound-free one included, is one
    of the (anchor, check) events of the full budget at its per-check
    alpha, so one union bound covers them all; a read made twice is
    counted once.  Whenever the grid bound is at most the two-point one,
    as on every grid measured, the verdict is that of the plain loop
    (every anchor in full against the grid bound): a first check that
    certifies against the larger target certifies there with the same
    radius against the smaller, and a wrong or hopeless one fails there.
    No certificate rests on an anchor's futility stop
    (``progressive_certify``); an image that every anchor would certify
    loses its certificate to it with probability at most alpha.  The
    row reports the smallest p_a_lower and radius of its anchors; as the
    bound grows with the hits at one sample count, it bisects only the
    fewest hits certified at each count, or the witness's.
    """
    anchors = grid.anchors()
    anchor_q = replace(q, conf=replace(q.conf, alpha=q.conf.alpha / len(anchors)))
    stream = RowStream(anchor_q, batch)
    spec = transform_spec(grid.kind)
    first = ImageTensor(spec.apply_many(x, anchors[:1])[0])
    prog = progressive_certify(stream, first, math.inf, first_check_only=True)
    bound, refined, samples, alpha_i = None, False, 0, anchors[0]
    if prog.label == label and stream.upper(prog.hits, prog.used) > 0.5:
        stream.drop_draws()
        offsets, keep = stream.end_offsets(first, grid.kind, len(anchors))
        two_point = x, grid.kind, replace(grid, n_inner=2)  # a row without offsets sets no hook
        bound = aliasing_bound(*two_point) if keep is None else aliasing_bound(*two_point, keep)

        def rest(start):  # the pixels of anchors start, start + 1, ...
            return (data for lo in range(start, len(anchors), _BLOCK_IMAGES)
                    for data in spec.apply_many(x, anchors[lo:lo + _BLOCK_IMAGES]))
        # fewest: used -> the certified outcome with the fewest hits
        cleared, fewest, images = stream.first_checks(first, offsets, rest, label,
                                                      bound.sqrt_m)
        samples = cleared * stream.prefix_len
        for alpha_i, image in zip(anchors[cleared:], images):
            prog = progressive_certify(stream, image, bound.sqrt_m, first_check_only=not refined)
            if (not refined and prog.label == label and not prog.certified
                    and stream.upper(prog.hits, prog.used) > 0.5):
                refined = True
                if grid.n_inner != 2:  # on a tie the grid's own bound is kept
                    bound = min(aliasing_bound(x, grid.kind, grid), bound,
                                key=lambda b: b.m_value)
                prog = progressive_certify(stream, image, bound.sqrt_m)
            if prog.label != label or not prog.certified:
                break
            samples += prog.samples_used
            fewest[prog.used] = min(fewest.get(prog.used, prog), prog, key=lambda o: o.hits)
        else:
            # certified because sqrt(M) is below every anchor's sigma * Phi_inv(p_a_lower)
            return CertificationResult(
                CERTIFIED, label, min(o.p_a_lower for o in fewest.values()),
                min(o.radius for o in fewest.values()), bound, samples, refined=refined)
    verdict = ABSTAINED if (not prog.certified and prog.p_a_lower <= 0.5
                            and prog.label == label) else NOT_CERTIFIED
    return CertificationResult(verdict, prog.label, prog.p_a_lower, None, bound,
                               samples + prog.samples_used, witness=(float(alpha_i),),
                               refined=refined)


def certify_translation_enum(x: ImageTensor, label: int, h: BaseClassifier,
                             region: ParameterSet) -> CertificationResult:
    """Exhaustively certify black-padded translation over a disk of shifts.

    Labels every integer displacement with norm <= rho in one batched
    pass; the verdict is exact.  The first failing displacement in
    (m1, m2) order is reported as the witness, and ``samples_used``
    counts the displacements up to it (all of them when none fails).
    A rho above the image diagonal hypot(W, H) is refused: every shift
    past it gives the all-black image, which the disk of radius
    hypot(W, H) already holds at (W, 0), so no verdict would change.
    """
    if region.kind != "disk":
        raise PipelineConfigError("translation enumeration needs a disk region")
    rho = region.bounds[0]
    diagonal = math.hypot(x.width, x.height)
    if rho > diagonal:
        raise PipelineConfigError(
            f"translation-black rho {rho} exceeds the image diagonal {diagonal}: "
            f"every shift past it gives the all-black image")
    r = int(math.floor(rho))
    shifts = [(m1, m2) for m1 in range(-r, r + 1) for m2 in range(-r, r + 1)
              if m1 * m1 + m2 * m2 <= rho * rho]
    labels = _label_params(h, transform_spec("translation_black"), x, np.array(shifts, float))
    base_pred = int(labels[shifts.index((0, 0))])
    failing = np.flatnonzero(labels != label)
    if failing.size:
        first = int(failing[0])
        return CertificationResult(NOT_CERTIFIED, base_pred, None, rho, None, first + 1,
                                   witness=shifts[first])
    return CertificationResult(CERTIFIED, base_pred, None, rho, None, len(shifts))


# ---------------------------------------------------------------------------
# Dataset-level reporting

@dataclass(frozen=True)
class SampleReport:
    """One dataset sample's certification outcome; ``elapsed`` is the
    wall time of its certifier call, in seconds."""

    index: int
    true_label: int
    predicted: int
    result: CertificationResult
    elapsed: float


@dataclass(frozen=True)
class ReportTable:
    """Certified / clean accuracy over a dataset."""

    samples: tuple[SampleReport, ...]
    robust_accuracy: float
    clean_accuracy: float


def robust_accuracy_report(dataset, query: SmoothedQuery, certifier,
                           stride: int = 1) -> ReportTable:
    """Per-sample certification plus clean smoothed accuracy.

    ``dataset`` is a list of (ImageTensor, label); every ``stride``-th
    sample is evaluated, and its row keeps its index in ``dataset``.
    ``query`` is the smoothed classifier whose prediction on each image
    is the clean prediction; ``certifier`` maps (image, label) to a
    CertificationResult, and each call is timed into its row.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if not dataset:
        raise ValueError("dataset must be nonempty")
    evaluated = range(0, len(dataset), stride)
    samples = []
    clean_hits = 0
    robust_hits = 0
    for idx in evaluated:
        x, label = dataset[idx]
        predicted = predict(query, x)
        clean_hits += int(predicted == label)
        t0 = time.perf_counter()
        result = certifier(x, label)
        elapsed = time.perf_counter() - t0
        robust_hits += int(result.certified and result.predicted_class == label)
        samples.append(SampleReport(idx, label, predicted, result, elapsed))
    n = len(evaluated)
    return ReportTable(tuple(samples), robust_hits / n, clean_hits / n)
