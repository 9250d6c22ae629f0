"""Piecewise-constant pi-pulse catalog and the pulse angle psi(t).

Pulse shapes are stored as fractions of the duration tau_p with amplitudes in
units of 1/tau_p, so a single catalog entry serves every peak amplitude v via
tau_p = (v tau_p product) / v.  The rotation angle

    psi(t) = 2 * integral_0^t v(t') dt'

is piecewise linear, so F(x) = int_0^x e^{i psi} is "constant + c e^{i b x}" on
each segment.  The closed forms read one layout of a shape, (edges,
amplitudes) from ``_layout``: the n + 1 segment boundaries and the n
amplitude_taup values, as lists of Python floats; psi at the edges is the
running sum of 2 a dx (``_edge_angles``).  Every segment integral of the
package is a short sum over one table of closed-form primitives of F, built
on a shape's layout: one pass over it gives S and C here and the moments,
the ordered sine integral and the anomalous kernel in ``magnus``
(``_shape_sums``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources
from itertools import accumulate

import numpy as np

from .errors import CatalogInvalid, NotFirstOrder, OutOfRangeError
from .noise import TimeGrid, _subdivide

#: the one tolerance of a first-order pi-pulse, in fraction units: catalog
#: validation, the first-order requirement and the design search accept a
#: shape when |psi(1) - pi|, |S|/tau_p and |C|/tau_p are at most this
PULSE_TOL = 1e-9

#: below this angle |b dx| of a segment the closed forms lose digits to
#: cancellation (about 14 are left just above it) and Taylor series take over,
#: as they do for a zero-amplitude segment.  It lies under the smallest
#: segment angle of the shipped shapes (0.499) and of the 3- to 5-segment
#: designs that ``minimize_i32`` finds at seed 0 (above 0.9 at budget
#: 2000 x 3 restarts), so their S and C keep the bits of the closed form.
SERIES_MAX_ANGLE = 0.1
#: 1/(n+3)! for n = 9..0, enough for full precision below SERIES_MAX_ANGLE
_SERIES_COEFFS = tuple(1.0 / math.factorial(n + 3) for n in range(9, -1, -1))


@dataclass(frozen=True)
class PulseSegment:
    """One constant-amplitude stretch, in fractions of tau_p.

    ``amplitude_taup`` is the amplitude multiplied by tau_p (units 1/tau_p),
    so the segment's angle contribution 2 * amplitude_taup * (end - start)
    does not depend on the duration.
    """

    start: float
    end: float
    amplitude_taup: float


def _layout(segments: tuple[PulseSegment, ...]) -> tuple[list[float], list[float]]:
    """(edges, amplitudes) of a shape: n + 1 boundaries, n amplitude_taup values."""
    return [segments[0].start] + [s.end for s in segments], [s.amplitude_taup for s in segments]


def _edge_angles(edges: list[float], amplitudes: list[float]) -> list[float]:
    """psi at the edges, the running sum of 2 a dx from 0 (duration-independent).

    Python floats in numpy's order: ``accumulate`` adds left to right, as
    ``np.cumsum`` does, so the angles are the same to the bit.
    """
    return [0.0, *accumulate(2.0 * a * (x1 - x0)
                             for a, x0, x1 in zip(amplitudes, edges, edges[1:]))]


@dataclass(frozen=True)
class PiecewiseConstantPulse:
    name: str
    tau_p: float
    segments: tuple[PulseSegment, ...]
    order: int = 0

    def __post_init__(self):
        if not 0.0 < self.tau_p < math.inf:
            raise ValueError("tau_p must be positive and finite")
        if not self.segments:
            raise ValueError("pulse needs at least one segment")
        prev = 0.0
        for seg in self.segments:
            if seg.start != prev:
                raise ValueError(f"{self.name}: segments do not tile [0, 1]")
            if seg.end <= seg.start:
                raise ValueError(f"{self.name}: empty or reversed segment")
            prev = seg.end
        if prev != 1.0:
            raise ValueError(f"{self.name}: segments do not end at 1")

    # -- geometry -----------------------------------------------------------

    @property
    def v_tau_product(self) -> float:
        """Peak amplitude times tau_p (the shape's v*tau_p invariant)."""
        return float(np.abs(_layout(self.segments)[1]).max())

    @property
    def peak_amplitude(self) -> float:
        return self.v_tau_product / self.tau_p

    @property
    def switching_instants(self) -> np.ndarray:
        """Interior jump times, in time units."""
        return np.array(_layout(self.segments)[0][1:-1]) * self.tau_p

    @property
    def edge_angles(self) -> np.ndarray:
        """psi at the segment boundaries (duration-independent)."""
        return np.array(_edge_angles(*_layout(self.segments)))

    @property
    def total_angle(self) -> float:
        return float(self.edge_angles[-1])

    def with_duration(self, tau_p: float) -> "PiecewiseConstantPulse":
        return PiecewiseConstantPulse(self.name, tau_p, self.segments, self.order)

    def for_inverse_amplitude(self, inv_v: float) -> "PiecewiseConstantPulse":
        """Same shape, rescaled so the peak amplitude is 1/inv_v."""
        if inv_v <= 0.0:
            raise ValueError("inv_v must be positive")
        return self.with_duration(self.v_tau_product * inv_v)

    # -- evaluation ---------------------------------------------------------

    def amplitudes_on(self, times: np.ndarray) -> np.ndarray:
        """Vectorized v(t) at an array of times inside [0, tau_p]."""
        x = np.asarray(times, dtype=float) / self.tau_p
        edges, amps = map(np.array, _layout(self.segments))
        idx = np.minimum(np.searchsorted(edges[1:], x, side="right"), len(amps) - 1)
        return amps[idx] / self.tau_p

    def angle_at(self, t: float) -> float:
        """psi(t) = 2 int_0^t v, piecewise linear and continuous."""
        if not 0.0 <= t <= self.tau_p:
            raise OutOfRangeError(f"t={t} outside [0, {self.tau_p}]")
        return float(self.angles_on(np.array([t]))[0])

    def angles_on(self, times: np.ndarray) -> np.ndarray:
        """Vectorized psi(t) at an array of times inside [0, tau_p]."""
        x = np.asarray(times, dtype=float) / self.tau_p
        edges, amps = _layout(self.segments)
        angles = np.array(_edge_angles(edges, amps))
        edges, amps = np.array(edges), np.array(amps)
        idx = np.minimum(np.searchsorted(edges[1:], x, side="left"), len(amps) - 1)
        return angles[idx] + 2.0 * amps[idx] * (x - edges[idx])


def _primitive_table(widths: list[float], slopes: list[float], angles: list[float]
                     ) -> list[tuple[complex, complex, float, complex]]:
    """Closed-form integrals of g(y) = int_0^y e^{i psi(x0+u)} du per interval.

    Interval k is [x0, x0+dx] with dx = widths[k], d(psi)/dx = b = slopes[k],
    psi(x0) = angles[k] and psi(x0+dx) = angles[k+1], in any consistent time
    unit: ``(dF, G, Q, W)`` = (g(dx), int_0^dx g, int_0^dx |g|^2,
    int_0^dx g' conj(g)).  With E_k(theta) = sum_n (i theta)^n / (n+k)! and
    theta = b dx: dF = e0 dx E_1, G = e0 W, W = dx^2 E_2 and
    Q = 2 dx^3 Re E_3, where e0 = e^{i psi(x0)}.  The series branch is exact
    at b = 0.
    """
    table = []
    for dx, b, p0, p1 in zip(widths, slopes, angles[:-1], angles[1:]):
        theta = b * dx
        e0 = complex(math.cos(p0), math.sin(p0))
        if abs(theta) < SERIES_MAX_ANGLE:
            e3 = 0j
            for coeff in _SERIES_COEFFS:
                e3 = coeff + 1j * theta * e3
            e2 = 0.5 + 1j * theta * e3
            d_f = e0 * dx * (1.0 + 1j * theta * e2)
            w = dx * dx * e2
            q = 2.0 * dx**3 * e3.real
        else:
            d_f = complex((math.sin(p1) - math.sin(p0)) / b,
                          (math.cos(p0) - math.cos(p1)) / b)
            w = (e0.conjugate() * d_f - dx) / (1j * b)
            q = 2.0 * (dx - math.sin(theta) / b) / (b * b)
        table.append((d_f, e0 * w, q, w))
    return table


def _shape_sums(edges: list[float], amplitudes: list[float]
                ) -> tuple[float, complex, complex, float, float]:
    """psi(1), F(1), int_0^1 x e^{i psi} dx, D and K of a shape, in fraction units.

    One primitive table over the (edges, amplitudes) layout, with the angles
    of ``_edge_angles`` (so F = F0 + g on each segment), and one pass over it:
    the first moment adds x1 dF - G per segment, the ordered sine integral
    D = Im int_0^1 e^{i psi} conj(F) adds conj(F0) dF + W, and the kernel K
    of ``magnus`` adds |c|^2 dx + 4 Re(conj(c) G) + 4 Q with c = 2 F0 - F(1).
    All of it is Python float arithmetic: on five segments a numpy call costs
    more than the sum it does.
    """
    widths = [x1 - x0 for x0, x1 in zip(edges, edges[1:])]
    angles = _edge_angles(edges, amplitudes)
    table = _primitive_table(widths, [2.0 * a for a in amplitudes], angles)
    f1 = 0j
    for d_f, _, _, _ in table:
        f1 += d_f
    f0 = moment = ordered = 0j
    acc = 0.0
    for x1, dx, (d_f, g, q, w) in zip(edges[1:], widths, table):
        c = 2.0 * f0 - f1
        acc += (c.real**2 + c.imag**2) * dx + 4.0 * ((c.conjugate() * g).real + q)
        moment += x1 * d_f - g
        ordered += f0.conjugate() * d_f + w
        f0 += d_f
    kernel = 0.5 * acc - 0.5 * (f1.real**2 + f1.imag**2)
    return angles[-1], f1, moment, ordered.imag, kernel


def first_order_integrals(pulse: PiecewiseConstantPulse) -> tuple[float, float]:
    """Closed-form S = int_0^tau_p sin psi dt and C = int_0^tau_p cos psi dt.

    Both vanish for first-order pulses; a rectangular pi-pulse gives
    (2 tau_p / pi, 0).
    """
    f1 = _shape_sums(*_layout(pulse.segments))[1]
    return f1.imag * pulse.tau_p, f1.real * pulse.tau_p


def _pi_pulse_residuals(sums: tuple) -> tuple[float, float, float]:
    """(psi(1) - pi, S/tau_p, C/tau_p) from a shape's ``_shape_sums``: all three
    lie within PULSE_TOL of 0 for a first-order pi-pulse."""
    angle, f1 = sums[:2]
    return angle - math.pi, f1.imag, f1.real


def _require_first_order(pulse: PiecewiseConstantPulse) -> None:
    """Raise NotFirstOrder unless |S| and |C| are at most PULSE_TOL * tau_p."""
    s_val, c_val = first_order_integrals(pulse)
    tol = PULSE_TOL * pulse.tau_p
    if max(abs(s_val), abs(c_val)) > tol:
        raise NotFirstOrder(f"{pulse.name} is not a first-order pulse: "
                            f"S={s_val:.2e}, C={c_val:.2e} exceed {tol:.1e}")


# -- catalog ----------------------------------------------------------------


class PulseCatalog:
    """Named collection of unit-duration pulse shapes."""

    def __init__(self, pulses: dict[str, PiecewiseConstantPulse]):
        self.pulses = dict(pulses)

    def __getitem__(self, name: str) -> PiecewiseConstantPulse:
        key = name.upper()
        if key not in self.pulses:
            raise KeyError(f"unknown pulse {name!r}; have {sorted(self.pulses)}")
        return self.pulses[key]

    def __contains__(self, name: str) -> bool:
        return name.upper() in self.pulses

    def __iter__(self):
        return iter(self.pulses.values())


def _pulse_from_record(k: int, rec) -> PiecewiseConstantPulse:
    """The pulse of record k; a record of the wrong shape is a ValueError."""
    if not isinstance(rec, dict):
        raise ValueError(f"record {k} is not an object")
    name, segs = rec.get("name"), rec.get("segments")
    if not isinstance(name, str):
        raise ValueError(f"record {k}: name must be a string, got {name!r}")
    if not (isinstance(segs, list) and all(isinstance(s, dict) for s in segs)):
        raise ValueError(f"record {k} ({name}): segments must be a list of objects")
    try:
        segments = tuple(PulseSegment(float(s["start"]), float(s["end"]),
                                      float(s["amplitude_taup"])) for s in segs)
        order = int(rec.get("order", 0))
    except TypeError as exc:   # a null, list or object where a number belongs
        raise ValueError(f"record {k} ({name}): {exc}") from None
    return PiecewiseConstantPulse(name.upper(), 1.0, segments, order)


def _pulse_to_record(pulse: PiecewiseConstantPulse) -> dict:
    return {
        "name": pulse.name,
        "order": pulse.order,
        "segments": [
            {"start": repr(s.start), "end": repr(s.end), "amplitude_taup": repr(s.amplitude_taup)}
            for s in pulse.segments
        ],
    }


def load_catalog(path=None) -> PulseCatalog:
    """Load a catalog JSON file; defaults to the shipped catalog.

    The file holds a non-empty list of records, each an object with a string
    ``name`` and a list of segment objects; anything else is a ValueError.
    Names are upper-cased, and a name given twice (in any case) is refused.
    Numeric fields are decimal strings so the file preserves the full
    precision that the shipped shapes were specified with.
    """
    if path is None:
        text = resources.files("pulselab").joinpath("data/catalog.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    records = json.loads(text)
    if not isinstance(records, list) or not records:
        raise ValueError("a catalog is a non-empty JSON list of pulse records")
    pulses = {}
    for k, rec in enumerate(records):
        pulse = _pulse_from_record(k, rec)
        if pulse.name in pulses:
            raise ValueError(f"pulse {pulse.name} is defined twice")
        pulses[pulse.name] = pulse
    return PulseCatalog(pulses)


def save_catalog(pulses, path) -> None:
    """Write pulses (iterable or catalog) to a catalog JSON file, creating its
    directory."""
    records = [_pulse_to_record(p) for p in pulses]
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


# -- validation -------------------------------------------------------------


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)  # (pulse, check, ok, detail)

    def add(self, pulse: str, check: str, ok: bool, detail: str):
        self.checks.append((pulse, check, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, _, ok, _ in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c[2]]

    def __str__(self) -> str:
        lines = []
        for pulse, check, ok, detail in self.checks:
            lines.append(f"{'PASS' if ok else 'FAIL'}  {pulse:9s} {check}: {detail}")
        return "\n".join(lines)


_CHECKS = (("total-angle", "|psi(tau_p) - pi|"), ("first-order-sin", "|S|"),
           ("first-order-cos", "|C|"))


def validate_catalog(catalog: PulseCatalog) -> ValidationReport:
    """Check total angle = pi for every pulse and S = C = 0 for order >= 1,
    each within PULSE_TOL, from one pass over each (unit-duration) shape."""
    report = ValidationReport()
    for pulse in catalog:
        residuals = _pi_pulse_residuals(_shape_sums(*_layout(pulse.segments)))
        checks = _CHECKS if pulse.order >= 1 else _CHECKS[:1]   # order 0: the angle alone
        for (check, label), value in zip(checks, residuals):
            report.add(pulse.name, check, abs(value) <= PULSE_TOL, f"{label} = {abs(value):.2e}")
    return report


def require_valid(catalog: PulseCatalog) -> PulseCatalog:
    """The catalog, or CatalogInvalid naming its first failed check."""
    failures = validate_catalog(catalog).failures
    if failures:
        pulse, check, _, detail = failures[0]
        raise CatalogInvalid(f"invalid catalog: {pulse} {check}: {detail}")
    return catalog


# -- grids and perturbations -------------------------------------------------


def grid_is_aligned(pulse: PiecewiseConstantPulse, grid: TimeGrid) -> bool:
    """True when the grid spans the pulse and hits every switching instant exactly."""
    if grid.tau_p != pulse.tau_p:
        return False
    b = grid.boundaries
    return all(np.any(b == t) for t in pulse.switching_instants)


def _require_steps(pulse: PiecewiseConstantPulse, n_steps: int) -> None:
    """Refuse a grid of fewer steps than `pulse` has segments (ValueError)."""
    if n_steps < len(pulse.segments):
        raise ValueError(f"need at least {len(pulse.segments)} steps for {pulse.name}")


def build_time_grid(pulse: PiecewiseConstantPulse, n_steps: int) -> TimeGrid:
    """Uniform-per-segment grid with every switching instant on a boundary.

    Steps are distributed over segments proportionally to segment length
    (largest-remainder rounding, at least one step per segment), so the total
    step count equals n_steps whenever n_steps >= number of segments.
    """
    _require_steps(pulse, n_steps)
    edges = np.array(_layout(pulse.segments)[0])
    ideal = np.diff(edges) * n_steps
    counts = np.maximum(1, np.floor(ideal).astype(int))
    short = n_steps - int(counts.sum())
    if short > 0:
        order = np.argsort(-(ideal - np.floor(ideal)))
        for i in range(short):
            counts[order[i % len(counts)]] += 1
    while counts.sum() > n_steps:
        # the minimum of one step per tiny segment can overshoot the total;
        # take steps back from the currently most over-represented segments
        excess = np.where(counts > 1, counts - ideal, -np.inf)
        counts[int(np.argmax(excess))] -= 1
    return _subdivide(edges * pulse.tau_p, counts)


def truncate_pulse(pulse: PiecewiseConstantPulse, decimals: int) -> PiecewiseConstantPulse:
    """Round segment fractions and amplitudes to a fixed number of decimals.

    Emulates a finite-accuracy realization of the shape; the result is
    generally no longer an exact pi-pulse, which is the point.
    """
    segs = []
    prev = 0.0
    for k, s in enumerate(pulse.segments):
        end = 1.0 if k == len(pulse.segments) - 1 else round(s.end, decimals)
        segs.append(PulseSegment(prev, end, round(s.amplitude_taup, decimals)))
        prev = end
    return PiecewiseConstantPulse(pulse.name + f"~{decimals}d", pulse.tau_p,
                                  tuple(segs), pulse.order)
