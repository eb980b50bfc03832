"""Estimator health monitoring: NIS consistency, covariance watchdogs, input screens.

A fleet-scale deployment cannot eyeball every EKF run; it needs a
machine-readable verdict per track and per trip before an estimate is
allowed into the fused map. This module provides that verdict:

* :class:`HealthMonitor` — the offline analyzer the pipeline threads
  through its stages. ``check_recording`` screens the *raw* recording for
  input pathologies (non-finite bursts, stuck/railed channels, timestamp
  jitter, barometric steps, GPS gaps); ``check_track`` judges one EKF
  track from its recorded innovation sequence (windowed mean NIS against a
  chi-square consistency bound), update gaps, covariance growth and
  conditioning. The per-trip :class:`HealthReport` folds everything into
  one of three verdicts: ``ok`` / ``suspect`` / ``diverged``.
* :class:`StreamingHealthMonitor` — an O(1)-per-tick ring-buffer variant
  for :class:`~repro.core.online.StreamingGradientEstimator`.

Monitors only *observe* — they never feed anything back into the filter —
so estimation outputs are bit-identical with monitoring on or off.

NIS bound
---------
For a consistent filter the normalized innovation squared
``inno^2 / S`` (``S = H P H^T + R``) is chi-square with one degree of
freedom, so the mean over a window of ``W`` updates is ``chi2(W)/W``
distributed. :func:`nis_bound` takes the ``confidence`` quantile of that
distribution and inflates it by ``margin`` to absorb benign model
mismatch (correlated simulator noise, lane-change corrections). With the
defaults (W=25, 1-1e-6 quantile, margin 2) the bound sits 3-4x above the
worst windowed NIS measured on clean simulated drives for all four
velocity sources, while NaN bursts and stuck sensors overshoot it by
orders of magnitude. Thresholds for the input screens were calibrated the
same way — each sits at least 2x above the clean-drive maximum and well
below what the fault taxonomy produces at its default severities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..config import SerializableConfig
from ..errors import ConfigurationError

if TYPE_CHECKING:
    from .telemetry import Telemetry

__all__ = [
    "VERDICTS",
    "HealthConfig",
    "HealthFlag",
    "TrackHealth",
    "HealthReport",
    "HealthMonitor",
    "StreamingHealthMonitor",
    "nis_bound",
]

#: Verdicts, mildest first; per-trip verdict is the worst seen anywhere.
VERDICTS = ("ok", "suspect", "diverged")

#: Raw recording channels the input screen looks at, with whether the
#: channel is continuous-valued (IMU-class: stuck-run and full-scale rail
#: detection are meaningful; quantized channels repeat values legitimately).
_SCREEN_CHANNELS = (
    ("accel_long", True),
    ("accel_lat", True),
    ("gyro", True),
    ("speedometer", True),
    ("barometer", False),
    ("canbus", False),
)

#: ``chi2.ppf(confidence, window) / window`` per ``(window, confidence)``,
#: seeded with the :class:`HealthConfig` default (its ``repr``, checked
#: against ``chi2.ppf`` in ``tests/obs/test_health.py``) so the default
#: monitors never import scipy.
_chi2_cache: dict[tuple[int, float], float] = {(25, 0.999999): 2.955781544911436}


def nis_bound(window: int, confidence: float = 0.999999, margin: float = 2.0) -> float:
    """Upper bound on the windowed mean NIS of a consistent filter.

    ``margin * chi2.ppf(confidence, window) / window`` — see the module
    docstring. The quantile is ``2 * gammaincinv(window / 2, confidence)``
    from :mod:`scipy.special`, which is how scipy's ``chi2.ppf`` computes
    it, so the bound is bit-identical without importing scipy's statistics
    package (~1 s). scipy is a hard dependency; there is no fallback.
    """
    key = (int(window), float(confidence))
    ppf = _chi2_cache.get(key)
    if ppf is None:
        from scipy.special import gammaincinv

        ppf = 2.0 * float(gammaincinv(window / 2, confidence)) / window
        _chi2_cache[key] = ppf
    return margin * ppf


@dataclass(frozen=True)
class HealthConfig(SerializableConfig):
    """Thresholds of the estimator health monitors.

    ``enabled`` turns all monitoring off (the pipeline then attaches no
    :class:`HealthReport`); ``gate_fusion`` additionally excludes
    ``diverged`` tracks from track fusion — off by default so monitoring
    alone never changes estimates.
    """

    enabled: bool = True
    gate_fusion: bool = False
    # -- per-track NIS consistency -----------------------------------------
    nis_window: int = 25
    nis_confidence: float = 0.999999
    nis_margin: float = 2.0
    diverged_factor: float = 4.0
    # -- per-track covariance / update-cadence watchdogs --------------------
    max_update_gap_s: float = 2.5
    variance_growth_factor: float = 4.0
    condition_max: float = 1e8
    # -- raw-input screens --------------------------------------------------
    stuck_run_s: float = 0.5
    rail_min_count: int = 8
    jitter_ratio_max: float = 0.01
    baro_step_m: float = 8.0
    baro_window_s: float = 1.0
    gps_gap_s: float = 2.5

    def __post_init__(self) -> None:
        if self.nis_window < 2:
            raise ConfigurationError("nis_window must be at least 2")
        if not 0.5 < self.nis_confidence < 1.0:
            raise ConfigurationError("nis_confidence must be in (0.5, 1)")
        for name in (
            "nis_margin",
            "diverged_factor",
            "max_update_gap_s",
            "variance_growth_factor",
            "condition_max",
            "stuck_run_s",
            "jitter_ratio_max",
            "baro_step_m",
            "baro_window_s",
            "gps_gap_s",
        ):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be positive")
        if self.rail_min_count < 2:
            raise ConfigurationError("rail_min_count must be at least 2")

    def nis_bound(self) -> float:
        """The configured windowed-mean NIS consistency bound."""
        return nis_bound(self.nis_window, self.nis_confidence, self.nis_margin)


@dataclass(frozen=True)
class HealthFlag:
    """One tripped monitor: what fired, on which signal, how badly."""

    kind: str
    severity: str  # "suspect" or "diverged"
    source: str  # track name, input channel, or "recording"
    value: float
    threshold: float
    detail: str = ""

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "severity": self.severity,
            "source": self.source,
            "value": None if not math.isfinite(self.value) else round(self.value, 6),
            "threshold": round(self.threshold, 6),
        }
        if self.detail:
            out["detail"] = self.detail
        return out


def _worst(verdicts: "Iterable[str]") -> str:
    worst = "ok"
    for v in verdicts:
        if v == "diverged":
            return "diverged"
        if v == "suspect":
            worst = "suspect"
    return worst


@dataclass
class TrackHealth:
    """One EKF track's consistency diagnostics and verdict."""

    name: str
    n_updates: int
    nis_mean: float
    nis_window_max: float
    nis_bound: float
    max_update_gap_s: float
    max_variance: float
    flags: list[HealthFlag] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return _worst(f.severity for f in self.flags)

    def to_dict(self) -> dict:
        def _num(x: float) -> float | None:
            return None if not math.isfinite(x) else round(float(x), 6)

        return {
            "verdict": self.verdict,
            "n_updates": self.n_updates,
            "nis_mean": _num(self.nis_mean),
            "nis_window_max": _num(self.nis_window_max),
            "nis_bound": _num(self.nis_bound),
            "max_update_gap_s": _num(self.max_update_gap_s),
            "max_variance": _num(self.max_variance),
            "flags": [f.to_dict() for f in self.flags],
        }


@dataclass
class HealthReport:
    """Everything one trip's monitoring produced."""

    input_flags: list[HealthFlag] = field(default_factory=list)
    tracks: dict[str, TrackHealth] = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return _worst(
            [f.severity for f in self.input_flags]
            + [t.verdict for t in self.tracks.values()]
        )

    @property
    def flags(self) -> list[HealthFlag]:
        out = list(self.input_flags)
        for track in self.tracks.values():
            out.extend(track.flags)
        return out

    @property
    def n_flags(self) -> int:
        return len(self.input_flags) + sum(
            len(t.flags) for t in self.tracks.values()
        )

    def flag_kinds(self) -> list[str]:
        return sorted({f.kind for f in self.flags})

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "n_flags": self.n_flags,
            "flag_kinds": self.flag_kinds(),
            "input_flags": [f.to_dict() for f in self.input_flags],
            "tracks": {name: t.to_dict() for name, t in sorted(self.tracks.items())},
        }

    def summary(self) -> dict:
        """Small JSON digest for trip outcomes and manifests."""
        return {
            "verdict": self.verdict,
            "n_flags": self.n_flags,
            "flag_kinds": self.flag_kinds(),
            "tracks": {name: t.verdict for name, t in sorted(self.tracks.items())},
        }


def _longest_true_run(mask: np.ndarray) -> int:
    """Length of the longest run of True in a boolean array."""
    n = mask.size
    if n == 0 or not mask.any():
        return 0
    breaks = np.flatnonzero(~mask)
    if breaks.size == 0:
        return n
    longest = max(int(breaks[0]), int(n - 1 - breaks[-1]))
    if breaks.size > 1:
        longest = max(longest, int(np.max(np.diff(breaks)) - 1))
    return longest


def _windowed_mean_max(x: np.ndarray, w: int) -> float:
    """Max over all length-``w`` windowed means (plain mean when short)."""
    if x.size == 0:
        return math.nan
    if x.size < w:
        return float(np.mean(x))
    c = np.cumsum(np.concatenate(([0.0], x)))
    return float(np.max((c[w:] - c[:-w]) / w))


class HealthMonitor:
    """Per-trip health analyzer: input screens plus per-track NIS checks.

    One instance per ``estimate()`` call. The pipeline runs
    :meth:`check_recording` on the raw recording before any stage touches
    it (the sanitize stage repairs NaN bursts, so the screen must see the
    original); the EKF engines call :meth:`check_track` with each track's
    recorded innovation sequence; :meth:`report` folds everything into the
    trip's :class:`HealthReport`. Telemetry (when active) gets one
    ``health.flag`` counter increment — labelled by flag kind and severity
    — and one structured event per tripped monitor, so clean runs add
    nothing to the metrics snapshot.
    """

    def __init__(
        self,
        config: HealthConfig | None = None,
        telemetry: "Telemetry | None" = None,
        p22_initial: float | None = None,
    ) -> None:
        self.config = config or HealthConfig()
        self._tel = telemetry if telemetry is not None and telemetry.active else None
        self.p22_initial = p22_initial
        self.input_flags: list[HealthFlag] = []
        self.tracks: dict[str, TrackHealth] = {}

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    def _flag(
        self,
        flags: list[HealthFlag],
        kind: str,
        severity: str,
        source: str,
        value: float,
        threshold: float,
        detail: str = "",
    ) -> None:
        flags.append(
            HealthFlag(
                kind=kind,
                severity=severity,
                source=source,
                value=float(value),
                threshold=float(threshold),
                detail=detail,
            )
        )
        if self._tel is not None:
            self._tel.count(
                "health.flag", labels={"kind": kind, "severity": severity}
            )
            self._tel.event(
                "health.flag",
                kind=kind,
                severity=severity,
                source=source,
                value=float(value),
                threshold=float(threshold),
            )

    # -- raw-input screen ---------------------------------------------------

    def check_recording(self, recording: object) -> list[HealthFlag]:
        """Screen a raw recording for input pathologies; returns new flags."""
        cfg = self.config
        flags: list[HealthFlag] = []

        for channel, continuous in _SCREEN_CHANNELS:
            sig = getattr(recording, channel, None)
            if sig is None or len(sig.values) < 3:
                continue
            v = np.asarray(sig.values, dtype=float)
            dt = float(np.median(np.diff(sig.t))) if len(sig.t) > 1 else 0.0

            nonfinite = int(np.count_nonzero(~np.isfinite(v)))
            if nonfinite > 0:
                self._flag(
                    flags,
                    "input_nonfinite",
                    "suspect",
                    channel,
                    nonfinite,
                    0.0,
                    detail=f"{nonfinite} non-finite samples",
                )

            if continuous and dt > 0.0:
                eq = v[1:] == v[:-1]
                run_s = (_longest_true_run(eq) + 1) * dt
                if run_s > cfg.stuck_run_s:
                    self._flag(
                        flags,
                        "input_stuck",
                        "suspect",
                        channel,
                        run_s,
                        cfg.stuck_run_s,
                        detail="channel value frozen",
                    )
                finite = v[np.isfinite(v)]
                if finite.size:
                    amax = float(np.max(np.abs(finite)))
                    if amax > 0.0:
                        rail = int(
                            np.count_nonzero(np.abs(np.abs(finite) - amax) < 1e-12)
                        )
                        if rail >= cfg.rail_min_count:
                            self._flag(
                                flags,
                                "input_rail",
                                "suspect",
                                channel,
                                rail,
                                cfg.rail_min_count,
                                detail=f"{rail} samples at full scale +/-{amax:.4g}",
                            )

            if channel == "barometer" and dt > 0.0:
                finite_v = np.where(np.isfinite(v), v, 0.0)
                w = max(1, int(round(cfg.baro_window_s / dt)))
                if len(v) >= 3 * w:
                    c = np.cumsum(np.concatenate(([0.0], finite_v)))
                    means = (c[w:] - c[:-w]) / w
                    step = float(np.max(np.abs(means[w:] - means[:-w])))
                    if step > cfg.baro_step_m:
                        self._flag(
                            flags,
                            "input_baro_step",
                            "suspect",
                            channel,
                            step,
                            cfg.baro_step_m,
                            detail="windowed altitude step",
                        )

        # Timestamp jitter: the canonical recording timebase plus the
        # accelerometer's own clock (the EKF tick source; per-channel
        # timestamp faults never reach the canonical timebase).
        t = np.asarray(getattr(recording, "t", ()), dtype=float)
        accel = getattr(recording, "accel_long", None)
        jitter_bases = [("recording", t)]
        if accel is not None:
            jitter_bases.append(("accel_long", np.asarray(accel.t, dtype=float)))
        for source, tb in jitter_bases:
            if tb.size <= 2:
                continue
            d = np.diff(tb)
            med = float(np.median(d))
            if med <= 0.0:
                continue
            ratio = float(np.std(d) / med)
            if ratio > cfg.jitter_ratio_max:
                self._flag(
                    flags,
                    "input_jitter",
                    "suspect",
                    source,
                    ratio,
                    cfg.jitter_ratio_max,
                    detail="timestamp interval spread / median",
                )
                break

        # GPS availability gaps.
        gps = getattr(recording, "gps", None)
        if gps is not None and len(gps.t) > 0:
            ok = np.asarray(gps.available, dtype=bool)
            t_ok = np.asarray(gps.t, dtype=float)[ok]
            duration = float(t[-1] - t[0]) if t.size > 1 else 0.0
            if t_ok.size < 2:
                self._flag(
                    flags,
                    "input_gps_gap",
                    "suspect",
                    "gps",
                    duration,
                    cfg.gps_gap_s,
                    detail="fewer than two available fixes",
                )
            else:
                gap = float(np.max(np.diff(t_ok)))
                if t.size > 1:
                    gap = max(gap, float(t_ok[0] - t[0]), float(t[-1] - t_ok[-1]))
                if gap > cfg.gps_gap_s:
                    self._flag(
                        flags,
                        "input_gps_gap",
                        "suspect",
                        "gps",
                        gap,
                        cfg.gps_gap_s,
                        detail="longest stretch without a fix",
                    )

        self.input_flags.extend(flags)
        return flags

    # -- per-track analysis -------------------------------------------------

    def check_track(
        self,
        name: str,
        theta: np.ndarray,
        variance: np.ndarray,
        innovations: np.ndarray,
        s: np.ndarray,
        update_ticks: np.ndarray,
        dt: float,
        n_ticks: int,
        final_cov: tuple[float, float, float] | None = None,
    ) -> TrackHealth:
        """Judge one EKF track from its forward-pass innovation record.

        ``innovations`` and ``s`` are the per-update innovation and
        predicted innovation variance (``S = p11 + r``), aligned with
        ``update_ticks`` (tick indices of the updates on the track's
        timebase). ``final_cov`` is the filter's final ``(p11, p12, p22)``
        for the conditioning watchdog.
        """
        cfg = self.config
        flags: list[HealthFlag] = []
        inno = np.asarray(innovations, dtype=float)
        s_arr = np.asarray(s, dtype=float)
        ticks = np.asarray(update_ticks, dtype=int)

        with np.errstate(divide="ignore", invalid="ignore"):
            nis = np.where(s_arr > 0.0, inno * inno / s_arr, np.inf)
        finite = np.isfinite(nis)
        nis_ok = nis[finite]
        bound = cfg.nis_bound()

        n_nonfinite_inno = int(inno.size - np.count_nonzero(np.isfinite(inno)))
        nis_mean = float(np.mean(nis_ok)) if nis_ok.size else math.nan
        window_max = _windowed_mean_max(nis_ok, cfg.nis_window)
        if nis_ok.size and math.isfinite(window_max):
            if window_max > bound * cfg.diverged_factor:
                self._flag(
                    flags, "nis", "diverged", name, window_max, bound,
                    detail=f"windowed mean NIS {cfg.diverged_factor:g}x over bound",
                )
            elif window_max > bound:
                self._flag(
                    flags, "nis", "suspect", name, window_max, bound,
                    detail="windowed mean NIS over the chi-square bound",
                )
        if n_nonfinite_inno > 0:
            self._flag(
                flags, "nonfinite_innovation", "diverged", name,
                n_nonfinite_inno, 0.0,
                detail=f"{n_nonfinite_inno} non-finite innovations",
            )

        theta = np.asarray(theta, dtype=float)
        variance = np.asarray(variance, dtype=float)
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(variance))):
            bad = int(
                np.count_nonzero(~np.isfinite(theta))
                + np.count_nonzero(~np.isfinite(variance))
            )
            self._flag(
                flags, "nonfinite_state", "diverged", name, bad, 0.0,
                detail="non-finite state or covariance samples",
            )

        # Update cadence: longest stretch (leading/trailing included) the
        # filter ran open-loop on predictions alone.
        if ticks.size:
            max_gap = max(int(ticks[0]), int(n_ticks - 1 - ticks[-1]))
            if ticks.size > 1:
                max_gap = max(max_gap, int(np.max(np.diff(ticks)) - 1))
            max_gap_s = max_gap * dt
        else:
            max_gap_s = n_ticks * dt
        if max_gap_s > cfg.max_update_gap_s:
            self._flag(
                flags, "update_gap", "suspect", name,
                max_gap_s, cfg.max_update_gap_s,
                detail="filter ran open-loop too long",
            )

        # Covariance trace watchdog: the gradient variance should only ever
        # shrink below its prior; sustained growth past it means the filter
        # is losing the state.
        var_finite = variance[np.isfinite(variance)]
        max_var = float(np.max(var_finite)) if var_finite.size else math.nan
        if self.p22_initial is not None and math.isfinite(max_var):
            ceiling = self.p22_initial * cfg.variance_growth_factor
            if max_var > ceiling:
                self._flag(
                    flags, "variance_growth", "suspect", name, max_var, ceiling,
                    detail="gradient variance grew past its prior",
                )

        # Covariance conditioning watchdog on the final 2x2 P.
        if final_cov is not None:
            p11, p12, p22 = (float(x) for x in final_cov)
            if not all(math.isfinite(x) for x in (p11, p12, p22)):
                self._flag(
                    flags, "covariance_condition", "diverged", name,
                    math.inf, cfg.condition_max,
                    detail="non-finite covariance",
                )
            else:
                tr = p11 + p22
                det = p11 * p22 - p12 * p12
                if det <= 0.0 or tr <= 0.0:
                    self._flag(
                        flags, "covariance_condition", "diverged", name,
                        math.inf, cfg.condition_max,
                        detail="covariance lost positive definiteness",
                    )
                else:
                    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
                    lmin = (tr - disc) / 2.0
                    cond = (tr + disc) / (2.0 * lmin) if lmin > 0.0 else math.inf
                    if cond > cfg.condition_max:
                        self._flag(
                            flags, "covariance_condition", "suspect", name,
                            cond, cfg.condition_max,
                            detail="ill-conditioned covariance",
                        )

        health = TrackHealth(
            name=name,
            n_updates=int(inno.size),
            nis_mean=nis_mean,
            nis_window_max=window_max if nis_ok.size else math.nan,
            nis_bound=bound,
            max_update_gap_s=float(max_gap_s),
            max_variance=max_var,
            flags=flags,
        )
        self.tracks[name] = health
        return health

    def track_verdict(self, name: str) -> str:
        """The verdict for one track (``ok`` when it was never checked)."""
        health = self.tracks.get(name)
        return health.verdict if health is not None else "ok"

    def report(self) -> HealthReport:
        """The trip's folded health report."""
        return HealthReport(
            input_flags=list(self.input_flags), tracks=dict(self.tracks)
        )


class StreamingHealthMonitor:
    """O(1)-per-tick health tracking for the streaming estimator.

    Maintains a ring buffer of the last ``nis_window`` NIS values, the
    open-loop gap counter and the covariance watchdogs, raising each flag
    kind at most once (phones cannot afford unbounded flag lists). The
    thresholds and verdict semantics match :class:`HealthMonitor`.
    """

    def __init__(
        self,
        config: HealthConfig | None = None,
        p22_initial: float | None = None,
        dt: float = 0.02,
    ) -> None:
        cfg = config or HealthConfig()
        self.config = cfg
        self._dt = float(dt)
        self._p22_initial = p22_initial
        self._bound = cfg.nis_bound()
        self._ring = np.zeros(cfg.nis_window)
        self._ring_sum = 0.0
        self._ring_n = 0
        self._ring_i = 0
        self._gap_ticks = 0
        self.max_gap_s = 0.0
        self.nis_window_mean = 0.0
        self.n_updates = 0
        self.flags: list[HealthFlag] = []
        self._seen: set[str] = set()

    def _flag_once(
        self, kind: str, severity: str, value: float, threshold: float
    ) -> None:
        if kind in self._seen:
            # Escalate an existing suspect flag to diverged exactly once.
            if severity != "diverged" or any(
                f.kind == kind and f.severity == "diverged" for f in self.flags
            ):
                return
        self._seen.add(kind)
        self.flags.append(
            HealthFlag(
                kind=kind,
                severity=severity,
                source="stream",
                value=float(value),
                threshold=float(threshold),
            )
        )

    def record_update(self, inno: float, s: float) -> None:
        """Fold one measurement update's innovation and variance in."""
        cfg = self.config
        nis = inno * inno / s if s > 0.0 else math.inf
        if not math.isfinite(nis):
            self._flag_once("nonfinite_innovation", "diverged", nis, 0.0)
            nis = 0.0
        w = cfg.nis_window
        if self._ring_n < w:
            self._ring[self._ring_n] = nis
            self._ring_n += 1
            self._ring_sum += nis
        else:
            self._ring_sum += nis - self._ring[self._ring_i]
            self._ring[self._ring_i] = nis
            self._ring_i = (self._ring_i + 1) % w
        self.n_updates += 1
        if self._ring_n == w:
            mean = self._ring_sum / w
            self.nis_window_mean = mean
            if mean > self._bound * cfg.diverged_factor:
                self._flag_once("nis", "diverged", mean, self._bound)
            elif mean > self._bound:
                self._flag_once("nis", "suspect", mean, self._bound)

    def record_tick(self, core: object, updated: bool) -> None:
        """Per-tick watchdogs, reading (never writing) the filter core."""
        cfg = self.config
        if updated:
            self._gap_ticks = 0
        else:
            self._gap_ticks += 1
            gap_s = self._gap_ticks * self._dt
            if gap_s > self.max_gap_s:
                self.max_gap_s = gap_s
                if gap_s > cfg.max_update_gap_s:
                    self._flag_once(
                        "update_gap", "suspect", gap_s, cfg.max_update_gap_s
                    )
        p11, p12, p22 = core.p11, core.p12, core.p22
        if not (
            math.isfinite(core.theta)
            and math.isfinite(core.v)
            and math.isfinite(p22)
        ):
            self._flag_once("nonfinite_state", "diverged", math.nan, 0.0)
            return
        if self._p22_initial is not None:
            ceiling = self._p22_initial * cfg.variance_growth_factor
            if p22 > ceiling:
                self._flag_once("variance_growth", "suspect", p22, ceiling)
        det = p11 * p22 - p12 * p12
        tr = p11 + p22
        if det <= 0.0 or tr <= 0.0:
            self._flag_once(
                "covariance_condition", "diverged", math.inf, cfg.condition_max
            )
        else:
            disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
            lmin = (tr - disc) / 2.0
            if lmin > 0.0 and (tr + disc) / (2.0 * lmin) > cfg.condition_max:
                self._flag_once(
                    "covariance_condition",
                    "suspect",
                    (tr + disc) / (2.0 * lmin),
                    cfg.condition_max,
                )

    @property
    def verdict(self) -> str:
        return _worst(f.severity for f in self.flags)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "n_updates": self.n_updates,
            "nis_window_mean": round(self.nis_window_mean, 6),
            "nis_bound": round(self._bound, 6),
            "max_gap_s": round(self.max_gap_s, 6),
            "flags": [f.to_dict() for f in self.flags],
        }
