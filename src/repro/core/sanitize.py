"""Input sanitization: repair or mask degraded sensor data before estimation.

The estimation stages assume gap-free, finite inputs: one NaN accelerometer
sample poisons an EKF track from that tick on, and an Inf gyro sample
spreads through the LOESS smoother into lane-change detection. This module
is the pipeline's first line of defence — a stage (registered as
``"sanitize"``) that walks every sensor channel of the incoming
:class:`~repro.sensors.phone.PhoneRecording` and

* **interpolates short gaps** — non-finite runs no longer than
  ``max_gap_s`` with finite samples on both sides are linearly bridged
  (``pipeline.gap_interpolated`` counts the repairs);
* **masks long outages** — longer (or edge-touching) runs are neutralized
  per channel policy (``pipeline.gap_masked``); back-to-back outages
  split by a single finite island merge into one outage (the island is
  masked with them) when the merged span exceeds ``max_gap_s`` or touches
  a trip edge: *drive* channels
  (accelerometer, gyro) are zero-filled so the filters coast, *measurement*
  channels (speedometer, CAN-bus, barometer) are left NaN with
  ``valid=False`` so the EKF runs predict-only across the outage;
* **re-masks GPS** — fixes whose position or speed went non-finite lose
  their ``available`` flag, turning corrupt fixes into ordinary outage
  epochs the alignment already dead-reckons through;
* **rejects unusable timebases** — non-finite or non-increasing timestamps
  raise :class:`~repro.errors.DegradedInputError` naming the channel,
  since no downstream math survives an unordered timebase.

Clean-input identity
--------------------
A recording with nothing to repair passes through *object-identical*: the
stage returns the same ``PhoneRecording`` instance, so enabling the
sanitize stage on clean data changes nothing, bit for bit (pinned by
``tests/faults/test_pipeline_degradation.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..config import SerializableConfig
from ..errors import ConfigurationError, DegradedInputError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..sensors.base import SampledSignal
from ..sensors.gps import GPSFixes
from ..sensors.phone import PhoneRecording

__all__ = [
    "SanitizeConfig",
    "SanitizeStage",
    "sanitize_recording",
    "sanitize_signal",
]

#: How each channel's long outages are neutralized: drive channels coast on
#: zeros, measurement channels stay NaN (valid=False) for predict-only EKF.
_CHANNEL_POLICY = {
    "accel_long": "zero",
    "accel_lat": "zero",
    "gyro": "zero",
    "speedometer": "mask",
    "barometer": "mask",
    "canbus": "mask",
}


@dataclass(frozen=True)
class SanitizeConfig(SerializableConfig):
    """Tuning of the sanitize stage.

    ``max_gap_s`` is the longest non-finite run [s] that linear
    interpolation may bridge; anything longer is treated as a true outage
    and masked instead of invented.
    """

    max_gap_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_gap_s < 0.0 or not np.isfinite(self.max_gap_s):
            raise ConfigurationError(
                f"max_gap_s must be finite and >= 0, got {self.max_gap_s}"
            )


def _check_timebase(name: str, t: np.ndarray) -> None:
    if not np.all(np.isfinite(t)):
        raise DegradedInputError(
            f"channel {name!r} has non-finite timestamps; the recording "
            f"cannot be estimated"
        )
    if len(t) > 1 and not np.all(np.diff(t) > 0.0):
        raise DegradedInputError(
            f"channel {name!r} has a non-increasing timebase; the recording "
            f"cannot be estimated"
        )


def _bad_runs(bad: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous ``[start, end)`` runs of True in a boolean array."""
    idx = np.flatnonzero(np.diff(np.concatenate(([False], bad, [False])).astype(int)))
    return list(zip(idx[0::2], idx[1::2]))


def sanitize_signal(
    signal: SampledSignal,
    max_gap_s: float,
    policy: str = "mask",
) -> tuple[SampledSignal, int, int]:
    """Repair one signal; returns ``(signal, n_interpolated, n_masked)``.

    The input signal is returned unchanged (same object) when every sample
    is already finite. ``policy`` selects the long-outage fill: ``"zero"``
    writes 0.0 (drive channels coast), ``"mask"`` leaves NaN with the
    sample marked invalid (measurement channels go predict-only).
    """
    bad = ~np.isfinite(signal.values)
    if not bad.any():
        return signal, 0, 0

    t = signal.t
    values = signal.values.copy()
    valid = signal.valid.copy()

    # A lone finite sample wedged between two outage runs is no anchor:
    # when the runs it separates span (together) more than ``max_gap_s``,
    # or the merged run touches a trip edge, the island is folded into one
    # outage and masked with it, rather than trusted as an interpolation
    # endpoint or a stray "valid" measurement mid-outage. Without this,
    # back-to-back long outages split by a single glitchy-but-finite
    # sample were treated as two independent runs with a real measurement
    # between them.
    runs = _bad_runs(bad)
    merged: list[list[int]] = []
    for start, end in runs:
        if merged and start == merged[-1][1] + 1:
            m_start = merged[-1][0]
            edge = m_start == 0 or end == len(values)
            span_s = float(t[min(end, len(t) - 1)] - t[max(m_start - 1, 0)])
            if edge or span_s > max_gap_s:
                bad[merged[-1][1]] = True  # the island joins the outage
                merged[-1][1] = end
                continue
        merged.append([start, end])

    ok_idx = np.flatnonzero(~bad)
    n_interp = 0
    n_masked = 0
    for start, end in merged:
        # Interior runs short enough to bridge are interpolated from the
        # finite neighbours; edge-touching or long runs are true outages.
        interior = start > 0 and end < len(values) and not bad[start - 1] and not bad[end]
        gap_s = float(t[min(end, len(t) - 1)] - t[max(start - 1, 0)])
        if interior and gap_s <= max_gap_s and len(ok_idx):
            values[start:end] = np.interp(t[start:end], t[ok_idx], values[ok_idx])
            valid[start:end] = True
            n_interp += 1
        else:
            values[start:end] = 0.0 if policy == "zero" else np.nan
            valid[start:end] = False
            n_masked += 1
    repaired = SampledSignal(
        t=t,
        values=values,
        valid=valid,
        name=signal.name,
        unit=signal.unit,
        meta=dict(signal.meta),
    )
    return repaired, n_interp, n_masked


def _sanitize_gps(gps: GPSFixes) -> tuple[GPSFixes, int]:
    """Drop the ``available`` flag from fixes with non-finite fields."""
    corrupt = gps.available & ~(
        np.isfinite(gps.x) & np.isfinite(gps.y) & np.isfinite(gps.speed)
    )
    n_corrupt = int(np.count_nonzero(corrupt))
    if n_corrupt == 0:
        return gps, 0
    gone = np.where(corrupt, np.nan, 1.0)
    return (
        GPSFixes(
            t=gps.t.copy(),
            x=gps.x * gone,
            y=gps.y * gone,
            speed=gps.speed * gone,
            available=gps.available & ~corrupt,
        ),
        n_corrupt,
    )


def sanitize_recording(
    recording: PhoneRecording,
    config: SanitizeConfig | None = None,
    telemetry: Telemetry | None = None,
) -> PhoneRecording:
    """Validate and repair a whole recording (identity when already clean)."""
    cfg = config or SanitizeConfig()
    tel = telemetry if telemetry is not None else NULL_TELEMETRY

    _check_timebase("recording", recording.t)
    for channel in _CHANNEL_POLICY:
        _check_timebase(channel, getattr(recording, channel).t)
    _check_timebase("gps", recording.gps.t)

    changes: dict = {}
    n_interp = 0
    n_masked = 0
    for channel, policy in _CHANNEL_POLICY.items():
        signal = getattr(recording, channel)
        repaired, interp, masked = sanitize_signal(signal, cfg.max_gap_s, policy)
        if repaired is not signal:
            changes[channel] = repaired
            if tel.active:
                tel.event(
                    "sanitize.channel_repaired",
                    channel=channel,
                    interpolated=interp,
                    masked=masked,
                )
        n_interp += interp
        n_masked += masked

    gps, n_gps = _sanitize_gps(recording.gps)
    if n_gps:
        changes["gps"] = gps
        if tel.active:
            tel.event("sanitize.gps_fixes_masked", n_fixes=n_gps)

    if tel.active:
        if n_interp:
            tel.count("pipeline.gap_interpolated", n_interp)
        if n_masked:
            tel.count("pipeline.gap_masked", n_masked)
        if n_gps:
            tel.count("pipeline.gps_fixes_masked", n_gps)

    if not changes:
        return recording
    return dataclasses.replace(recording, **changes)


class SanitizeStage:
    """Pipeline stage wrapper around :func:`sanitize_recording`."""

    name = "sanitize"

    def __init__(self, config: SanitizeConfig | None = None) -> None:
        self.config = config or SanitizeConfig()

    def run(self, ctx):  # ctx: repro.core.stages.PipelineContext
        ctx.recording = sanitize_recording(ctx.recording, self.config, ctx.telemetry)
        return ctx

    def run_batch(self, bctx):  # bctx: repro.core.trip_batch.BatchPipelineContext
        """Sanitize a whole batch: columnar screen, per-trip repair.

        One vectorized pass over the padded matrices finds the trips that
        could need any repair (non-finite channel samples, broken
        timebases, corrupt GPS fixes, per-channel timebases); only those
        replay :func:`sanitize_recording` — with their own telemetry, so
        counters and events match the serial stage — and refresh their
        batch rows. Clean trips are untouched, which is exactly the
        scalar stage's identity guarantee.
        """
        batch = bctx.batch
        # Trips with any private channel timebase replay the full scalar
        # repair (their timebases cannot be screened on the master t2d).
        suspect = ~batch.uniform
        if not suspect.all():
            mask = batch.sample_mask
            t2d = batch.t2d
            # Timebase screen: any non-finite stamp or non-increasing step
            # in the real samples. Padding repeats the final stamp (diff
            # 0), so pad positions are excluded from the step check.
            finite_ok = np.all(np.isfinite(t2d) | ~mask, axis=1)
            steps = np.diff(t2d, axis=1)
            steps_ok = np.all((steps > 0.0) | ~mask[:, 1:], axis=1)
            suspect |= ~(finite_ok & steps_ok)
            for channel in _CHANNEL_POLICY:
                values = batch.column(channel)[0]
                suspect |= ~np.all(np.isfinite(values) | ~mask, axis=1)

        for pos, ctx in list(bctx.live_items()):
            rec = ctx.recording
            dirty = bool(suspect[pos])
            if not dirty:
                # GPS traces are short; screen them per trip.
                gps = rec.gps
                bad_gps_t = not np.all(np.isfinite(gps.t)) or (
                    len(gps.t) > 1 and not np.all(np.diff(gps.t) > 0.0)
                )
                corrupt = gps.available & ~(
                    np.isfinite(gps.x) & np.isfinite(gps.y) & np.isfinite(gps.speed)
                )
                dirty = bad_gps_t or bool(np.any(corrupt))
            if not dirty:
                continue  # clean trip: identity pass-through, no telemetry
            try:
                repaired = sanitize_recording(rec, self.config, ctx.telemetry)
            except Exception as exc:  # noqa: BLE001 - per-trip isolation
                bctx.fail(pos, exc)
                continue
            if repaired is not rec:
                ctx.recording = repaired
                batch.set_recording(pos, repaired)
