"""Gradient EKF over N tracks: one call, two kernels, routed by track count.

:func:`estimate_tracks_batch` runs the ``[v, theta]`` filter over many
tracks at once — one trip's velocity sources on a phone, or the flattened
tracks of many trips in the cloud (Sec III-C3). Below
:data:`BATCH_MIN_TRACKS` tracks it calls the scalar engine
(:func:`~repro.core.gradient_ekf.estimate_track`, whose forward pass runs
on Python locals and floats) once per track; at or above it, :func:`_estimate_tracks_vectorized` stacks the tracks into
``(tick, track)`` arrays and advances them all per tick with numpy, paying
the per-tick dispatch cost once instead of N times. The threshold is the
crossover measured by ``benchmarks/bench_batch_vs_scalar.py``.

The kernels are **bit-identical**: the scalar core hoists the same
per-track constants (``drift_coeff * dt``, ``-g * dt``) and associates
every product as the vectorized loop does, with the same clamps and update
gating. Routing therefore only affects speed; a trip's output does not
depend on how wide a call it landed in (``tests/core/test_batch_equivalence.py``).
This assumes numpy's float64 sin/cos equal ``math.sin``/``math.cos``,
which numpy does not promise on every build and CPU (checked by name in
``test_numpy_trig_matches_math``).

Tracks may differ in length, timebase and velocity source; the vectorized
loop pads shorter tracks (zero accel, no measurements) and the padding
never reaches the output. ``config.smooth=True`` and an enabled GPS-denied
config always take the scalar engine — the RTS backward pass and the outage
plan are not vectorized.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..constants import GRAVITY
from ..errors import EstimationError
from ..obs import Telemetry
from ..sensors.base import SampledSignal
from ..vehicle.params import DEFAULT_VEHICLE, VehicleParams
from .gradient_ekf import GradientEKFConfig, estimate_track, measurements_on_timebase
from .track import GradientTrack

__all__ = ["BATCH_MIN_TRACKS", "estimate_tracks_batch", "runs_vectorized"]

#: Track count from which :func:`estimate_tracks_batch` uses the vectorized
#: tick loop instead of looping the scalar engine: the measured crossover
#: (``benchmarks/bench_batch_vs_scalar.py`` → ``BENCH_batch.json``; on a
#: 2-CPU x86_64 host, against the locals-only scalar forward pass, the
#: vectorized kernel ran at 0.94x the scalar engine at 24 tracks, 1.23x
#: at 32 and 1.97x at 64). One trip's four sources stay scalar; an 8-trip
#: chunk (32 tracks) runs vectorized.
BATCH_MIN_TRACKS = 32


def runs_vectorized(n_tracks: int, config: GradientEKFConfig, gps_denied=None) -> bool:
    """Whether :func:`estimate_tracks_batch` runs ``n_tracks`` tracks on the
    vectorized loop rather than the scalar engine."""
    gd_on = gps_denied is not None and gps_denied.enabled
    return n_tracks >= BATCH_MIN_TRACKS and not config.smooth and not gd_on


def estimate_tracks_batch(
    accels: Sequence[SampledSignal],
    velocities: Sequence[SampledSignal],
    arc_lengths: Sequence[np.ndarray],
    vehicle: VehicleParams | None = None,
    config: GradientEKFConfig | None = None,
    names: Sequence[str | None] | None = None,
    telemetry: Telemetry | None = None,
    monitor=None,
    telemetries: Sequence[Telemetry | None] | None = None,
    monitors: Sequence | None = None,
    gps_denied=None,
) -> list[GradientTrack]:
    """Run the gradient EKF over N tracks, on the kernel that is faster at N.

    Parameters
    ----------
    accels / velocities / arc_lengths:
        Per-track inputs, exactly as :func:`estimate_track` takes them.
        The k-th track is ``(accels[k], velocities[k], arc_lengths[k])``.
    names:
        Optional per-track names (default: each velocity source's name).
    monitor:
        Optional :class:`~repro.obs.health.HealthMonitor`; receives each
        track's innovation record via ``check_track``. Purely passive —
        outputs are bit-identical with or without it.
    telemetries / monitors:
        Per-track telemetry/monitor sequences for callers that flatten
        tracks from *several* trips into one batch call (the whole-pipeline
        batching path): track ``k`` reports to ``telemetries[k]`` /
        ``monitors[k]``. Mutually exclusive with the batch-wide
        ``telemetry`` / ``monitor`` singletons.
    gps_denied:
        Optional :class:`~repro.core.dead_reckoning.GPSDeniedConfig`; when
        enabled every track runs through the scalar engine, which owns the
        outage plan.

    Returns
    -------
    One :class:`GradientTrack` per input track, in order; ``meta["engine"]``
    names the kernel that ran (``"scalar"`` or ``"batch"``).
    """
    n_tracks = len(accels)
    if not (n_tracks == len(velocities) == len(arc_lengths)):
        raise EstimationError("batch inputs must have matching lengths")
    if names is not None and len(names) != n_tracks:
        raise EstimationError("names must match the number of tracks")
    if telemetries is not None and telemetry is not None:
        raise EstimationError("pass either telemetry or telemetries, not both")
    if monitors is not None and monitor is not None:
        raise EstimationError("pass either monitor or monitors, not both")
    if telemetries is not None and len(telemetries) != n_tracks:
        raise EstimationError("telemetries must match the number of tracks")
    if monitors is not None and len(monitors) != n_tracks:
        raise EstimationError("monitors must match the number of tracks")
    if n_tracks == 0:
        raise EstimationError("batch estimation needs at least one track")
    cfg = config or GradientEKFConfig()
    tels = list(telemetries) if telemetries is not None else [telemetry] * n_tracks
    mons = list(monitors) if monitors is not None else [monitor] * n_tracks
    gd = gps_denied if gps_denied is not None and gps_denied.enabled else None

    if not runs_vectorized(n_tracks, cfg, gd):
        return [
            estimate_track(
                accels[k],
                velocities[k],
                arc_lengths[k],
                vehicle=vehicle,
                config=cfg,
                name=names[k] if names is not None else None,
                telemetry=tels[k],
                monitor=mons[k],
                gps_denied=gd,
            )
            for k in range(n_tracks)
        ]
    return _estimate_tracks_vectorized(
        accels, velocities, arc_lengths, vehicle, cfg, names, tels, mons
    )


def _estimate_tracks_vectorized(
    accels: Sequence[SampledSignal],
    velocities: Sequence[SampledSignal],
    arc_lengths: Sequence[np.ndarray],
    vehicle: VehicleParams | None = None,
    config: GradientEKFConfig | None = None,
    names: Sequence[str | None] | None = None,
    telemetries: Sequence[Telemetry | None] | None = None,
    monitors: Sequence | None = None,
) -> list[GradientTrack]:
    """The vectorized tick loop over N tracks (no smoothing, no outage plan).

    Inputs are validated by :func:`estimate_tracks_batch`; ``telemetries``
    and ``monitors`` are per-track sequences (``None`` = no sinks).
    """
    n_tracks = len(accels)
    vehicle = vehicle or DEFAULT_VEHICLE
    cfg = config or GradientEKFConfig()
    tels: list[Telemetry | None] = [
        t if t is not None and t.active else None
        for t in (telemetries or [None] * n_tracks)
    ]
    mons: list = list(monitors or [None] * n_tracks)
    any_tel = any(t is not None for t in tels)
    any_mon = any(m is not None for m in mons)

    # -- per-track setup (cold path, mirrors estimate_track exactly) -------
    ts: list[np.ndarray] = []
    ss: list[np.ndarray] = []
    lengths = np.empty(n_tracks, dtype=int)
    dt = np.empty(n_tracks)
    r = np.empty(n_tracks)
    stds: list[float] = []
    v = np.empty(n_tracks)
    for k in range(n_tracks):
        t_k = accels[k].t
        n_k = len(t_k)
        if n_k < 2:
            raise EstimationError("gradient estimation needs at least two samples")
        s_k = np.asarray(arc_lengths[k], dtype=float)
        if s_k.shape != t_k.shape:
            raise EstimationError("arc-length array must match the accel timebase")
        ts.append(t_k)
        ss.append(s_k)
        lengths[k] = n_k
        dt[k] = float(np.median(np.diff(t_k)))
        stds.append(cfg.std_for(velocities[k].name))
        r[k] = stds[k] ** 2

    n_max = int(lengths.max())
    a_in = np.zeros((n_max, n_tracks))
    z_in = np.full((n_max, n_tracks), np.nan)
    for k in range(n_tracks):
        n_k = lengths[k]
        a_in[:n_k, k] = accels[k].values
        z_k = measurements_on_timebase(ts[k], velocities[k])
        z_in[:n_k, k] = z_k
        # measurements_on_timebase raised if no measurement is valid.
        v[k] = float(z_k[np.argmax(np.isfinite(z_k))])
        tel_k = tels[k]
        if tel_k is not None:
            vel = velocities[k]
            dropped = int(np.count_nonzero(~(vel.valid & np.isfinite(vel.values))))
            tel_k.count("samples_dropped", dropped)
            tel_k.count("ekf_ticks", int(n_k))
            tel_k.count("ekf_updates", int(np.count_nonzero(np.isfinite(z_k))))

    qa = cfg.accel_noise_std * dt
    q_v = qa * qa  # as the scalar core computes it
    q_t = cfg.grade_rate_std**2 * dt

    specific_force = cfg.process == "specific_force"
    drift_coeff = vehicle.drag_term / vehicle.weight
    g = GRAVITY
    theta_clamp = math.pi / 3.0
    neg_g_dt = -g * dt  # per-track; b = (-g * dt) * cos(theta)
    cdt = drift_coeff * dt  # per-track; folds dt into the drift terms

    theta = np.zeros(n_tracks)
    p11 = np.full(n_tracks, cfg.initial_speed_std**2)
    p12 = np.zeros(n_tracks)
    p22 = np.full(n_tracks, cfg.initial_grade_std**2)

    theta_out = np.empty((n_max, n_tracks))
    var_out = np.empty((n_max, n_tracks))
    v_out = np.empty((n_max, n_tracks))
    inno_out = (
        np.full((n_max, n_tracks), np.nan) if any_tel or any_mon else None
    )
    s_out = np.full((n_max, n_tracks), np.nan) if any_mon else None
    # Padding keeps advancing shorter tracks past their end, so each
    # track's final covariance is captured at its own last tick.
    final_p = np.empty((3, n_tracks))
    ends: dict[int, list[int]] = {}
    if any_mon:
        for k in range(n_tracks):
            ends.setdefault(int(lengths[k]) - 1, []).append(k)

    # Measurement gating, hoisted out of the loop: which tracks update at
    # which tick, plus fast per-tick any/all flags.
    update_mask = np.isfinite(z_in)
    holds = ~update_mask
    row_any = update_mask.any(axis=1).tolist()
    row_all = update_mask.all(axis=1).tolist()

    # The loop is numpy-dispatch-bound at small N, so every operation runs
    # in a preallocated scratch buffer (`out=`) and state rows are written
    # in place into the output arrays; no per-tick allocation happens.
    sin_t = np.empty(n_tracks)
    cos_t = np.empty(n_tracks)
    a_long = np.empty(n_tracks)
    b = np.zeros(n_tracks)
    c = np.empty(n_tracks)
    d = np.empty(n_tracks)
    drift = np.empty(n_tracks)
    np11 = np.empty(n_tracks)
    np12 = np.empty(n_tracks)
    t1 = np.empty(n_tracks)
    t2 = np.empty(n_tracks)
    t3 = np.empty(n_tracks)
    t4 = np.empty(n_tracks)
    t5 = np.empty(n_tracks)
    s_inno = np.empty(n_tracks)
    k1 = np.empty(n_tracks)
    k2 = np.empty(n_tracks)
    inno = np.empty(n_tracks)
    one_m = np.empty(n_tracks)

    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    for i in range(n_max):
        a_meas = a_in[i]
        np.sin(theta, out=sin_t)
        np.cos(theta, out=cos_t)
        np.maximum(cos_t, 1e-6, out=cos_t)
        if specific_force:
            mul(sin_t, g, out=t1)
            sub(a_meas, t1, out=a_long)  # a_long = a - g sin
            mul(neg_g_dt, cos_t, out=b)  # b = -g cos dt
            # ddrift/dtheta * dt = (cdt * v) * (a_long sin / cos^2 - g)
            mul(a_long, sin_t, out=t2)
            mul(cos_t, cos_t, out=t3)
            div(t2, t3, out=t2)
            sub(t2, g, out=t2)
        else:
            a_long = a_meas
            # b stays 0; ddrift/dtheta * dt = (cdt * v) * (a_long sin / cos^2)
            mul(a_long, sin_t, out=t2)
            mul(cos_t, cos_t, out=t3)
            div(t2, t3, out=t2)
        mul(cdt, v, out=t4)  # cdt v, shared by d and the drift term
        mul(t4, t2, out=d)
        add(d, 1.0, out=d)  # d = 1 + ddrift dt
        mul(cdt, a_long, out=c)
        div(c, cos_t, out=c)  # c = cdt a_long / cos
        mul(t4, a_long, out=drift)
        div(drift, cos_t, out=drift)  # drift dt = cdt v a_long / cos

        # State prediction, written straight into this tick's output rows.
        v_row = v_out[i]
        mul(a_long, dt, out=t5)
        add(v, t5, out=v_row)
        np.maximum(v_row, 0.0, out=v_row)
        theta_row = theta_out[i]
        add(theta, drift, out=theta_row)
        np.maximum(theta_row, -theta_clamp, out=theta_row)
        np.minimum(theta_row, theta_clamp, out=theta_row)
        v = v_row
        theta = theta_row

        # Covariance prediction P = F P F^T + Q with F = [[1, b], [c, d]].
        mul(b, p12, out=t1)  # b p12
        mul(b, p22, out=t2)  # b p22
        add(p12, t2, out=t3)
        mul(t3, b, out=t3)  # b (p12 + b p22)
        add(p11, t1, out=np11)
        add(np11, t3, out=np11)
        add(np11, q_v, out=np11)  # p11'
        mul(c, p11, out=t4)  # c p11
        mul(c, t4, out=t5)  # c^2 p11
        mul(b, c, out=t1)
        add(t1, d, out=t1)
        mul(t1, p12, out=t1)  # (d + b c) p12
        mul(b, d, out=t2)
        mul(t2, p22, out=t2)  # b d p22
        add(t4, t1, out=np12)
        add(np12, t2, out=np12)  # p12'
        p22_row = var_out[i]
        mul(c, d, out=t1)
        mul(t1, p12, out=t1)
        mul(t1, 2.0, out=t1)  # 2 c d p12
        mul(d, d, out=t2)
        mul(t2, p22, out=t2)  # d^2 p22
        add(t5, t1, out=p22_row)
        add(p22_row, t2, out=p22_row)
        add(p22_row, q_t, out=p22_row)  # p22'
        p11, np11 = np11, p11
        p12, np12 = np12, p12
        p22 = p22_row

        # Measurement update with H = [1, 0]. Tracks without a fresh
        # measurement get a neutralized update (gain terms zeroed, Joseph
        # factor forced to 1) so one vector pass serves every tick shape.
        if row_any[i]:
            add(p11, r, out=s_inno)
            if s_out is not None:
                s_out[i] = s_inno
            div(p11, s_inno, out=k1)
            div(p12, s_inno, out=k2)
            sub(z_in[i], v, out=inno)
            if inno_out is not None:
                inno_out[i] = inno
            sub(1.0, k1, out=one_m)
            mul(k1, inno, out=t1)  # dv
            mul(k2, inno, out=t2)  # dtheta
            mul(k2, p12, out=t3)  # dp22
            if not row_all[i]:
                hold = holds[i]
                t1[hold] = 0.0
                t2[hold] = 0.0
                t3[hold] = 0.0
                one_m[hold] = 1.0
            add(v, t1, out=v)
            add(theta, t2, out=theta)
            sub(p22, t3, out=p22)
            mul(p12, one_m, out=p12)
            mul(p11, one_m, out=p11)
        done = ends.get(i)
        if done is not None:
            final_p[0, done] = p11[done]
            final_p[1, done] = p12[done]
            final_p[2, done] = p22[done]

    # -- unpack per track ---------------------------------------------------
    tracks: list[GradientTrack] = []
    for k in range(n_tracks):
        n_k = lengths[k]
        tel_k = tels[k]
        mon_k = mons[k]
        if tel_k is not None or mon_k is not None:
            ticks_k = np.flatnonzero(update_mask[:n_k, k])
        if tel_k is not None:
            if len(ticks_k):
                tel_k.observe_many(
                    "ekf_innovation_abs", np.abs(inno_out[ticks_k, k])
                )
            tel_k.gauge("ekf.final_theta_variance", float(var_out[n_k - 1, k]))
        name_k = names[k] if names is not None else None
        if mon_k is not None:
            mon_k.check_track(
                name_k or velocities[k].name,
                theta_out[:n_k, k],
                var_out[:n_k, k],
                innovations=inno_out[ticks_k, k],
                s=s_out[ticks_k, k],
                update_ticks=ticks_k,
                dt=float(dt[k]),
                n_ticks=int(n_k),
                final_cov=tuple(final_p[:, k].tolist()),
            )
        tracks.append(
            GradientTrack(
                name=name_k or velocities[k].name,
                t=ts[k].copy(),
                s=ss[k].copy(),
                theta=theta_out[:n_k, k].copy(),
                variance=var_out[:n_k, k].copy(),
                v=v_out[:n_k, k].copy(),
                meta={
                    "process": cfg.process,
                    "measurement_std": stds[k],
                    "smoothed": cfg.smooth,
                    "engine": "batch",
                },
            )
        )
    return tracks
