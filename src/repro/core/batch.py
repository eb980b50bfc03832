"""Gradient EKF over N tracks: one call, two kernels, routed by live width.

:func:`estimate_tracks_batch` runs the ``[v, theta]`` filter over many
tracks at once — one trip's velocity sources on a phone, or the flattened
tracks of many trips in the cloud (Sec III-C3). Below
:data:`BATCH_MIN_TRACKS` tracks it calls the scalar engine
(:func:`~repro.core.gradient_ekf.estimate_track`, whose forward pass runs
on Python locals and floats) once per track; at or above it,
:func:`_estimate_tracks_vectorized` stacks the tracks into
``(tick, track)`` arrays and advances them all per tick with numpy, paying
the per-tick dispatch cost once instead of N times. The threshold is the
crossover measured by ``benchmarks/bench_batch_vs_scalar.py``, and it
routes per tick as well as per call: the vector loop runs only while at
least ``BATCH_MIN_TRACKS`` tracks are live, and each longer track finishes
on the scalar forward pass from its state at the last vector tick.

The kernels are **bit-identical**: the scalar core hoists the same
per-track constants (``drift_coeff * dt``, ``-g * dt``) and associates
every product as the vectorized loop does, with the same clamps and update
gating. Routing therefore only affects speed; a trip's output does not
depend on how wide a call it landed in (``tests/core/test_batch_equivalence.py``).
This assumes numpy's float64 sin/cos equal ``math.sin``/``math.cos``,
which numpy does not promise on every build and CPU (checked by name in
``test_numpy_trig_matches_math``).

Tracks may differ in length, timebase and velocity source. A track that
ends while the vector loop still runs is padded (zero accel, no
measurements) up to the loop's last tick, and the padding never reaches
the output. A track without a measurement at a tick gets an infinite
measurement variance there, so its gains are 0 and the shared update adds
exact zeros while its state is finite. A track whose theta or v goes
non-finite in the vector loop is rerun on the scalar core, so non-finite
input gets the scalar semantics too, including the ``ValueError`` an
overflowing track raises; the reruns and the scalar tails go before any
sink sees a track of the call, so a caller may retry the other tracks
without double counts. ``config.smooth=True`` and an enabled GPS-denied
config always take the scalar engine — the RTS backward pass and the
outage plan are not vectorized.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from ..constants import GRAVITY
from ..errors import EstimationError
from ..obs.telemetry import Telemetry
from ..sensors.base import SampledSignal
from ..vehicle.params import DEFAULT_VEHICLE, VehicleParams
from .gradient_ekf import (
    GradientEKFConfig,
    GradientFilterCore,
    _Forward,
    _forward_pass,
    estimate_track,
    measurements_on_timebase,
)
from .track import GradientTrack, readonly_view

__all__ = ["BATCH_MIN_TRACKS", "estimate_tracks_batch", "runs_vectorized"]

#: Track count from which :func:`estimate_tracks_batch` uses the vectorized
#: tick loop instead of looping the scalar engine, and the live width below
#: which that loop hands its remaining tracks to the scalar forward pass:
#: the crossover measured on mixed-rate traffic shaped like a
#: ``fleet_store`` call (the ``mixed`` series of
#: ``benchmarks/bench_batch_vs_scalar.py`` → ``BENCH_batch.json``, on a
#: 2-CPU x86_64 host against the locals-only scalar forward pass). Three
#: sweeps: 0.75-0.80x at 16 tracks, 1.12-1.21x at 24, 1.38-1.45x at 32 and
#: 2.08-2.31x at 64; the latest one, with live-width routing, reads the
#: low end at 32 and 64, where its ragged tails run scalar. One trip's
#: four sources stay scalar; a chunk of six or more trips runs vectorized.
BATCH_MIN_TRACKS = 24


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
    v0 = np.empty(n_tracks)
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

    # Live-width routing: the vector loop runs only while at least
    # BATCH_MIN_TRACKS tracks are live, i.e. for the first h ticks, h being
    # the BATCH_MIN_TRACKS-th largest length. Each longer track finishes on
    # the scalar forward pass from its state at tick h - 1 (a direct call
    # narrower than the threshold runs every tick vectorized).
    if n_tracks >= BATCH_MIN_TRACKS:
        h = int(np.sort(lengths)[n_tracks - BATCH_MIN_TRACKS])
    else:
        h = int(lengths.max())
    a_in = np.zeros((h, n_tracks))
    z_in = np.full((h, n_tracks), np.nan)
    zs: list[np.ndarray] = []
    for k in range(n_tracks):
        z_k = measurements_on_timebase(ts[k], velocities[k])
        zs.append(z_k)
        a_in[:lengths[k], k] = accels[k].values[:h]
        z_in[:lengths[k], k] = z_k[:h]
        # measurements_on_timebase raised if no measurement is valid.
        v0[k] = float(z_k[np.argmax(np.isfinite(z_k))])

    qa = cfg.accel_noise_std * dt
    q_v = qa * qa  # as the scalar core computes it
    q_t = cfg.grade_rate_std**2 * dt

    specific_force = cfg.process == "specific_force"
    drift_coeff = vehicle.drag_term / vehicle.weight
    theta_clamp = math.pi / 3.0
    cdt = drift_coeff * dt  # per-track; folds dt into the drift terms

    # The loop is numpy-dispatch bound at fleet widths (~0.35 us per ufunc
    # call on 32 tracks), so each tick is a fixed sequence of ufunc calls
    # on preallocated length-N rows: every operand is an array (a Python
    # float operand costs ~0.2 us more), (2, N) stacks of two rows of the
    # same shape share one call (a broadcast would cost ~4 calls), and the
    # per-tick rows of the (tick, ...) arrays come from iterating them, not
    # indexing. DESIGN.md, "Per-tick dispatch budget", has the numbers.
    def rows(*values) -> np.ndarray:
        return np.array([np.broadcast_to(x, n_tracks) for x in values], dtype=float)

    floor = rows(1e-6)[0]
    one, two, g_row = rows(1.0, 2.0, GRAVITY)
    kg = rows(-GRAVITY * dt, GRAVITY)  # [b, sin g] = [cos, sin] * kg
    x_lo = rows(-theta_clamp, 0.0)  # state clamps on [theta, v]
    x_hi = rows(theta_clamp, math.inf)
    q = rows(q_v, q_t)

    # Outputs of the h vector ticks, time-major; each tick's [theta, v] is
    # one contiguous (2, N) row so the state prediction and its clamps are
    # one call each.
    xs_out = np.empty((h, 2, n_tracks))
    theta_out = xs_out[:, 0]
    v_out = xs_out[:, 1]
    var_out = np.empty((h, n_tracks))
    inno_out = np.empty((h, n_tracks)) if any_tel or any_mon else None
    s_out = np.empty((h, n_tracks)) if any_mon else None
    # A track that ends before tick h is padded (zero accel, no
    # measurements) until h, so its final covariance is captured at its
    # own last tick; the padding never reaches the output.
    final_p = np.empty((3, n_tracks))
    ends: dict[int, list[int]] = {}
    if any_mon:
        for k in range(n_tracks):
            ends.setdefault(int(lengths[k]) - 1, []).append(k)

    # Measurement gating, hoisted out of the loop: which tracks update at
    # which tick, a fast per-tick any flag, and the measurement variance
    # per (tick, track) with +inf where a track holds. A held track's
    # innovation variance is then inf, so its gains are 0 and its update
    # adds exact zeros; holes in z become 0 so its innovation stays finite.
    update_mask = np.isfinite(z_in)
    z_in[~update_mask] = 0.0
    r_in = np.where(update_mask, r, math.inf)
    row_any = update_mask.any(axis=1).tolist()

    # Work rows. Stacks: sc = [cos, sin], bg = [b, sin g], dx = [drift,
    # a_long dt] (the state increment), ap/bp/cp = the three terms of the
    # covariance sums [p11', p22'], dk = [dtheta, dv] (the update).
    sc = np.empty((2, n_tracks))
    cos_t, sin_t = sc
    bg = np.zeros((2, n_tracks))  # b stays 0 for the kinematic model
    b, sin_g = bg
    dx = np.empty((2, n_tracks))
    drift, a_dt = dx
    ap = np.empty((2, n_tracks))
    p11, c2_p11 = ap  # p11 lives in ap[0] between ticks
    bp = np.empty((2, n_tracks))
    b_p12, cd2_p12 = bp
    cp = np.empty((2, n_tracks))
    bp22_b, dd_p22 = cp
    pp = np.empty((2, n_tracks))  # predicted [p11', p22']
    p11_pred, p22_pred = pp
    dk = np.empty((2, n_tracks))
    dtheta, dv = dk
    a_long, slope, cc, cv, c, d, c_p11, t1, t2 = np.empty((9, n_tracks))
    p12, p12_pred, k1, k2, one_m = np.empty((5, n_tracks))
    s_scratch, inno_scratch = np.empty((2, n_tracks))

    x = np.stack([np.zeros(n_tracks), v0])  # [theta, v] before the first tick
    theta, v = x
    p11[:] = cfg.initial_speed_std**2
    p12[:] = 0.0
    p22 = np.full(n_tracks, cfg.initial_grade_std**2)

    mul, add, sub, div = np.multiply, np.add, np.subtract, np.divide
    maximum, minimum, sin, cos = np.maximum, np.minimum, np.sin, np.cos
    s_rows = iter(s_out) if s_out is not None else itertools.repeat(s_scratch)
    inno_rows = iter(inno_out) if inno_out is not None else itertools.repeat(inno_scratch)
    ticks = zip(
        a_in, z_in, r_in, xs_out, theta_out, v_out, var_out, s_rows, inno_rows,
        row_any,
    )
    # Every product is associated exactly as GradientFilterCore.predict and
    # .update associate it; multiplication and addition are commutative in
    # IEEE arithmetic, so only the grouping has to match.
    for i, (a_meas, z, r_row, x_row, theta_row, v_row, p22_row, s_row, inno,
            upd_any) in enumerate(ticks):
        sin(theta, sin_t)
        cos(theta, cos_t)
        maximum(cos_t, floor, out=cos_t)
        if specific_force:
            mul(sc, kg, bg)  # b = -g dt cos, sin g
            sub(a_meas, sin_g, a_long)  # a_long = a - g sin
            mul(a_long, sin_t, slope)
            mul(cos_t, cos_t, cc)
            div(slope, cc, slope)
            sub(slope, g_row, slope)  # a_long sin / cos^2 - g
        else:
            a_long = a_meas  # b stays 0
            mul(a_long, sin_t, slope)
            mul(cos_t, cos_t, cc)
            div(slope, cc, slope)  # a_long sin / cos^2
        mul(cdt, v, cv)  # cdt v, shared by d and the drift term
        mul(cv, slope, d)
        add(d, one, d)  # d = 1 + ddrift/dtheta dt
        mul(cdt, a_long, c)
        div(c, cos_t, c)  # c = cdt a_long / cos
        mul(cv, a_long, drift)
        div(drift, cos_t, drift)  # drift dt = cdt v a_long / cos
        mul(a_long, dt, a_dt)

        # State prediction and clamps, straight into this tick's output row.
        add(x, dx, x_row)
        maximum(x_row, x_lo, out=x_row)
        minimum(x_row, x_hi, out=x_row)
        x, theta, v = x_row, theta_row, v_row

        # Covariance prediction P = F P F^T + Q with F = [[1, b], [c, d]]:
        # p11' = p11 + b p12 + (p12 + b p22) b + q_v and p22' = c (c p11)
        # + c d p12 2 + d d p22 + q_t summed as one stack; p12' apart.
        mul(c, p11, c_p11)
        mul(c, c_p11, c2_p11)
        mul(b, p12, b_p12)
        mul(c, d, t1)
        mul(t1, p12, t1)
        mul(t1, two, cd2_p12)
        mul(b, p22, t2)
        add(p12, t2, t2)
        mul(t2, b, bp22_b)
        mul(d, d, t2)
        mul(t2, p22, dd_p22)
        add(ap, bp, pp)
        add(pp, cp, pp)
        add(pp, q, pp)
        mul(b, c, t1)
        add(t1, d, t1)
        mul(t1, p12, t1)  # (b c + d) p12
        mul(b, d, t2)
        mul(t2, p22, t2)  # b d p22
        add(c_p11, t1, p12_pred)
        add(p12_pred, t2, p12_pred)

        # Measurement update with H = [1, 0]; a held track's r is inf, so
        # one pass serves every tick shape.
        if upd_any:
            add(p11_pred, r_row, s_row)
            div(p11_pred, s_row, k1)
            div(p12_pred, s_row, k2)
            sub(z, v, inno)
            sub(one, k1, one_m)
            mul(k2, inno, dtheta)
            mul(k1, inno, dv)
            add(x, dk, x)
            mul(k2, p12_pred, t1)
            sub(p22_pred, t1, p22_row)
            mul(one_m, p12_pred, p12)
            mul(one_m, p11_pred, p11)
        else:
            p22_row[...] = p22_pred
            p11[...] = p11_pred
            p12, p12_pred = p12_pred, p12
        p22 = p22_row
        done = ends.get(i)
        if done is not None:
            final_p[0, done] = p11[done]
            final_p[1, done] = p12[done]
            final_p[2, done] = p22[done]

    # The padded inputs are dead past the loop; free them before the reruns,
    # tails and unpack allocate. The zip and the last tick's rows (a_long is
    # a row of a_in under the kinematic model) hold them too.
    del ticks, a_meas, z, r_row, a_long, a_in, z_in, r_in, update_mask

    # -- tails and reruns, before any sink sees a track ---------------------
    # A held track's update adds exact zeros only while its predicted state
    # is finite; otherwise inf / inf or 0 * inf leaves a NaN theta or v at
    # that tick.
    # Such a track is rerun on the scalar core, the reference for
    # non-finite arithmetic. A finite track longer than h continues on the
    # scalar forward pass from its state at tick h - 1, reading its own
    # NaN-holed measurements. Reruns and tails run first and without sinks,
    # so a track the scalar core raises on (e.g. an overflowing accel)
    # raises here before any sink has seen a track of this call, and the
    # caller can retry the other tracks in narrower calls without double
    # counts.
    finite = np.isfinite(xs_out).all(axis=(0, 1)).tolist()
    reruns = {
        k: estimate_track(
            accels[k],
            velocities[k],
            arc_lengths[k],
            vehicle=vehicle,
            config=cfg,
            name=names[k] if names is not None else None,
        )
        for k in range(n_tracks)
        if not finite[k]
    }
    tails: dict[int, tuple[GradientFilterCore, _Forward]] = {}
    for k in range(n_tracks):
        if finite[k] and lengths[k] > h:
            core = GradientFilterCore(dt[k], vehicle, cfg, stds[k], v[k])
            core.theta = float(theta[k])
            core.p11, core.p12, core.p22 = float(p11[k]), float(p12[k]), float(p22[k])
            fwd = _forward_pass(core, accels[k].values[h:].tolist(), zs[k][h:].tolist())
            tails[k] = core, fwd

    # -- unpack per track ---------------------------------------------------
    tracks: list[GradientTrack] = []
    for k in range(n_tracks):
        n_k = lengths[k]
        tel_k = tels[k]
        mon_k = mons[k]
        name_k = names[k] if names is not None else None
        if not finite[k]:
            if tel_k is None and mon_k is None:
                tracks.append(reruns[k])
            else:  # once more, now reporting to its sinks
                tracks.append(
                    estimate_track(
                        accels[k],
                        velocities[k],
                        arc_lengths[k],
                        vehicle=vehicle,
                        config=cfg,
                        name=name_k,
                        telemetry=tel_k,
                        monitor=mon_k,
                    )
                )
            continue
        tail = tails.get(k)
        if tail is None:
            theta_k, var_k, v_k = (col[:n_k, k].copy() for col in (theta_out, var_out, v_out))
        else:
            core, fwd = tail
            theta_k = np.concatenate((theta_out[:, k], fwd.theta))
            var_k = np.concatenate((var_out[:, k], fwd.var))
            v_k = np.concatenate((v_out[:, k], fwd.v))
        if tel_k is not None or mon_k is not None:
            ticks_k = np.flatnonzero(np.isfinite(zs[k]))
            head = ticks_k[ticks_k < h]
            inno_k = inno_out[head, k]
            if tail is not None:
                inno_k = np.concatenate((inno_k, fwd.innovations))
        if tel_k is not None:
            vel = velocities[k]
            dropped = int(np.count_nonzero(~(vel.valid & np.isfinite(vel.values))))
            tel_k.count("samples_dropped", dropped)
            tel_k.count("ekf_ticks", int(n_k))
            tel_k.count("ekf_updates", len(ticks_k))
            if len(ticks_k):
                tel_k.observe_many("ekf_innovation_abs", np.abs(inno_k))
            tel_k.gauge("ekf.final_theta_variance", float(var_k[-1]))
        if mon_k is not None:
            s_k = s_out[head, k]
            if tail is not None:
                s_k = np.concatenate((s_k, fwd.inno_var))
                final_cov = (core.p11, core.p12, core.p22)
            else:
                final_cov = tuple(final_p[:, k].tolist())
            mon_k.check_track(
                name_k or velocities[k].name,
                theta_k,
                var_k,
                innovations=inno_k,
                s=s_k,
                update_ticks=ticks_k,
                dt=float(dt[k]),
                n_ticks=int(n_k),
                final_cov=final_cov,
            )
        tracks.append(
            GradientTrack(
                name=name_k or velocities[k].name,
                t=readonly_view(ts[k]),
                s=readonly_view(ss[k]),
                theta=theta_k,
                variance=var_k,
                v=v_k,
                meta={
                    "process": cfg.process,
                    "measurement_std": stds[k],
                    "smoothed": cfg.smooth,
                    "engine": "batch",
                },
            )
        )
    return tracks
