"""Persistence for phone recordings: the zero-copy trip store.

A research workflow records trips once and re-runs estimators many times.
:class:`TripStore` lays a whole fleet of recordings out as a directory of
padded ``.npy`` column matrices plus a ``manifest.json`` (schema
``repro.trip_store/v1``); ground truth is stored only when present.
Opening a store memory-maps every matrix read-only
(``np.load(mmap_mode="r")``, never pickle), so :meth:`TripStore.recording`
rebuilds trips from on-disk views without materializing the fleet, and
:meth:`TripStore.batch` hands the mapped matrices straight to
:class:`~repro.core.trip_batch.TripBatch` via ``from_padded`` — the batch
pipeline then computes directly on the file pages.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ..errors import SensorError
from ..vehicle.trip import _ARRAY_FIELDS, TruthTrace
from .base import SampledSignal
from .gps import GPSFixes
from .phone import PhoneRecording

__all__ = ["TripStore"]

_SIGNAL_CHANNELS = (
    "accel_long",
    "accel_lat",
    "gyro",
    "speedometer",
    "barometer",
    "canbus",
)

_STORE_SCHEMA = "repro.trip_store/v1"
_STORE_MANIFEST = "manifest.json"

#: TruthTrace array fields stored ragged alongside the 12 float fields.
_TRACE_EXTRA_FIELDS = ("lane", "lane_change", "gps_available")


def _pad_rows(rows: Sequence[np.ndarray], width: int, pad_last: bool) -> np.ndarray:
    """Stack 1-D rows into a padded matrix.

    ``pad_last=True`` repeats each row's final element across the pad
    (timebase convention: per-row ``diff`` is 0 there); otherwise pads
    with the dtype's zero (0.0 for values, False for valid masks).
    """
    dtype = rows[0].dtype
    out = np.zeros((len(rows), width), dtype=dtype)
    for i, row in enumerate(rows):
        n = len(row)
        out[i, :n] = row
        if pad_last and n and n < width:
            out[i, n:] = row[n - 1]
    return out


def _concat_ragged(rows: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(flat, offsets)`` for variable-length rows; row i is
    ``flat[offsets[i]:offsets[i + 1]]``."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    flat = (
        np.concatenate(list(rows))
        if offsets[-1]
        else np.zeros(0, dtype=rows[0].dtype if rows else float)
    )
    return flat, offsets


class TripStore:
    """A fleet of recordings as memory-mapped columnar matrices on disk.

    Layout (one directory): ``manifest.json`` plus plain ``.npy`` files —
    the master ``lengths``/``t2d`` matrices, per-channel
    ``values``/``valid`` matrices padded to the batch width (channels on
    private timebases — the CAN bus — additionally store their own padded
    ``t2d``), and ragged GPS/truth arrays as concatenation + offsets. No
    pickle anywhere: :meth:`open` loads every array with
    ``np.load(mmap_mode="r")``, so recordings and batches are read-only
    views into the file pages until a stage actually needs to write
    (:class:`~repro.core.trip_batch.TripBatch` copies on write).

    Build a store with :meth:`write`, reopen it with :meth:`open`, and
    feed the whole fleet to the pipeline with :meth:`batch`.
    """

    def __init__(self, root: Path, manifest: dict, arrays: dict[str, np.ndarray]) -> None:
        self._root = root
        self._manifest = manifest
        self._arrays = arrays
        self.n_trips: int = int(manifest["n_trips"])
        self.max_len: int = int(manifest["max_len"])

    # -- writing ------------------------------------------------------------

    @classmethod
    def write(cls, root: str | Path, recordings: Sequence[PhoneRecording]) -> "TripStore":
        """Lay ``recordings`` out under ``root`` and return the open store."""
        if len(recordings) == 0:
            raise SensorError("TripStore.write needs at least one recording")
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)

        lengths = np.array([len(r.t) for r in recordings], dtype=np.int64)
        max_len = int(lengths.max())
        arrays: dict[str, np.ndarray] = {
            "lengths": lengths,
            "t2d": _pad_rows([r.t for r in recordings], max_len, pad_last=True),
        }
        channels: dict[str, dict[str, Any]] = {}
        for name in _SIGNAL_CHANNELS:
            signals = [getattr(r, name) for r in recordings]
            ch_lengths = np.array([len(s.t) for s in signals], dtype=np.int64)
            width = max(max_len, int(ch_lengths.max()))
            uniform = np.array(
                [s.t is r.t or np.array_equal(s.t, r.t) for s, r in zip(signals, recordings)],
                dtype=bool,
            )
            arrays[f"{name}.lengths"] = ch_lengths
            arrays[f"{name}.uniform"] = uniform
            arrays[f"{name}.values"] = _pad_rows(
                [s.values for s in signals], width, pad_last=False
            )
            arrays[f"{name}.valid"] = _pad_rows(
                [s.valid for s in signals], width, pad_last=False
            )
            if not uniform.all():
                arrays[f"{name}.t2d"] = _pad_rows(
                    [s.t for s in signals], width, pad_last=True
                )
            channels[name] = {
                "width": width,
                "has_t2d": not bool(uniform.all()),
                "names": [s.name for s in signals],
                "units": [s.unit for s in signals],
                "metas": [s.meta for s in signals],
            }

        gps_list = [r.gps for r in recordings]
        for key in ("t", "x", "y", "speed", "available"):
            flat, offsets = _concat_ragged([getattr(g, key) for g in gps_list])
            arrays[f"gps.{key}"] = flat
        arrays["gps.offsets"] = offsets

        has_truth = [r.truth is not None for r in recordings]
        truths = [r.truth for r in recordings if r.truth is not None]
        if truths:
            by_trip = [
                r.truth.t if r.truth is not None else np.zeros(0) for r in recordings
            ]
            arrays["truth.offsets"] = _concat_ragged(by_trip)[1]
            for key in _ARRAY_FIELDS + _TRACE_EXTRA_FIELDS:
                rows = [
                    getattr(r.truth, key)
                    if r.truth is not None
                    else np.zeros(0, dtype=getattr(truths[0], key).dtype)
                    for r in recordings
                ]
                arrays[f"truth.{key}"] = _concat_ragged(rows)[0]

        manifest = {
            "schema": _STORE_SCHEMA,
            "n_trips": len(recordings),
            "max_len": max_len,
            "dt": [float(r.dt) for r in recordings],
            "mounting_yaw_true": [float(r.mounting_yaw_true) for r in recordings],
            "mounting_yaw_estimate": [float(r.mounting_yaw_estimate) for r in recordings],
            "channels": channels,
            "has_truth": has_truth,
            "truth_dt": [float(t.dt) for t in truths],
            "truth_driver_name": [t.driver_name for t in truths],
            "arrays": sorted(arrays),
        }
        try:
            manifest_text = json.dumps(manifest, indent=1, sort_keys=True)
        except TypeError as exc:
            raise SensorError(
                f"recording metadata is not JSON-serializable: {exc}"
            ) from exc
        for key, arr in arrays.items():
            np.save(root / f"{key}.npy", arr, allow_pickle=False)
        (root / _STORE_MANIFEST).write_text(manifest_text, encoding="utf-8")
        return cls.open(root)

    # -- opening ------------------------------------------------------------

    @classmethod
    def open(cls, root: str | Path, mmap: bool = True) -> "TripStore":
        """Open a store directory; arrays are memory-mapped read-only.

        Raises :class:`~repro.errors.SensorError` naming the problem when
        the manifest is missing, malformed, from a different schema, or
        promises arrays that are absent, truncated, or mis-shaped.
        ``mmap=False`` loads the arrays into memory instead (the
        in-memory twin used by the round-trip equality tests).
        """
        root = Path(root)
        manifest_path = root / _STORE_MANIFEST
        if not manifest_path.is_file():
            raise SensorError(f"{root} is not a trip store: no {_STORE_MANIFEST}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SensorError(f"{manifest_path} is not valid JSON: {exc}") from exc
        if not isinstance(manifest, dict) or manifest.get("schema") != _STORE_SCHEMA:
            raise SensorError(
                f"{manifest_path} has schema {manifest.get('schema')!r} "
                f"(this reader understands {_STORE_SCHEMA!r})"
            )
        required = {"n_trips", "max_len", "dt", "channels", "has_truth", "arrays"}
        missing = sorted(required - set(manifest))
        if missing:
            raise SensorError(f"{manifest_path} is missing field(s) {missing}")

        arrays: dict[str, np.ndarray] = {}
        for key in manifest["arrays"]:
            path = root / f"{key}.npy"
            if not path.is_file():
                raise SensorError(
                    f"{root} is corrupt: manifest promises array {key!r} "
                    f"but {path.name} is missing"
                )
            try:
                arrays[key] = np.load(
                    path, mmap_mode="r" if mmap else None, allow_pickle=False
                )
            except (OSError, ValueError) as exc:
                raise SensorError(
                    f"{root} is corrupt: array {key!r} is unreadable: {exc}"
                ) from exc

        store = cls(root, manifest, arrays)
        store._validate_shapes()
        return store

    def _validate_shapes(self) -> None:
        n, width = self.n_trips, self.max_len
        shape_of = {"lengths": (n,), "t2d": (n, width), "gps.offsets": (n + 1,)}
        for name, spec in self._manifest["channels"].items():
            w = int(spec["width"])
            shape_of[f"{name}.lengths"] = (n,)
            shape_of[f"{name}.uniform"] = (n,)
            shape_of[f"{name}.values"] = (n, w)
            shape_of[f"{name}.valid"] = (n, w)
            if spec["has_t2d"]:
                shape_of[f"{name}.t2d"] = (n, w)
        for key, want in shape_of.items():
            arr = self._arrays.get(key)
            if arr is None:
                raise SensorError(f"{self._root} is corrupt: array {key!r} is missing")
            if arr.shape != want:
                raise SensorError(
                    f"{self._root} is corrupt: array {key!r} has shape "
                    f"{arr.shape}, manifest implies {want}"
                )

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return self.n_trips

    def _timebase(self, key: str, i: int, n: int) -> np.ndarray:
        """Trip ``i``'s ``n`` timestamps from a padded timebase, checked
        finite: a NaN timestamp would otherwise surface only as every track
        failing the fusion quality gate. Checked per trip, when it is read,
        so opening a store touches no timebase page."""
        t = self._arrays[key][i, :n]
        if not np.isfinite(t).all():
            raise SensorError(
                f"{self._root} is corrupt: array {key!r} holds non-finite "
                f"timestamps for trip {i}"
            )
        return t

    def _signal(self, i: int, name: str, rec_t: np.ndarray) -> SampledSignal:
        spec = self._manifest["channels"][name]
        m = int(self._arrays[f"{name}.lengths"][i])
        if bool(self._arrays[f"{name}.uniform"][i]):
            t = rec_t
        else:
            t = self._timebase(f"{name}.t2d", i, m)
        return SampledSignal(
            t=t,
            values=self._arrays[f"{name}.values"][i, :m],
            valid=self._arrays[f"{name}.valid"][i, :m],
            name=spec["names"][i],
            unit=spec["units"][i],
            meta=dict(spec["metas"][i]),
        )

    def _truth(self, i: int) -> TruthTrace | None:
        if not self._manifest["has_truth"][i]:
            return None
        offsets = self._arrays["truth.offsets"]
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        kwargs = {
            key: self._arrays[f"truth.{key}"][lo:hi]
            for key in _ARRAY_FIELDS + _TRACE_EXTRA_FIELDS
        }
        # dt/driver_name lists are indexed over truth-bearing trips only.
        pos = sum(1 for flag in self._manifest["has_truth"][:i] if flag)
        return TruthTrace(
            **kwargs,
            dt=float(self._manifest["truth_dt"][pos]),
            driver_name=str(self._manifest["truth_driver_name"][pos]),
        )

    def recording(self, i: int) -> PhoneRecording:
        """Trip ``i`` rebuilt from zero-copy views into the mapped files."""
        if not 0 <= i < self.n_trips:
            raise SensorError(f"trip index {i} out of range for {self.n_trips} trips")
        n = int(self._arrays["lengths"][i])
        rec_t = self._timebase("t2d", i, n)
        offsets = self._arrays["gps.offsets"]
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        gps = GPSFixes(
            t=self._arrays["gps.t"][lo:hi],
            x=self._arrays["gps.x"][lo:hi],
            y=self._arrays["gps.y"][lo:hi],
            speed=self._arrays["gps.speed"][lo:hi],
            available=self._arrays["gps.available"][lo:hi],
        )
        return PhoneRecording(
            t=rec_t,
            dt=float(self._manifest["dt"][i]),
            gps=gps,
            mounting_yaw_true=float(self._manifest["mounting_yaw_true"][i]),
            mounting_yaw_estimate=float(self._manifest["mounting_yaw_estimate"][i]),
            truth=self._truth(i),
            **{name: self._signal(i, name, rec_t) for name in _SIGNAL_CHANNELS},
        )

    def recordings(self) -> list[PhoneRecording]:
        """All trips, each a zero-copy view bundle."""
        return [self.recording(i) for i in range(self.n_trips)]

    def batch(self) -> "Any":
        """The whole fleet as a :class:`~repro.core.trip_batch.TripBatch`.

        The batch wraps the store's mapped matrices directly
        (``TripBatch.from_padded``): no channel column is ever rebuilt in
        memory unless a repairing stage writes to it. Channels wider than
        the master timebase (none in practice) fall back to the batch's
        own lazy column construction.
        """
        from ..core.trip_batch import TripBatch

        columns = {}
        for name, spec in self._manifest["channels"].items():
            if int(spec["width"]) == self.max_len:
                columns[name] = (
                    self._arrays[f"{name}.values"],
                    self._arrays[f"{name}.valid"],
                )
        return TripBatch.from_padded(self.recordings(), self._arrays["t2d"], columns)

