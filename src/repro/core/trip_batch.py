"""Columnar trip batching: N trips resident as padded, masked arrays.

The pipeline historically processed one trip per pass; fleet-scale
ingestion amortizes the per-trip interpreter cost by keeping a *batch* of
trips resident as structured arrays. :class:`TripBatch` is the columnar
container — per-channel ``(n_trips, max_len)`` value/valid matrices padded
to the longest trip, plus the shared timebase matrix and per-trip lengths —
and :class:`BatchPipelineContext` carries one
:class:`~repro.core.stages.PipelineContext` per trip through the stage
list, recording per-trip failures instead of letting one bad trip kill the
batch.

Padding and masking
-------------------
Rows shorter than ``max_len`` are padded: timebases repeat their last
timestamp (so per-row ``diff`` is 0 across the pad), channel values pad
with 0.0 and ``valid=False``. :attr:`TripBatch.sample_mask` marks the real
samples. Batch-aware stages compute on the padded matrices and slice each
row back to its true length, which keeps every columnar result elementwise
bit-identical to the per-trip scalar path (numpy's elementwise kernels,
row-wise ``cumsum`` and per-row reductions do not mix rows).

Copy-on-write
-------------
Batches built over memory-mapped columns (the
:class:`~repro.sensors.recording_io.TripStore` zero-copy path) share the
on-disk arrays read-only; :meth:`TripBatch.set_recording` — used by the
sanitize stage when a trip needs repair — promotes the affected matrices
to writable copies first, so clean trips never pay a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator, Sequence

import numpy as np

from ..errors import EstimationError
from ..sensors.phone import PhoneRecording

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..roads.profile import RoadProfile
    from ..vehicle.params import VehicleParams
    from .pipeline import GradientSystemConfig
    from .stages import PipelineContext

__all__ = ["BATCH_CHANNELS", "TripBatch", "BatchPipelineContext"]

#: The six sampled sensor channels a batch columnizes, in recording order.
BATCH_CHANNELS = (
    "accel_long",
    "accel_lat",
    "gyro",
    "speedometer",
    "barometer",
    "canbus",
)


class TripBatch:
    """N trips as padded columnar arrays plus the originating recordings.

    Channel matrices are built lazily (:meth:`column`) so stages only pay
    for the channels they read, and cached for the batch's lifetime. The
    per-trip :class:`~repro.sensors.phone.PhoneRecording` objects stay
    reachable via :meth:`recording` for code paths that remain per-trip
    (GPS map matching, scalar fallbacks).
    """

    def __init__(self, recordings: Sequence[PhoneRecording]) -> None:
        if len(recordings) == 0:
            raise EstimationError("TripBatch needs at least one recording")
        self._recordings: list[PhoneRecording] = list(recordings)
        self.lengths = np.array([len(r.t) for r in self._recordings], dtype=int)
        if int(self.lengths.min()) < 1:
            raise EstimationError("TripBatch recordings must have samples")
        self.max_len = int(self.lengths.max())
        self.n_trips = len(self._recordings)
        self._t2d: np.ndarray | None = None
        self._columns: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._mask: np.ndarray | None = None
        self._channel_uniform: dict[str, np.ndarray] = {}
        self._uniform: np.ndarray | None = None

    @classmethod
    def from_recordings(cls, recordings: Sequence[PhoneRecording]) -> "TripBatch":
        """Build a batch by padding the recordings' channels (copies)."""
        return cls(recordings)

    @classmethod
    def from_padded(
        cls,
        recordings: Sequence[PhoneRecording],
        t2d: np.ndarray,
        columns: dict[str, tuple[np.ndarray, np.ndarray]],
    ) -> "TripBatch":
        """Wrap already-padded matrices without copying (zero-copy path).

        Used by :class:`~repro.sensors.recording_io.TripStore` to hand its
        memory-mapped matrices straight to the pipeline. The matrices may
        be read-only; repairs promote them to copies on demand.
        """
        batch = cls(recordings)
        if t2d.shape != (batch.n_trips, batch.max_len):
            raise EstimationError(
                f"padded timebase shape {t2d.shape} does not match the "
                f"batch ({batch.n_trips}, {batch.max_len})"
            )
        batch._t2d = t2d
        for name, (values, valid) in columns.items():
            if name not in BATCH_CHANNELS:
                raise EstimationError(f"unknown batch channel {name!r}")
            if values.shape != t2d.shape or valid.shape != t2d.shape:
                raise EstimationError(
                    f"padded channel {name!r} does not match the batch shape"
                )
            batch._columns[name] = (values, valid)
        return batch

    def __len__(self) -> int:
        return self.n_trips

    def recording(self, i: int) -> PhoneRecording:
        """The i-th trip's recording (post-repair, if a stage replaced it)."""
        return self._recordings[i]

    @property
    def t2d(self) -> np.ndarray:
        """(n_trips, max_len) timebase matrix, rows padded with the last t."""
        if self._t2d is None:
            t2d = np.empty((self.n_trips, self.max_len))
            for i, rec in enumerate(self._recordings):
                n = self.lengths[i]
                t2d[i, :n] = rec.t
                t2d[i, n:] = rec.t[n - 1]
            self._t2d = t2d
        return self._t2d

    @property
    def sample_mask(self) -> np.ndarray:
        """(n_trips, max_len) bool matrix marking real (non-pad) samples."""
        if self._mask is None:
            self._mask = np.arange(self.max_len)[None, :] < self.lengths[:, None]
        return self._mask

    def channel_uniform(self, name: str) -> np.ndarray:
        """Per-trip flag: channel ``name`` shares the recording's timebase.

        Columnar stage paths that read a channel next to :attr:`t2d` gate
        on the channel they actually use (the simulated CAN bus, for one,
        always samples on its own lower-rate timebase — requiring *every*
        channel to be uniform would disable the fast paths outright).
        Trips where the gating channel has its own timebase take the
        scalar per-trip path instead, so correctness never depends on
        this flag.
        """
        if name not in BATCH_CHANNELS:
            raise EstimationError(
                f"unknown batch channel {name!r}; channels are {list(BATCH_CHANNELS)}"
            )
        cached = self._channel_uniform.get(name)
        if cached is None:
            cached = np.empty(self.n_trips, dtype=bool)
            for i, rec in enumerate(self._recordings):
                sig_t = getattr(rec, name).t
                cached[i] = sig_t is rec.t or np.array_equal(sig_t, rec.t)
            self._channel_uniform[name] = cached
        return cached

    @property
    def uniform(self) -> np.ndarray:
        """Per-trip flag: *every* channel shares the recording's timebase.

        The conservative all-channels conjunction of
        :meth:`channel_uniform` — used where any private timebase must
        force the per-trip path (the sanitize screen).
        """
        if self._uniform is None:
            flags = np.ones(self.n_trips, dtype=bool)
            for ch in BATCH_CHANNELS:
                flags &= self.channel_uniform(ch)
            self._uniform = flags
        return self._uniform

    def column(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(values, valid)`` padded matrices for one sensor channel.

        Values pad with 0.0 and ``valid`` with False beyond each signal's
        own length (channels may sample on their own, shorter timebases —
        the CAN bus does); rows are exactly the per-trip signal arrays
        otherwise. A channel longer than the batch width is clipped; such
        trips are never ``uniform`` so columnar paths skip them anyway.
        """
        if name not in BATCH_CHANNELS:
            raise EstimationError(
                f"unknown batch channel {name!r}; channels are {list(BATCH_CHANNELS)}"
            )
        cached = self._columns.get(name)
        if cached is None:
            values = np.zeros((self.n_trips, self.max_len))
            valid = np.zeros((self.n_trips, self.max_len), dtype=bool)
            for i, rec in enumerate(self._recordings):
                signal = getattr(rec, name)
                n = min(len(signal.values), self.max_len)
                values[i, :n] = signal.values[:n]
                valid[i, :n] = signal.valid[:n]
            cached = (values, valid)
            self._columns[name] = cached
        return cached

    def set_recording(self, i: int, recording: PhoneRecording) -> None:
        """Replace trip ``i``'s recording and refresh its cached rows.

        Used by repairing stages (sanitize); the replacement must keep the
        trip's sample count so padded shapes stay valid.
        """
        if len(recording.t) != int(self.lengths[i]):
            raise EstimationError(
                "set_recording cannot change a trip's sample count"
            )
        self._recordings[i] = recording
        n = int(self.lengths[i])
        if self._t2d is not None:
            self._t2d = _writable(self._t2d)
            self._t2d[i, :n] = recording.t
            self._t2d[i, n:] = recording.t[n - 1]
        for name, (values, valid) in list(self._columns.items()):
            signal = getattr(recording, name)
            values = _writable(values)
            valid = _writable(valid)
            m = min(len(signal.values), self.max_len)
            values[i, :m] = signal.values[:m]
            values[i, m:] = 0.0
            valid[i, :m] = signal.valid[:m]
            valid[i, m:] = False
            self._columns[name] = (values, valid)
        # Timebases may have been replaced; recompute uniformity lazily.
        self._uniform = None
        self._channel_uniform.clear()


def _writable(arr: np.ndarray) -> np.ndarray:
    """The array itself, or a writable copy when it is read-only (mmap)."""
    return arr if arr.flags.writeable else arr.copy()


@dataclass
class BatchPipelineContext:
    """Everything flowing through one *batch* estimation pass.

    ``contexts`` holds one per-trip :class:`PipelineContext`, each with
    its trip's telemetry; stages read and write those exactly as a
    per-trip ``run`` does (so per-trip telemetry and outputs do not depend
    on the batch), while ``batch`` provides the shared columnar views.
    ``failed`` maps trip position to the exception that removed it from
    the batch — remaining stages skip failed trips via :meth:`live_items`.
    """

    batch: TripBatch
    contexts: "list[PipelineContext]"
    config: "GradientSystemConfig"
    road_map: "RoadProfile"
    vehicle: "VehicleParams"
    failed: dict[int, BaseException] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def live_items(self) -> "Iterator[tuple[int, Any]]":
        """``(position, context)`` pairs for trips still in the batch."""
        for i, ctx in enumerate(self.contexts):
            if i not in self.failed:
                yield i, ctx

    @property
    def n_live(self) -> int:
        """Trips still in the batch."""
        return len(self.contexts) - len(self.failed)

    def fail(self, pos: int, exc: BaseException) -> None:
        """Record trip ``pos`` as failed; later stages skip it.

        The failure is counted on the trip's own telemetry, so a trip
        reports it the same whatever batch it rides in.
        """
        self.failed[pos] = exc
        tel = self.contexts[pos].telemetry
        if tel.active:
            tel.count("pipeline.batch.trip_failed")
            tel.event(
                "pipeline.batch.trip_failed",
                position=pos,
                error=f"{type(exc).__name__}: {exc}",
            )
