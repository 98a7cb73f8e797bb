"""Binary checkpoint files.

Layout (little-endian), documented so external tools can read it:

    magic      5 bytes   b"RBNS1"
    n1, n2     uint32 x2
    gamma      float64
    ra, pr     float64 x2
    time       float64
    series     3 blocks (height profile, bottom alpha, top alpha), each:
                   n_modes   uint32
                   offset    float64
                   modes     n_modes x (uint32 k, float64 cos, float64 sin)
    fields     row-major float64 arrays omega, psi, temp, each n1*n2

Round trips are bit-exact: raw float64 bytes in, raw float64 bytes out.
The stream-function trace constant is not stored separately; it is the
(constant) top row of psi.  The header fixes the file length, and a file
of any other length is rejected.  A checkpoint is written through
``rbns.files.atomic_open``, so a kill or a failed write never leaves a
partial file under a ``checkpoint_*`` name.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from rbns.files import atomic_open
from rbns.geometry import FourierSeries

MAGIC = b"RBNS1"


@dataclass
class CheckpointData:
    n1: int
    n2: int
    gamma: float
    ra: float
    pr: float
    time: float
    profile: FourierSeries
    alpha_bottom: FourierSeries
    alpha_top: FourierSeries
    omega: np.ndarray
    psi: np.ndarray
    temp: np.ndarray

    @property
    def psi_top(self) -> float:
        return float(self.psi[0, -1])


def _pack_series(series: FourierSeries) -> bytes:
    parts = [struct.pack("<Id", len(series.modes), series.offset)]
    for k, c, s in series.modes:
        parts.append(struct.pack("<Idd", k, c, s))
    return b"".join(parts)


def _unpack_series(buf: memoryview, offset: int, gamma: float) -> tuple[FourierSeries, int]:
    n_modes, mean = struct.unpack_from("<Id", buf, offset)
    offset += struct.calcsize("<Id")
    modes = []
    for _ in range(n_modes):
        k, c, s = struct.unpack_from("<Idd", buf, offset)
        offset += struct.calcsize("<Idd")
        modes.append((k, c, s))
    return FourierSeries(gamma=gamma, offset=mean, modes=tuple(modes)), offset


def write_checkpoint(path, data: CheckpointData) -> None:
    """Write data to path; any previous file at path stays intact until the rename."""
    for arr in (data.omega, data.psi, data.temp):
        if arr.shape != (data.n1, data.n2):
            raise ValueError(f"field shape {arr.shape} != ({data.n1}, {data.n2})")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", data.n1, data.n2))
        fh.write(struct.pack("<dddd", data.gamma, data.ra, data.pr, data.time))
        fh.write(_pack_series(data.profile))
        fh.write(_pack_series(data.alpha_bottom))
        fh.write(_pack_series(data.alpha_top))
        for arr in (data.omega, data.psi, data.temp):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_checkpoint(path) -> CheckpointData:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic {raw[:5]!r})")
    buf = memoryview(raw)
    off = len(MAGIC)
    try:
        n1, n2 = struct.unpack_from("<II", buf, off)
        off += struct.calcsize("<II")
        gamma, ra, pr, time = struct.unpack_from("<dddd", buf, off)
        off += struct.calcsize("<dddd")
        profile, off = _unpack_series(buf, off, gamma)
        alpha_bottom, off = _unpack_series(buf, off, gamma)
        alpha_top, off = _unpack_series(buf, off, gamma)
    except struct.error:
        raise ValueError(f"{path}: checkpoint header cut short ({len(raw)} bytes)") from None
    count = n1 * n2
    expected = off + 3 * 8 * count
    if len(raw) != expected:
        raise ValueError(f"{path}: checkpoint is {len(raw)} bytes, its header implies "
                         f"{expected}")
    fields = []
    for _ in range(3):
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(n1, n2).copy()
        off += 8 * count
        fields.append(arr)
    return CheckpointData(
        n1=n1, n2=n2, gamma=gamma, ra=ra, pr=pr, time=time,
        profile=profile, alpha_bottom=alpha_bottom, alpha_top=alpha_top,
        omega=fields[0], psi=fields[1], temp=fields[2],
    )
