import numpy as np
import pytest

from rbns.checkpoint import CheckpointData, read_checkpoint, write_checkpoint
from rbns.config import parse_config
from rbns.geometry import FourierSeries
from rbns.runner import run_simulation


def test_round_trip_bit_exact(tmp_path, rng):
    prof = FourierSeries(gamma=2.0, offset=0.1, modes=((1, 0.0, 0.1), (3, 0.05, -0.02)))
    alpha = FourierSeries(gamma=2.0, offset=1.0, modes=((2, 0.5, 0.0),))
    fields = [rng.standard_normal((12, 9)) for _ in range(3)]
    fields[1][:, -1] = 0.625  # constant top trace carries psi_top
    data = CheckpointData(n1=12, n2=9, gamma=2.0, ra=1.5e4, pr=7.25, time=0.1234,
                          profile=prof, alpha_bottom=alpha, alpha_top=alpha,
                          omega=fields[0], psi=fields[1], temp=fields[2])
    path = tmp_path / "state.ckpt"
    write_checkpoint(path, data)
    back = read_checkpoint(path)
    assert (back.n1, back.n2) == (12, 9)
    assert back.gamma == 2.0 and back.ra == 1.5e4 and back.pr == 7.25
    assert back.time == 0.1234
    assert back.profile == prof
    assert back.alpha_bottom == alpha and back.alpha_top == alpha
    for a, b in zip((back.omega, back.psi, back.temp), fields):
        assert np.array_equal(a, b)  # bit-exact float64 round trip
    assert back.psi_top == 0.625
    # writing the read-back data reproduces the file byte for byte
    path2 = tmp_path / "state2.ckpt"
    write_checkpoint(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTRB" + b"\x00" * 64)
    with pytest.raises(ValueError, match="magic"):
        read_checkpoint(path)


def test_shape_mismatch_rejected(tmp_path, rng):
    prof = FourierSeries(gamma=1.0)
    data = CheckpointData(n1=4, n2=8, gamma=1.0, ra=1.0, pr=1.0, time=0.0,
                          profile=prof, alpha_bottom=prof, alpha_top=prof,
                          omega=rng.standard_normal((4, 8)),
                          psi=rng.standard_normal((5, 8)),
                          temp=rng.standard_normal((4, 8)))
    with pytest.raises(ValueError, match="shape"):
        write_checkpoint(tmp_path / "bad.ckpt", data)


def test_rough_wall_resume_bit_exact(tmp_path):
    # the restart check of the acceptance suite runs on flat walls; the
    # rough-wall PCG path must resume bit-exactly too
    text = """
[geometry]
modes = 1:0.0:0.1

[physical]
ra = 1e4
pr = 10.0

[grid]
n1 = 32
n2 = 33

[time]
t_end = 0.02
checkpoint_interval = 0.01

[initial]
temp_perturbation = 0.01
"""
    a = run_simulation(parse_config(text), str(tmp_path / "a"))
    mid = [p for p in a.checkpoints if "checkpoint_000001" in p][0]
    b = run_simulation(parse_config(text), str(tmp_path / "b"), resume=mid)
    assert not a.aborted and not b.aborted
    fa = [p for p in a.checkpoints if "final" in p][0]
    fb = [p for p in b.checkpoints if "final" in p][0]
    assert open(fa, "rb").read() == open(fb, "rb").read()
    # every pressure solve starts cold, so the resumed run recovers the same
    # pressure at every shared sample, the first one after the resume included
    pa, pb = ({r["time"]: r["ens:wall_pressure"] for r in run.recorder.records} for run in (a, b))
    shared = sorted(pa.keys() & pb.keys())
    assert len(shared) >= 2 and all(np.isfinite(pa[t]) for t in shared)
    assert [pa[t] for t in shared] == [pb[t] for t in shared]


def _small_checkpoint(rng, time=0.0):
    prof = FourierSeries(gamma=1.0, modes=((1, 0.0, 0.1),))
    return CheckpointData(n1=6, n2=8, gamma=1.0, ra=1.0e4, pr=10.0, time=time,
                          profile=prof, alpha_bottom=prof, alpha_top=prof,
                          omega=rng.standard_normal((6, 8)), psi=rng.standard_normal((6, 8)),
                          temp=rng.standard_normal((6, 8)))


@pytest.mark.parametrize("change", [-100, 8])
def test_wrong_length_names_file_and_sizes(tmp_path, rng, change):
    # a file cut short (a kill mid-write) or with trailing bytes is rejected
    # with its path and both byte counts, not a bare buffer error
    path = tmp_path / "checkpoint_000001.ckpt"
    write_checkpoint(path, _small_checkpoint(rng))
    raw = path.read_bytes()
    path.write_bytes(raw[:change] if change < 0 else raw + b"\x00" * change)
    with pytest.raises(ValueError) as err:
        read_checkpoint(path)
    message = str(err.value)
    assert str(path) in message
    assert str(len(raw) + change) in message and str(len(raw)) in message


def test_truncated_header_names_file(tmp_path, rng):
    path = tmp_path / "checkpoint_000001.ckpt"
    write_checkpoint(path, _small_checkpoint(rng))
    path.write_bytes(path.read_bytes()[:40])
    with pytest.raises(ValueError, match="header") as err:
        read_checkpoint(path)
    assert str(path) in str(err.value)


def test_failed_write_keeps_previous_checkpoint(tmp_path, rng, monkeypatch):
    import rbns.checkpoint

    path = tmp_path / "checkpoint_000001.ckpt"
    write_checkpoint(path, _small_checkpoint(rng))
    before = path.read_bytes()
    pack = rbns.checkpoint._pack_series
    calls = []

    def failing(series):
        calls.append(series)
        if len(calls) == 2:
            raise OSError("disk full")
        return pack(series)

    monkeypatch.setattr(rbns.checkpoint, "_pack_series", failing)
    with pytest.raises(OSError, match="disk full"):
        write_checkpoint(path, _small_checkpoint(rng, time=1.0))
    calls.clear()
    fresh = tmp_path / "checkpoint_000002.ckpt"
    with pytest.raises(OSError, match="disk full"):
        write_checkpoint(fresh, _small_checkpoint(rng, time=1.0))
    # the old file is intact, and neither a partial file nor a temporary is left
    assert path.read_bytes() == before
    assert read_checkpoint(path).time == 0.0
    assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
