"""Golden fingerprints: the first 2 s of every preset, pinned to 1e-9.

A refactor that claims to leave behaviour unchanged must keep these numbers.
The horizon stops short of fig4's period-2 thrust chatter near the altitude
limit (from t ~ 4.08 s), which amplifies round-off. The trace.csv and
events.csv exported from the same runs are pinned byte for byte.
"""

import collections
import dataclasses
import functools
import hashlib
from typing import NamedTuple

import numpy as np
import pytest

from quadsafe.cli import export_trace
from quadsafe.config import PRESETS, load_preset
from quadsafe.sim import run

HORIZON_S = 2.0
ATOL = 1e-9


class Fingerprint(NamedTuple):
    r: tuple[float, ...]
    v: tuple[float, ...]
    omega: tuple[float, ...]
    euler: tuple[float, ...]
    f_star: float
    m_star: tuple[float, ...]
    min_h: dict[str, float]
    events: dict[str, int]


GOLDEN = {
    "fig4-altitude": Fingerprint(
        r=(1.7932785072841926, 2.1036812373216147, 1.2253396778749162),
        v=(0.7019128583181946, 0.6830125321463264, 0.6903199039162633),
        omega=(-0.002777149545115334, 0.008736179607079004, -0.011600512772784592),
        euler=(-0.011968287704381481, 0.06376149338938257, 0.8732573713985181),
        f_star=4.442904258382901,
        m_star=(-0.0003179395891665809, -0.00444968326781278),
        min_h={'altitude_position': 0.8591016186047882, 'altitude_posvel': 0.14137917256245025},
        events={},
    ),
    "fig5-lateral-pos": Fingerprint(
        r=(1.5314499959848977, 1.6872206375355308, 1.4093752194859612),
        v=(0.25536124764746965, 0.101389689515703, 0.6236982011199643),
        omega=(0.011824435553983863, -0.11650190111517814, -0.013007474192641318),
        euler=(0.015451801279103543, 0.057084759740390706, 0.8736430038122349),
        f_star=4.4851749867099535,
        m_star=(-0.027007951166421518, 0.014555484783423722),
        min_h={'lateral_position': 0.1497254322698246},
        events={},
    ),
    "fig6-velocity-switch": Fingerprint(
        r=(1.620516891189547, 1.8344382606816125, 1.4093817857171849),
        v=(0.6997108306393691, 0.6805154209921059, 0.6236944936760154),
        omega=(-0.0026063967002702007, 0.018285303210559642, -0.010199473576754265),
        euler=(-0.012023041327901744, 0.05931328338472717, 0.8727510264803661),
        f_star=4.485569924903369,
        m_star=(0.0009098249177307212, -0.00010447235805151271),
        min_h={'lateral_velocity': 0.8382790425216124},
        events={'infeasible': 18},
    ),
    "fig7-unified": Fingerprint(
        r=(1.7326423538520286, 1.3107246156861434, 1.4119536504489347),
        v=(0.1772564232576543, 0.5118676367451402, 0.6163862672600259),
        omega=(-0.1245606338116848, -0.09283248869801869, -0.010918329734834052),
        euler=(0.0021842043372885638, 0.09357828557538592, 0.8730090013012413),
        f_star=4.487871736353516,
        m_star=(0.013135884441606072, -0.011245035552304827),
        min_h={'altitude_position': 0.751594172724051, 'altitude_posvel': -5.553599999999998, 'lateral_position': 0.25226112592827354, 'lateral_velocity': -1.68435456},
        events={},
    ),
    "stress-infeasible": Fingerprint(
        r=(0.3584553328986867, 0.4206552779550727, 0.16055408410193658),
        v=(0.14122736298101943, 0.13713084995101538, -0.0984200826981047),
        omega=(-5.3429445710989234e-05, 0.0025269924348424937, -0.007946564717294607),
        euler=(-0.0024231197891415234, 0.013246458588034537, 0.8719650580970548),
        f_star=4.37044998105039,
        m_star=(-0.0003646890024613553, -0.0019729371861447343),
        min_h={'altitude_position': -624.0, 'altitude_posvel': -624.0},
        events={'infeasible': 124},
    ),
}


# sha256 of (trace.csv, events.csv) exported from each preset's HORIZON_S
# run: every value is written as repr(float), so a drift in formatting, in
# column order or in any bit of the trajectory changes them.
EXPORT_SHA256 = {
    "fig4-altitude": (
        "b91d8a3fb1067929968f7c7855524f9c3b704a45ca085f84f8870ad098453bde",
        "b9e7ce870a800c185d2a930f1c801b0621ab23ffaa1173620b6fe1e0d1cbc7a6",
    ),
    "fig5-lateral-pos": (
        "0671d856c7d65f96741ece26765171e977518d690fd317ab2039dc418068b550",
        "b9e7ce870a800c185d2a930f1c801b0621ab23ffaa1173620b6fe1e0d1cbc7a6",
    ),
    "fig6-velocity-switch": (
        "56cfaf5f2a7165ba1f4bbfa5d8c50b4ef8b23473c02a8bd7b34fb7e69b8630a2",
        "eff1972436235c19a26acbeec1a1ef49f328591aa177f33c4672dbf0d266ad8e",
    ),
    "fig7-unified": (
        "4b67583d3e8ce4f7ce2b89fdfaf0429d7e3d234198803fef17d9f62daf7ba3a9",
        "b9e7ce870a800c185d2a930f1c801b0621ab23ffaa1173620b6fe1e0d1cbc7a6",
    ),
    "stress-infeasible": (
        "3da3ed3164631df09db32d2ca690b9528af542cb19c89447188b9f6c07887958",
        "5d8f6e5fbc70dd95d979be6edad267f2c27cab8113cc1b08cab80a34151e9c32",
    ),
}


@functools.cache
def horizon_run(name: str):
    return run(dataclasses.replace(load_preset(name), duration=HORIZON_S))


def fingerprint(name: str) -> Fingerprint:
    trace = horizon_run(name)
    min_h: dict[str, float] = {}
    for domain, col in trace.h.items():
        hs = col[~np.isnan(col)]
        if hs.size:
            min_h[domain.value] = float(hs.min())
    events = collections.Counter(ev.partition(":")[0] for _, ev in trace.events)
    return Fingerprint(
        tuple(trace.r[-1].tolist()), tuple(trace.v[-1].tolist()),
        tuple(trace.omega[-1].tolist()), tuple(trace.euler[-1].tolist()),
        float(trace.f_star[-1]), tuple(trace.m_star[-1].tolist()),
        min_h, dict(events),
    )


def test_every_preset_is_pinned():
    assert set(GOLDEN) == set(PRESETS) == set(EXPORT_SHA256)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_preset_fingerprint(name):
    got, want = fingerprint(name), GOLDEN[name]
    for field in ("r", "v", "omega", "euler", "f_star", "m_star", "min_h"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), abs=ATOL), field
    assert got.events == want.events


@pytest.mark.parametrize("name", sorted(EXPORT_SHA256))
def test_exported_bytes(name, tmp_path):
    export_trace(horizon_run(name), str(tmp_path))
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("trace.csv", "events.csv"))
    assert got == EXPORT_SHA256[name]
