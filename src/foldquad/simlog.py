"""Uniformly sampled run logs, CSV (de)serialization and derived metrics."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .collision import CollisionEvent, Wall, impact_force_estimate
from .dynamics import VehicleParams
from .dynamics import rotation_to_quaternion  # noqa: F401  (perfbench traces it here)

COLUMNS = (
    "t", "x1", "x2", "x3", "v1", "v2", "v3",
    "qw", "qx", "qy", "qz", "w1", "w2", "w3",
    "l", "f", "tau1", "tau2", "tau3", "contact",
    "xd1", "xd2", "xd3",
)
_COL = {name: i for i, name in enumerate(COLUMNS)}

SETTLE_RADIUS = 0.05  # m


@dataclass
class SimLog:
    """Time-series record of a run; rows follow COLUMNS exactly."""

    data: np.ndarray
    events: list[CollisionEvent] = field(default_factory=list)
    aborted: bool = False
    diagnostic: str = ""

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.ndim != 2 or self.data.shape[1] != len(COLUMNS):
            raise ValueError(f"log must have {len(COLUMNS)} columns")
        if len(self.data) >= 2 and np.any(np.diff(self.data[:, 0]) <= 0):
            raise ValueError("log timestamps must be strictly increasing")

    def column(self, name):
        return self.data[:, _COL[name]]

    def vec(self, prefix):
        """Stacked (n, 3) columns e.g. x1..x3 via prefix 'x'."""
        return self.data[:, [_COL[f"{prefix}{i}"] for i in (1, 2, 3)]]

    def to_csv(self) -> str:
        rows = (",".join(map(repr, row)) for row in self.data.tolist())
        return "\n".join((",".join(COLUMNS), *rows)) + "\n"

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_csv())

    @classmethod
    def from_csv(cls, path):
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        return cls(data=data)


@dataclass
class Metrics:
    """Scalar outcomes of a run; contact fields are None without a contact."""

    v_c: float | None = None
    v_rb: float | None = None
    contact_duration: float | None = None
    peak_l: float | None = None
    overshoot: float | None = None
    settling_time: float | None = None
    re_collision_count: int = 0
    mean_impact_force: float | None = None

    def to_dict(self):
        return asdict(self)

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)


def _contact_episodes(flags):
    """Maximal runs of truthy contact flags as (start_idx, end_idx) inclusive."""
    on = np.concatenate(([False], flags > 0.5, [False]))
    edges = np.flatnonzero(on[1:] != on[:-1])  # run starts, then one past their ends
    return list(zip(edges[0::2].tolist(), (edges[1::2] - 1).tolist()))


def _settling_time(t, x, xd, start_idx):
    """Time from t[start_idx] until ||x - xd|| last exceeds SETTLE_RADIUS."""
    dev = np.linalg.norm(x[start_idx:] - xd[start_idx:], axis=1)
    if len(dev) == 0 or dev[-1] > SETTLE_RADIUS:
        return None
    over = np.nonzero(dev > SETTLE_RADIUS)[0]
    if len(over) == 0:
        return 0.0
    return float(t[start_idx + over[-1] + 1] - t[start_idx])


def compute_metrics(log: SimLog, cfg=None) -> Metrics:
    """Extract scalar metrics from a run log.

    cfg may be a ScenarioConfig (for wall normal and vehicle mass); without
    it the approach direction is inferred from the velocity at contact and
    the default vehicle mass is used. A run aborted before its second row has none.
    """
    if len(log.data) < 2 and log.aborted:
        return Metrics()
    if len(log.data) < 2:
        raise ValueError("malformed log: need at least two rows")
    t = log.column("t")
    x = log.vec("x")
    v = log.vec("v")
    xd = log.vec("xd")
    episodes = _contact_episodes(log.column("contact"))

    wall = getattr(cfg, "wall", None)
    mass = cfg.vehicle.m if cfg is not None else VehicleParams().m

    if not episodes:
        return Metrics(settling_time=_settling_time(t, x, xd, 0))

    i0, i1 = episodes[0]
    pre = max(i0 - 1, 0)
    post = min(i1 + 1, len(t) - 1)
    if isinstance(wall, Wall):
        n = -wall.normal
    else:
        vn = np.linalg.norm(v[pre])
        n = v[pre] / vn if vn > 0 else np.array([1.0, 0.0, 0.0])
    v_c = float(v[pre] @ n)
    v_rb = max(0.0, float(-(v[post] @ n)))
    duration = float(t[post] - t[pre])
    peak_l = float(np.max(log.column("l")))

    # overshoot past the recovery setpoint along the collision normal
    s_d = float(xd[post] @ n)
    s_min = float(np.min(x[post:] @ n))
    overshoot = max(0.0, s_d - s_min)

    return Metrics(
        v_c=v_c,
        v_rb=v_rb,
        contact_duration=duration,
        peak_l=peak_l,
        overshoot=overshoot,
        settling_time=_settling_time(t, x, xd, post),
        re_collision_count=len(episodes) - 1,
        mean_impact_force=float(impact_force_estimate(mass, v_c + v_rb, duration)),
    )
