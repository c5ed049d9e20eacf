"""Run logs, CSV (de)serialization and derived metrics."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .arm import read_csv
from .collision import CollisionEvent, impact_force_estimate
from .dynamics import rotation_to_quaternion  # noqa: F401  (perfbench traces it here)

COLUMNS = (
    "t", "x1", "x2", "x3", "v1", "v2", "v3",
    "qw", "qx", "qy", "qz", "w1", "w2", "w3",
    "l", "f", "tau1", "tau2", "tau3", "contact",
    "xd1", "xd2", "xd3",
)
_COL = {name: i for i, name in enumerate(COLUMNS)}


def log_row(t, state, u, x_d, l, contact):
    """One log row in COLUMNS order: the body state, arm deflection l, input and setpoint at t."""
    return [t, *state, l, u.f, *u.tau, 1.0 if contact else 0.0, *x_d]

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
        """Load a log CSV; a first line without a number is a header (`to_csv` writes one)."""
        return cls(data=read_csv(path))


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

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)


def _contact_episodes(flags):
    """Maximal runs of truthy contact flags as (start_idx, end_idx) inclusive."""
    on = np.concatenate(([False], flags > 0.5, [False]))
    edges = np.flatnonzero(on[1:] != on[:-1])  # run starts, then one past their ends
    return list(zip(edges[0::2].tolist(), (edges[1::2] - 1).tolist()))


def _settling_time(t, far, start):
    """Time from t[start] until the row after the last row from `start` on that
    is `far` from the setpoint; None if the last row still is."""
    if far[-1]:
        return None
    over = np.flatnonzero(far[start:])
    return float(t[start + over[-1] + 1] - t[start]) if len(over) else 0.0


def compute_metrics(log: SimLog, cfg) -> Metrics:
    """Extract scalar metrics from a log of `run_scenario(cfg)`, each at the row
    that decides it: v_c at the touch, the first contact row; v_rb at the first
    step after release, the row after the first contact episode. A run aborted
    before its second row has none; a log that ends in contact has only v_c and peak_l.
    """
    if len(log.data) < 2 and log.aborted:
        return Metrics()
    if len(log.data) < 2:
        raise ValueError("malformed log: need at least two rows")
    t = log.column("t")
    x = log.vec("x")
    v = log.vec("v")
    xd = log.vec("xd")
    # the run loop's float expressions, so that it logged the rows these pick
    e = x - xd
    far = e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1] + e[:, 2] * e[:, 2] > SETTLE_RADIUS ** 2
    episodes = _contact_episodes(log.column("contact"))

    if not episodes:
        return Metrics(settling_time=_settling_time(t, far, 0))
    if cfg.wall is None:
        raise ValueError("the log has contact rows but the config has no wall")

    n = -np.array(cfg.wall.normal)
    i0, i1 = episodes[0]
    post = i1 + 1
    v_c = float(v[i0] @ n)
    peak_l = float(np.max(log.column("l")))
    if post == len(t):
        return Metrics(v_c=v_c, peak_l=peak_l)
    v_rb = max(0.0, float(-(v[post] @ n)))
    duration = float(t[post] - t[i0])

    # overshoot past the recovery setpoint along the collision normal
    s_d = float(xd[post] @ n)
    s_min = float(np.min(x[post:, 0] * n[0] + x[post:, 1] * n[1] + x[post:, 2] * n[2]))
    overshoot = max(0.0, s_d - s_min)

    return Metrics(
        v_c=v_c,
        v_rb=v_rb,
        contact_duration=duration,
        peak_l=peak_l,
        overshoot=overshoot,
        settling_time=_settling_time(t, far, post),
        re_collision_count=len(episodes) - 1,
        mean_impact_force=float(impact_force_estimate(cfg.vehicle.m, v_c + v_rb, duration)),
    )
