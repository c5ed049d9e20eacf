"""Spring-damper folding-arm model: contact-phase ODE, closed-form response,
rebound extraction and parameter identification from displacement traces."""
from __future__ import annotations

import cmath
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from importlib import machinery, util
from itertools import chain

import numpy as np

from .dynamics import MAX_DT, MAX_STEPS, MIN_DT

CONTACT_TIMEOUT_S = 1.0  # a contact that has not released after this long is aborted


def contact_step_limit(dt):
    """The most arm steps of dt that a contact may take before it times out."""
    return int(CONTACT_TIMEOUT_S / dt) + 1


class ContactTimeoutError(RuntimeError):
    """Contact integration did not terminate within CONTACT_TIMEOUT_S."""


@dataclass(frozen=True)
class SpringParams:
    """Mass-normalized spring-damper coefficients of the folding arm.

    b_s has units 1/s, k_s units 1/s^2; l_max is the inward travel limit and
    delta_l the hysteresis threshold at which the arm is considered released.
    """

    b_s: float = 30.0
    k_s: float = 500.0
    l_max: float = 0.03
    delta_l: float = 0.002

    def __post_init__(self):
        for name in ("b_s", "k_s", "l_max", "delta_l"):  # plain floats: numpy ones slow advance_arm
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 <= self.b_s < math.inf:
            raise ValueError("b_s must be non-negative and finite")
        if not 0.0 < self.k_s < math.inf:
            raise ValueError("k_s must be positive and finite")
        if not (0.0 < self.delta_l < self.l_max):
            raise ValueError("delta_l must satisfy 0 < delta_l < l_max")

    @property
    def omega_n(self):
        return np.sqrt(self.k_s)

    @property
    def zeta(self):
        return self.b_s / (2.0 * np.sqrt(self.k_s))

    @property
    def is_underdamped(self):
        return self.b_s * self.b_s < 4.0 * self.k_s

    @property
    def omega_d(self):
        if not self.is_underdamped:
            raise ValueError("damped frequency undefined: parameters are not underdamped")
        return self.omega_n * np.sqrt(1.0 - self.zeta ** 2)


def _is_number(field):
    try:
        float(field)
    except ValueError:
        return False
    return True


def read_csv(source):
    """A numeric CSV, from a path or an open text stream, as an (n, columns) array; a first
    line without a number is a header. No data row is a ValueError, where np.loadtxt warns."""
    with nullcontext(source) if hasattr(source, "readline") else open(source) as fh:
        first = fh.readline()
        lines = fh if not any(map(_is_number, first.split(","))) else chain([first], fh)
        for line in lines:  # up to the first data row: blank and comment lines hold none
            if line.partition("#")[0].strip():
                return np.loadtxt(chain([line], lines), delimiter=",", ndmin=2)
    raise ValueError(f"{getattr(fh, 'name', source)} has no data rows")


@dataclass
class DisplacementTrace:
    """Sampled arm deflection (t, l); timestamps strictly increasing."""

    t: np.ndarray
    l: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float).ravel()
        self.l = np.asarray(self.l, dtype=float).ravel()
        if self.t.shape != self.l.shape:
            raise ValueError("t and l must have the same length")
        for name, col in (("t", self.t), ("l", self.l)):
            if not np.isfinite(col).all():
                raise ValueError(f"trace {name}[{np.argmin(np.isfinite(col))}] is not finite")
        if len(self.t) >= 2 and np.any(np.diff(self.t) <= 0):
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self):
        return len(self.t)

    @classmethod
    def from_csv(cls, path):
        """Load a two-column `t,l` CSV (SI units); a first line without a number is a header."""
        data = read_csv(path)
        if data.shape[1] < 2:
            raise ValueError("trace CSV must have columns t,l")
        return cls(t=data[:, 0], l=data[:, 1])


@dataclass
class ContactResult:
    """Outcome of one contact episode of the arm subsystem."""

    v_rb: float
    duration: float
    peak_l: float
    saturated: bool


def analytic_response(v0, p: SpringParams, t):
    """Closed-form underdamped response from l(0) = 0, l_dot(0) = v0.

    Returns (l, l_dot) evaluated at t (scalar or array). Ignores the travel
    clamp; serves as the independent oracle for the integrated contact.
    """
    if not p.is_underdamped:
        raise ValueError("analytic response only implemented for the underdamped branch")
    sigma = 0.5 * p.b_s  # b_s^2 < 4 k_s, so k_s - sigma^2 > 0 in floats too
    omega_d = np.sqrt(p.k_s - sigma * sigma)
    return _modal_response(sigma, omega_d, v0, np.asarray(t, dtype=float))


def _modal_response(sigma, omega_d, v0, t):
    """The closed form in modal coordinates, with one exp, one sin and one cos:
    l = (v0/omega_d) e^(-sigma t) sin(omega_d t) and
    l_dot = v0 e^(-sigma t) cos(omega_d t) - sigma l."""
    env = np.exp(-sigma * t)
    wt = omega_d * t
    l = (v0 / omega_d) * env * np.sin(wt)
    return l, v0 * env * np.cos(wt) - sigma * l


def _response_jacobian(theta, t, l, l_dot, scale):
    """(3, len(t)) derivatives of the modal response's l in theta = (sigma, omega_d, v0), from its
    (l, l_dot) at theta, row i times scale[i]: -t l, (t (l_dot + sigma l) - l)/omega_d and l/v0,
    one row per parameter as MINPACK's lmder takes it with col_deriv."""
    sigma, omega_d, v0 = theta
    return np.array([-t * l * scale[0], (t * (l_dot + sigma * l) - l) / omega_d * scale[1],
                     l / v0 * scale[2]])


def _transition(b_s, k_s, dt):
    """Entries (p11, p12, p21, p22) of Phi(dt) = exp(A dt), A = [[0, 1], [-k_s, -b_s]].

    Cayley-Hamilton (Moler & Van Loan 2003): Phi = c I + s (A + b_s/2 I), c and s from
    the eigenvalues; real ones are taken from the slow one -k_s/(b_s/2 + mu), so no
    factor overflows and s -> e^(-b_s dt/2) dt at critical damping."""
    half = 0.5 * b_s
    disc = half * half - k_s
    if disc < 0.0:
        w = math.sqrt(-disc)
        env = math.exp(-half * dt)
        c, s = env * math.cos(w * dt), env * math.sin(w * dt) / w
    else:
        mu = math.sqrt(disc)
        slow = math.exp(-k_s / (half + mu) * dt)
        c = 0.5 * slow * (1.0 + math.exp(-2.0 * mu * dt))
        s = slow * -math.expm1(-2.0 * mu * dt) / (2.0 * mu) if mu > 0.0 else slow * dt
    return c + half * s, s, -k_s * s, c - half * s


def _rk4_gain(b, k, dt):
    """The largest |R(z)| of RK4 at z = s dt over the roots s of s^2 + b s + k."""
    d = cmath.sqrt(b * b - 4.0 * k)
    return max(abs(1 + z + z * z / 2 + z ** 3 / 6 + z ** 4 / 24)
               for z in (0.5 * (-b + d) * dt, 0.5 * (-b - d) * dt))


def check_rk4_stable(p: SpringParams, dt):
    """Raise ValueError unless each root s of s^2 + b_s s + k_s puts z = s dt inside RK4's
    stability region. The arm step is exact at any dt; this bounds how coarsely the physics
    grid, on which contact begins and ends, resolves the spring's poles. Where b_s^2 or z^3
    overflows, it decides in scaled form: the roots' sum is -b_s and their product k_s, so
    some z lies outside if max(b_s/2, sqrt(k_s)) dt exceeds the region's largest |z|,
    2.96012; else the z are the roots of z^2 + b_s dt z + k_s dt^2."""
    try:
        gain = _rk4_gain(p.b_s, p.k_s, dt)
    except OverflowError:  # z ** 3 of a huge complex z
        gain = math.inf
    if not math.isfinite(gain):
        b, k = p.b_s * dt, p.k_s * dt * dt
        gain = math.inf if max(0.5 * b, math.sqrt(k)) > 2.9602 else _rk4_gain(b, k, 1.0)
    if gain > 1.0:
        raise ValueError(f"arm spring (b_s={p.b_s:g}, k_s={p.k_s:g}) is unstable "
                         f"under RK4 at physics_dt={dt:g}")


def advance_arm(l, l_dot, phi, p: SpringParams):
    """One exact step of the arm ODE with travel clamp and release test.

    phi is Phi(dt) = _transition(p.b_s, p.k_s, dt), which the caller computes
    once per contact. The clamp is an inelastic stop: hitting l_max zeroes any
    inward rate and leaves l at exactly l_max; since delta_l < l_max, a clamped
    step never releases. Release (exited) is declared when l <= delta_l with the
    arm extending (l_dot < 0), which can only occur after the first compression
    peak. Returns (l, l_dot, exited).
    """
    p11, p12, p21, p22 = phi
    l2, d2 = p11 * l + p12 * l_dot, p21 * l + p22 * l_dot
    if l2 >= p.l_max:
        return p.l_max, min(d2, 0.0), False
    return l2, d2, (l2 <= p.delta_l) and (d2 < 0.0)


def simulate_contact(v_impact, p: SpringParams, dt=1e-3) -> ContactResult:
    """Integrate the arm ODE from (l=0, l_dot=v_impact) until release.

    The rebound speed is |l_dot| at the step where l first falls to delta_l after
    the compression peak. ContactTimeoutError after contact_step_limit(dt) steps.
    """
    if not (0.0 < v_impact < math.inf):
        raise ValueError("v_impact must be positive and finite")
    if not (MIN_DT <= dt <= MAX_DT):  # as integrate_step: a lesser dt overflows the step limit
        raise ValueError(f"dt must be in [{MIN_DT:g}, {MAX_DT:g}] s")
    if contact_step_limit(dt) > MAX_STEPS:
        raise ValueError(f"dt={dt:g} s allows {contact_step_limit(dt):.3g} arm steps, over "
                         f"the budget of {MAX_STEPS:,}")
    phi = _transition(p.b_s, p.k_s, dt)
    l, l_dot, peak_l = 0.0, float(v_impact), 0.0
    for i in range(1, contact_step_limit(dt) + 1):  # step i ends at t = i*dt
        l, l_dot, exited = advance_arm(l, l_dot, phi, p)
        if l > peak_l:
            peak_l = l
        if exited:  # a saturated step leaves l at exactly l_max
            return ContactResult(v_rb=abs(l_dot), duration=i * dt, peak_l=peak_l,
                                 saturated=peak_l >= p.l_max)
    raise ContactTimeoutError(f"contact did not release within {CONTACT_TIMEOUT_S:g} s; "
                              "check spring parameters")


@dataclass
class FitResult:
    """Identified spring parameters plus fit diagnostics."""

    params: SpringParams
    residual_norm: float
    converged: bool
    v0: float


def _has_oscillation(l):
    """True if the trace shows a local max followed by a local min."""
    d = l[1:] - l[:-1]
    s = np.sign(d[d != 0.0])  # +1 rising, -1 falling, flat steps left out
    peaks = np.flatnonzero(s[:-1] > s[1:])  # a local max: a rise, then a fall
    return len(peaks) > 0 and bool(np.any(s[peaks[0]:-1] < s[peaks[0] + 1:]))


def _recurrence_start(t, l, steps):
    """(sigma, omega_d, v0) of l from the trace alone. On a grid of step dt a free response obeys
    l[k+m] = a l[k] + b l[k-m], a = 2 e^(-sigma m dt) cos(omega_d m dt) and b = -e^(-2 sigma m dt)
    (Prony in linear-prediction form; Kumaresan & Tufts 1982); off a uniform grid (steps spread
    over 1e-9 relative) this reads a copy resampled onto np.linspace(t[0], t[-1], n). Noise swamps
    short lags: m doubles while 3m < len(l) until omega_d m dt, out of an acos so it cannot alias,
    passes 1 rad, and the lag nearest 1 rad is kept. Each lag's (a, b) solves the 2x2 normal
    equations, and a lag whose det is not > 0 is skipped (lstsq's minimum-norm (a, b) could differ
    there). v0 is then linear. With no damped pair, or at sigma < 0 or v0 <= 0, it starts at zeta
    0.6 from the peak: omega_d = atan2(0.8, 0.6)/t_peak, sigma = 0.75 omega_d, v0 = peak omega_d."""
    if steps.max() - steps.min() > 1e-9 * steps.max():  # for the start only: the search fits t
        grid = np.linspace(t[0], t[-1], len(t))
        t, l = grid, np.interp(grid, t, l)
    n, m, best, u = len(l), 1, None, np.ldexp(l, -math.frexp(float(np.max(np.abs(l))))[1])
    while 3 * m < n:
        p, q, y = u[m:n - m], u[:n - 2 * m], u[2 * m:]  # l times 2^k: det cannot under/overflow
        pp, pq, qq, py, qy = float(p @ p), float(p @ q), float(q @ q), float(p @ y), float(q @ y)
        det = pp * qq - pq * pq  # not > 0 (singular, or NaN): no damped pair, as at b >= 0
        a, b = ((qq * py - pq * qy) / det, (pp * qy - pq * py) / det) if det > 0.0 else (0.0, 0.0)
        if b < 0.0 and abs(a) < 2.0 * math.sqrt(-b):  # a damped pair
            angle, lag = math.acos(0.5 * a / math.sqrt(-b)), m * float(t[-1]) / (n - 1)
            if best is None or abs(angle - 1.0) < abs(best[1] * best[2] - 1.0):
                best = -0.5 * math.log(-b) / lag, angle / lag, lag
            if angle > 1.0:
                break
        m *= 2
    if best is not None and best[0] >= 0.0:
        phi = _modal_response(best[0], best[1], 1.0, t)[0]
        v0 = float(phi @ l) / float(phi @ phi)
        if v0 > 0.0:
            return best[0], best[1], v0
    k = int(np.argmax(l))
    if k == 0:
        raise ValueError("the trace's largest sample is its first: an arm trace starts at the "
                         "touch, so no start for the fit can be taken from its peak time")
    omega_d = math.atan2(0.8, 0.6) / float(t[k])
    return 0.75 * omega_d, omega_d, float(l[k]) * omega_d


def _minpack():
    """scipy's compiled MINPACK, without its package scipy.optimize (321 modules, about 49 MiB)."""
    name = "scipy.optimize._minpack"
    if name not in sys.modules:  # registered below, so a later `import scipy.optimize` reuses it
        import scipy  # 11 modules, with scipy's own numpy-version guard
        found = machinery.PathFinder.find_spec("_minpack", [scipy.__path__[0] + "/optimize"])
        if found is None:
            raise ImportError(f"{name} is missing from scipy {scipy.__version__}")
        spec = util.spec_from_file_location(name, found.origin)
        spec.loader.exec_module(sys.modules.setdefault(name, util.module_from_spec(spec)))
    return sys.modules[name]


def fit_spring_params(trace: DisplacementTrace,
                      template: SpringParams = SpringParams()) -> FitResult:
    """Least-squares identification of (b_s, k_s) from a displacement trace.

    Fits the closed-form response, exact for the linear ODE, by MINPACK's Levenberg-Marquardt
    in (s, omega_d, w), sigma = s^2 and v0 = w^2, where every point is underdamped and starts
    with compression; the model is even in omega_d, so the fit takes |omega_d|. It starts from
    _recurrence_start, from the trace alone; template only supplies the result's l_max and
    delta_l. Each point costs one _modal_response call, shared by its residual and its Jacobian;
    lmder, taken from _minpack and called as scipy's leastsq calls it, evaluates each point's
    Jacobian once. ValueError for a trace whose largest deflection is negative (an arm trace
    starts with compression) or whose largest sample is its first, for an omega_d at or above
    the trace's Nyquist frequency pi/dt (it would alias), and for a fit at critical damping as
    far as the trace can tell: its first zero crossing, at pi/omega_d, lies past its end."""
    if len(trace) < 10:
        raise ValueError("trace too short for identification (need >= 10 samples)")
    if not _has_oscillation(trace.l):
        raise ValueError("degenerate trace: no oscillation (local max + subsequent min)")
    t = trace.t - trace.t[0]
    steps = t[1:] - t[:-1]
    # residuals / amp, so the tolerances do not depend on l's unit; the same scan gives the sign
    amp = float(trace.l[np.argmax(np.abs(trace.l))])
    if amp < 0.0:
        raise ValueError(f"the trace's largest deflection is negative (l={amp:g}): an arm "
                         "trace starts with compression, so its largest |l| must be l > 0")
    sigma, omega_d, v0 = _recurrence_start(t, trace.l, steps)
    # s's Jacobian column, 2s dl/dsigma, is 0 at s = 0, and a first step from near 0 overshoots
    x0 = np.array([math.sqrt(max(sigma, 0.01 * omega_d)), float(omega_d), math.sqrt(v0)])
    last = [None, None]  # the last point evaluated, as a list of floats, and its (l, l_dot)

    def response(x):
        key = x.tolist()
        if key != last[0]:
            last[:] = key, _modal_response(key[0] * key[0], key[1], key[2] * key[2], t)
        return last[1]

    # lmder as leastsq calls it, less its shape-check evaluations at x0 and its covariance; gtol
    # 1e-5 ends the search above the cost's rounding floor, where rounding picks the last step
    sol, info, ier = _minpack()._lmder(
        lambda x: (response(x)[0] - trace.l) / amp,
        lambda x: _response_jacobian((x[0] * x[0], x[1], x[2] * x[2]), t, *response(x),
                                     (2.0 * x[0] / amp, 1.0 / amp, 2.0 * x[2] / amp)),
        x0, (), True, True, 1e-8, 1e-8, 1e-5, 2000, 100.0, None)
    sigma, omega_d, fvec = float(sol[0]) ** 2, abs(float(sol[1])), info["fvec"]
    nyquist = math.pi / float(steps.max())  # at the trace's largest sample spacing
    if omega_d >= nyquist:
        raise ValueError(f"the fitted omega_d={omega_d:g} rad/s is at or above the trace's "
                         f"Nyquist frequency pi/dt={nyquist:g} rad/s: it would alias")
    fit = SpringParams(2.0 * sigma, sigma * sigma + omega_d * omega_d,  # underdamped, bar rounding
                       template.l_max, template.delta_l)
    if omega_d * t[-1] < math.pi or not fit.is_underdamped:
        raise ValueError(f"the fit reached critical damping (b_s={fit.b_s:g}, k_s={fit.k_s:g}, "
                         f"omega_d={omega_d:g} rad/s): the trace is not an underdamped response")
    norm, e = math.sqrt(float(fvec @ fvec)), math.frexp(amp)[1]
    # a search can stop in a wrong basin, where the residual is about the trace's own norm;
    # a fit must explain at least 3/4 of the trace's energy sum(l^2) to count. Both sides are
    # times 2^-e, which puts amp in [0.5, 1), so that sum(l^2) neither under- nor overflows
    return FitResult(params=fit, residual_norm=amp * norm, v0=float(sol[2]) ** 2,
                     converged=1 <= ier <= 4 and math.isfinite(norm) and math.ldexp(amp, -e) * norm
                     <= 0.5 * float(np.linalg.norm(np.ldexp(trace.l, -e))))
