"""2-D discrete-time chaotic maps and trajectory utilities.

Two maps are provided, each parameterized by a pair (a, b): a cat-map
variant folded onto a torus of size N, and the cubic Duffing map. All
state arithmetic is plain 64-bit floating point; every operation here is
a pure function, so values can be shared freely across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from math import fmod
from typing import Callable, Iterable, Iterator, TextIO

__all__ = [
    "DIVERGENCE_BOUND",
    "MapKind",
    "MapParams",
    "State",
    "DomainError",
    "DivergenceError",
    "signed_mod",
    "step_function",
    "arnold_step",
    "duffing_step",
    "iterate",
    "trajectory",
    "divergence_measure",
    "write_trajectory_csv",
    "read_trajectory_csv",
]

# Any orbit coordinate leaving [-1e6, 1e6] is treated as divergent and
# aborts the computation instead of feeding infinities downstream.
DIVERGENCE_BOUND = 1e6


class DomainError(ValueError):
    """An argument lies outside the operation's domain."""


class DivergenceError(ArithmeticError):
    """An orbit left the divergence bound (or became non-finite).

    Attributes:
        step: 0-based index of the map step that produced the bad value,
            when the failure happened inside iterate/trajectory.
        symbol: 0-based index of the cipher symbol being processed, when
            the failure happened inside an encryption or decryption.
        prefix: the trajectory points computed before the failure, when
            raised by trajectory().
    """

    def __init__(self, message: str, step: int | None = None,
                 symbol: int | None = None, prefix: list["State"] | None = None):
        super().__init__(message)
        self.step = step
        self.symbol = symbol
        self.prefix = prefix


class MapKind(enum.Enum):
    """Selects which step equation drives the dynamics."""

    ARNOLD = "arnold"
    DUFFING = "duffing"

    @classmethod
    def parse(cls, name: str) -> "MapKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise DomainError(f"unknown map kind {name!r} (expected 'arnold' or 'duffing')")


@dataclass(frozen=True)
class MapParams:
    """Map parameters (a, b) plus the torus modulus N.

    (a, b) doubles as the cipher's secret key; N is public and ignored by
    the Duffing map.
    """

    a: float
    b: float
    n_modulus: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("map parameters must be finite")
        if not (math.isfinite(self.n_modulus) and self.n_modulus > 0.0):
            raise DomainError("n_modulus must be finite and > 0")


@dataclass(frozen=True)
class State:
    """A point (x, y) in the plane."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError("state coordinates must be finite")


def signed_mod(dividend: float, divisor: float) -> float:
    """Remainder of dividend / divisor, carrying the sign of the dividend.

    Real-valued: r = dividend - divisor * trunc(dividend / divisor), so
    |r| < divisor, signed_mod(5, 3) == 2 and signed_mod(-5, 3) == -2.
    """
    if not (math.isfinite(dividend) and math.isfinite(divisor)):
        raise DomainError("signed_mod requires finite arguments")
    if divisor <= 0.0:
        raise DomainError("signed_mod divisor must be > 0")
    return fmod(dividend, divisor)


def step_function(kind: MapKind, p: MapParams) -> Callable[[float, float], tuple[float, float]]:
    """Bind parameters into a bare (x, y) -> (x', y') step for hot loops.

    The returned callable performs no divergence checking; callers that
    loop it are responsible for bounding the orbit.
    """
    a = p.a
    b = p.b
    if kind is MapKind.ARNOLD:
        n = p.n_modulus
        a1 = a - 1.0
        b1 = 1.0 - b

        def step(x: float, y: float) -> tuple[float, float]:
            return a1 * fmod(2.0 * x + y, n), fmod(x + b1 * y, n)

    elif kind is MapKind.DUFFING:

        def step(x: float, y: float) -> tuple[float, float]:
            return y, -b * x + a * y - y * y * y

    else:  # pragma: no cover - enum is closed
        raise DomainError(f"unknown map kind {kind!r}")
    return step


def arnold_step(s: State, p: MapParams) -> State:
    """One cat-map step: ((a-1) * smod(2x + y, N), smod(x + (1-b) y, N))."""
    return iterate(MapKind.ARNOLD, s, p, 1)


def duffing_step(s: State, p: MapParams) -> State:
    """One Duffing step: (y, -b x + a y - y^3)."""
    return iterate(MapKind.DUFFING, s, p, 1)


def iterate(kind: MapKind, s: State, p: MapParams, n: int) -> State:
    """n-fold composition of the selected step; n = 0 returns s unchanged."""
    if n < 0:
        raise DomainError("iteration count must be >= 0")
    # Kept as a plain loop rather than a walk over _orbit: a generator
    # costs about a fifth of the step rate here.
    step = step_function(kind, p)
    x, y = s.x, s.y
    bound = DIVERGENCE_BOUND
    for k in range(n):
        x, y = step(x, y)
        if not (-bound <= x <= bound and -bound <= y <= bound):
            raise DivergenceError(f"orbit diverged at step {k}: ({x!r}, {y!r})", step=k)
    return State(x, y)


def _orbit(kind: MapKind, x: float, y: float, p: MapParams,
           n: int) -> Iterator[tuple[float, float]]:
    """The n points after (x, y); the first one outside the divergence
    bound (or non-finite) raises DivergenceError with its 0-based step."""
    step = step_function(kind, p)
    bound = DIVERGENCE_BOUND
    for k in range(n):
        x, y = step(x, y)
        if not (-bound <= x <= bound and -bound <= y <= bound):
            raise DivergenceError(f"orbit diverged at step {k}: ({x!r}, {y!r})", step=k)
        yield x, y


def trajectory(kind: MapKind, s0: State, p: MapParams, n: int) -> list[State]:
    """Orbit [s0, step(s0), ..., step^n(s0)] of length n + 1.

    On divergence the error carries the prefix computed so far.
    """
    if n < 1:
        raise DomainError("trajectory length must be >= 1")
    points = [s0]
    try:
        for x, y in _orbit(kind, s0.x, s0.y, p, n):
            points.append(State(x, y))
    except DivergenceError as exc:
        exc.prefix = points
        raise
    return points


def divergence_measure(kind: MapKind, s0: State, delta: float, p: MapParams, n: int) -> float:
    """Largest separation, over steps 1..n, between the orbits of s0 and
    of s0 shifted by delta along x.

    A strongly positive value on a tiny delta is the operational signature
    of sensitive dependence on initial conditions.
    """
    if not (math.isfinite(delta) and delta > 0.0):
        raise DomainError("delta must be finite and > 0")
    if n < 1:
        raise DomainError("step count must be >= 1")
    worst = 0.0
    for (xa, ya), (xb, yb) in zip(_orbit(kind, s0.x, s0.y, p, n),
                                  _orbit(kind, s0.x + delta, s0.y, p, n)):
        d = math.hypot(xa - xb, ya - yb)
        if d > worst:
            worst = d
    return worst


def write_trajectory_csv(points: Iterable[State], out: TextIO) -> None:
    """Write points as CSV with header k,x,y at 17 significant digits."""
    out.write("k,x,y\n")
    for k, s in enumerate(points):
        out.write(f"{k},{s.x:.17g},{s.y:.17g}\n")


def read_trajectory_csv(inp: TextIO) -> list[State]:
    """Parse a k,x,y CSV back into points (bit-exact at 17 digits)."""
    header = inp.readline().strip()
    if header != "k,x,y":
        raise ValueError(f"unexpected trajectory header: {header!r}")
    points = []
    for line in inp:
        line = line.strip()
        if not line:
            continue
        k, x, y = line.split(",")
        if int(k) != len(points):
            raise ValueError(f"non-contiguous step index {k}")
        points.append(State(float(x), float(y)))
    return points
