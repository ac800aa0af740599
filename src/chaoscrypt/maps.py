"""2-D discrete-time chaotic maps and trajectory utilities.

Two maps are provided, each parameterized by a pair (a, b): a cat-map
variant folded onto a torus of size N, and the cubic Duffing map. All
state arithmetic is plain 64-bit floating point; every operation here is
a pure function, so values can be shared freely across threads.

Each step equation and its bound tests are spelled once, in _STEP_SOURCE,
and a step with its bound test once, in _STEP. _kernel is the one
compiler: it splices the two into a template and compiles it on first
use. The orbit tools run its orbit generator, cipher its block, scan
and finish entries. For the scanner it first hands _hoist.hoist the code
a key runs for symbol 0, with its guard as True, and splices in the
snippets hoist returns: that code with its grid-, row- and
column-invariant subtrees lifted out of the key loop. A scanner may also
serve a second, side schedule of iteration counts from the same symbol-0
orbit (see _kernel). Nothing is compiled at import.
"""

from __future__ import annotations

import enum
import linecache
import math
import re
from dataclasses import dataclass
from functools import lru_cache
from math import floor, fmod
from typing import Callable, Iterable, Iterator, TextIO

__all__ = [
    "DIVERGENCE_BOUND",
    "MapKind",
    "MapParams",
    "State",
    "DomainError",
    "DivergenceError",
    "signed_mod",
    "arnold_step",
    "duffing_step",
    "iterate",
    "trajectory",
    "divergence_measure",
    "write_trajectory_csv",
]

# Any orbit coordinate leaving [-1e6, 1e6] is treated as divergent and
# aborts the computation instead of feeding infinities downstream.
DIVERGENCE_BOUND = 1e6


class DomainError(ValueError):
    """An argument lies outside the operation's domain."""


def _finite(value) -> bool:
    """Whether value is an int or a float (not a bool) that a float holds finitely."""
    try:
        return type(value) is not bool and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:
        return False


def _check_number(value, name: str, positive: bool = False) -> None:
    """value must be a finite int or float (not a bool), and > 0 if positive."""
    if not (_finite(value) and (not positive or value > 0)):
        raise DomainError(f"{name} must be finite{' and > 0' if positive else ''}, got {value!r}")


def _check_count(value, name: str, lo: int, hi: int | None = None) -> None:
    """A count, such as an iteration count, is an int (not a bool) from lo
    to hi, or from lo up when hi is None; name names it in the error."""
    if not (type(value) is int and lo <= value and (hi is None or value <= hi)):
        at_most = "" if hi is None else f"at most {hi} and "
        raise DomainError(f"{name} must be {at_most}an integer >= {lo}, got {value!r}")


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
        _check_number(self.a, "a")
        _check_number(self.b, "b")
        _check_number(self.n_modulus, "n_modulus", positive=True)


@dataclass(frozen=True, slots=True)
class State:
    """A point (x, y) in the plane."""

    x: float
    y: float

    def __post_init__(self):
        _check_number(self.x, "x")
        _check_number(self.y, "y")


def signed_mod(dividend: float, divisor: float) -> float:
    """Remainder of dividend / divisor, carrying the sign of the dividend.

    Real-valued: r = dividend - divisor * trunc(dividend / divisor), so
    |r| < divisor, signed_mod(5, 3) == 2 and signed_mod(-5, 3) == -2.
    """
    _check_number(dividend, "dividend")
    _check_number(divisor, "divisor", positive=True)
    return fmod(dividend, divisor)


# The two step equations, each spelled once, with their bound tests:
# - setup: a statement binding names from the parameters (a, b, n),
#   among them the key's guard, $guard (Arnold's boxed, Duffing's
#   no_return), which the tests read by that name;
# - guard_column, guard_row: the guard's two sides (below);
# - x, y: the next state's coordinates, as expressions of the state (x, y);
# - entry: a test of the state a run of steps starts from;
# - inside: a test that the state ($new_x, $new_y) a step made is in the
#   box, exactly;
# - between: the test after a step that is not the last of a cipher
#   symbol's run. It may pass a state outside the box when the orbit
#   cannot come back into it before the inside test at the run's end.
# _kernel splices these fields, and runs of _STEP, into the orbit
# generator below and cipher's entries.
#
# The tests stop a run of steps at the first state outside
# [-bound, bound]^2, as testing both coordinates after every step would,
# for a run that starts from finite or NaN coordinates. Each map tests
# only what a step can move out of the box:
# - Duffing: x' is the previous y, so once entry has tested the incoming
#   y, each step need only test its new y. Once a step first puts y
#   outside the box, every later y stays outside or is not finite, when
#   |a| + |b| <= 1e11 (no_return, set once per key): with |x| <= |y| and
#   |y| > 1e6, |y'| >= |y| (|y|^2 - |a| - |b|) > |y|, rounding included,
#   and inf and NaN never become finite again. So a no_return key tests y
#   only after a run's last step. (With a about y^2, an orbit can leave
#   the box and come back.)
# - Arnold: fmod is exact, so |fmod(v, N)| < N for a finite v (it raises
#   on an infinite one), and rounding is monotone, so |y'| < N and
#   |x'| = fl(|a-1| |fmod(v, N)|) <= fl(|a-1| N). When boxed
#   ((1 + |a-1| + |1-b|) N <= bound, set once per key; it implies
#   fl(|a-1| N) <= bound and N <= bound), no step from a finite state
#   leaves the box and the test is skipped; entry turns a NaN coordinate,
#   which boxed would let through, into a failed test. Otherwise both
#   coordinates are tested. boxed also bounds |x + (1-b) y|, so for a
#   boxed key fmod cannot raise on it: _SPLIT_STEP may leave y' out.
# _kernel spells every guard once, as "$guard_column <= $guard_row":
# guard_column an expression of b and n, guard_row one of a and n. A
# scanner computes the first once per column and the second once per
# row, and so decides the guard for a whole row at once (see cipher._SCAN).
_STEP_SOURCE = {
    MapKind.ARNOLD: {
        "setup": "a1, b1 = a - 1.0, 1.0 - b; boxed = $guard",
        "guard_column": "abs(1.0 - b) * n",
        "guard_row": "$bound - (1.0 + abs(a - 1.0)) * n",
        "x": "a1 * fmod(2.0 * x + y, n)",
        "y": "fmod(x + b1 * y, n)",
        "entry": "x == x and y == y",
        "inside": "boxed or -$bound <= $new_x <= $bound and -$bound <= $new_y <= $bound",
        "between": "$inside",
    },
    MapKind.DUFFING: {
        "setup": "nb = -b; no_return = $guard",
        "guard_column": "abs(b)",
        "guard_row": "1e11 - abs(a)",
        "x": "y",
        "y": "nb * x + a * y - y * y * y",
        "entry": "-$bound <= y <= $bound",
        "inside": "-$bound <= $new_y <= $bound",
        "between": "no_return or $inside",
    },
}


# One step and its bound test, inserted by every compiled run of steps,
# here and in cipher's kernel: _TESTED_STEP with the exact test, and
# _BETWEEN_STEP with the test between a symbol's steps. A failed test runs
# $diverge.
_STEP = """\
x, y = $x, $y
if not ($test):
    $diverge
"""
_TESTED_STEP = (_STEP, (("test", "$inside"),))
_BETWEEN_STEP = (_STEP, (("test", "$between"),))

# A run's last step for a caller that needs only x' (the scanner's symbol
# 0, whose keys go no further): it tests the state the step makes,
# computing its coordinates inside the test (so a boxed Arnold key, which
# skips the test, computes neither there), then sets x to x' and leaves y
# as it was.
_SPLIT_STEP = ("""\
if not ($inside):
    $diverge
x = $x
""", (("new_x", "$x"), ("new_y", "$y")))

_FIELD = re.compile(r"\$(\w+)")


def _splice(text: str, snippets: dict) -> str:
    """text with each $name replaced by snippets[name], itself spliced
    first; the lines after a snippet's first are indented to the column
    its $name stands at. A snippet given as (text, pairs) is spliced with
    the (name, snippet) pairs in place of the snippets of those names."""
    def fill(m: re.Match) -> str:
        column = m.start() - text.rfind("\n", 0, m.start()) - 1
        snippet = snippets[m[1]]
        if isinstance(snippet, tuple):
            snippet = _splice(snippet[0], {**snippets, **dict(snippet[1])})
        else:
            snippet = _splice(snippet, snippets)
        return snippet.rstrip("\n").replace("\n", "\n" + " " * column)
    return _FIELD.sub(fill, text)


@lru_cache(maxsize=64)
def _kernel(kind: MapKind, template: str, n1: int = 0, n2: int = 0,
            side: tuple[int, int] | None = None, variant: str = "", **fill: str) -> Callable:
    """The function that template defines, compiled for kind on first use.

    The snippets spliced in are $guard ("$guard_column <= $guard_row"),
    the kind's _STEP_SOURCE fields, $bound, $new_x and $new_y (x and y,
    the state the tests read unless a step says otherwise), $tested_step,
    $between_step, $split_step, $steps1 and $steps2 (a symbol's n1 and n2
    steps: each a between step, but the last, which is $last_step, the
    tested step unless the fill says otherwise) and the caller's fill. A
    side schedule (n1', n2') of no more steps adds $side_snapshot after
    step n1' and $side_snapshot_2 after step n1' + n2' to the steps, and
    changes no line; without one, every $side_ snippet is blank. A fill
    with a $lifted snippet (the scanner's) also gets the snippets that
    _hoist.hoist makes of it, spliced with $guard as True: its setup binds
    the guard's name (boxed, no_return) to True, which the pass puts in
    its place, so each bound test reads a literal True that the compiler
    folds away. A line that splices to nothing but blanks is dropped.
    fmod, floor and abs are locals of the function, as keyword-only
    defaults, and DivergenceError its global. Its file name names the
    kind, the function, n1/n2, the side schedule and the variant, which
    tells apart the fills of one template, and linecache holds its
    source, so a traceback through it shows its lines. So each file name
    names one source; tools/parity.py reports any name compiled with two.
    """
    run = ["$between_step\n"] * (n1 + n2)
    if run:
        run[-1] = "$last_step\n"
    if side:
        run[side[0] - 1] += "$side_snapshot\n"
        run[sum(side) - 1] += "$side_snapshot_2\n"
    else:
        fill = {name: "" if name.startswith("side_") else text for name, text in fill.items()}
    snippets = {"guard": "$guard_column <= $guard_row", **_STEP_SOURCE[kind],
                "bound": repr(DIVERGENCE_BOUND), "new_x": "x", "new_y": "y",
                "tested_step": _TESTED_STEP, "between_step": _BETWEEN_STEP,
                "last_step": "$tested_step", "split_step": _SPLIT_STEP,
                "steps1": "".join(run[:n1]), "steps2": "".join(run[n1:]), **fill}
    if "lifted" in snippets:
        # only scanners need the pass, so the other commands never import it
        from ._hoist import hoist
        snippets.update(hoist(_splice("$lifted", {**snippets, "guard": "True"})))
    template = template.replace("):\n", ", *, fmod=fmod, floor=floor, abs=abs):\n", 1)
    source = "".join(line for line in _splice(template, snippets).splitlines(True)
                     if not line.isspace())
    del snippets  # the scanner's key code is about as large as its source
    name = template[len("def "):template.index("(")]
    schedule = f"{n1}/{n2}" + (f"+{side[0]}/{side[1]}" if side else "")
    filename = f"<chaoscrypt {kind.value} {name} {schedule}{variant and ' ' + variant}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"fmod": fmod, "floor": floor, "DivergenceError": DivergenceError}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


# Yields the `steps` points after (x, y). A start state that fails $entry
# fails the test of both coordinates at step 0, so it diverges there; a
# step that overflows (fmod raises ValueError) diverges at that step,
# from the state it could not step.
_ORBIT = """\
def orbit(a, b, n, x, y, steps):
    $setup
    k = 0
    if steps and not ($entry):
        x, y = $x, $y
        $diverge
    for k in range(steps):
        try:
            $tested_step
        except ValueError:
            $diverge
        yield x, y
"""
_ORBIT_DIVERGE = 'raise DivergenceError(f"orbit diverged at step {k}: ({x!r}, {y!r})", step=k)'


def arnold_step(s: State, p: MapParams) -> State:
    """One cat-map step: ((a-1) * smod(2x + y, N), smod(x + (1-b) y, N))."""
    return iterate(MapKind.ARNOLD, s, p, 1)


def duffing_step(s: State, p: MapParams) -> State:
    """One Duffing step: (y, -b x + a y - y^3)."""
    return iterate(MapKind.DUFFING, s, p, 1)


def iterate(kind: MapKind, s: State, p: MapParams, n: int) -> State:
    """n-fold composition of the selected step, n an int >= 0; 0 returns s."""
    _check_count(n, "n", 0)
    x, y = s.x, s.y
    for x, y in _orbit(kind, x, y, p, n):
        pass
    return State(x, y)


def _orbit(kind: MapKind, x: float, y: float, p: MapParams,
           n: int) -> Iterator[tuple[float, float]]:
    """The n points after (x, y); the first one outside the divergence
    bound (or non-finite) raises DivergenceError with its 0-based step."""
    return _kernel(kind, _ORBIT, diverge=_ORBIT_DIVERGE)(p.a, p.b, p.n_modulus, x, y, n)


def trajectory(kind: MapKind, s0: State, p: MapParams, n: int) -> list[State]:
    """Orbit [s0, step(s0), ..., step^n(s0)] of length n + 1, n an int >= 1.

    On divergence the error carries the prefix computed so far.
    """
    _check_count(n, "n", 1)
    points = [s0]
    try:
        for x, y in _orbit(kind, s0.x, s0.y, p, n):
            points.append(State(x, y))
    except DivergenceError as exc:
        exc.prefix = points
        raise
    return points


def divergence_measure(kind: MapKind, s0: State, delta: float, p: MapParams, n: int) -> float:
    """Largest separation, over steps 1..n (n an int >= 1), between the
    orbits of s0 and of s0 shifted by a finite delta > 0 along x.

    A strongly positive value on a tiny delta is the operational signature
    of sensitive dependence on initial conditions.
    """
    _check_number(delta, "delta", positive=True)
    _check_count(n, "n", 1)
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

