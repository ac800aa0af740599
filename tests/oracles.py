"""The flat reference the package is checked against, shared by the test
modules and the benchmark.

Everything here is deliberately flat and package-free, with bare floats,
so that the library's kernels and scans can be cross-checked against an
independent route. Each piece is spelled once:

- oracle_step, the map step of either kind;
- oracle_pipeline, the per-symbol loop: the steps, the bound test after
  every step, quantization, mix and feedback, in either direction. Its
  consumers are oracle_run (output and traces), oracle_symbols (output
  alone) and oracle_scan_outcome (how a scan counts one key);
- oracle_matches, the one grid enumeration, behind oracle_matching_set
  and the known-plaintext attack's candidates;
- oracle_orbit, a bare orbit, for the orbit tools.

bench/run.py imports this module inside its timed set-up (setup_s) and
calls two of its functions by name, oracle_symbols and
oracle_matching_set; both keep their names, parameters and return types
(tests/test_tools.py checks the names). Both run in the process whose
peak_rss_mib the benchmark reports, so an edit here is measured like an
edit to the package: an oracle_symbols routed through the trace-keeping
oracle_run raised file_roundtrip peak_rss_mib from 24.56-24.70 to
25.60-25.85 MiB (3 runs each at --seconds 1; Python 3.11.7, 2 cores), so
oracle_symbols keeps no per-symbol record but its output.

Divergence rule: an orbit diverges at the first step that leaves the
box [-1e6, 1e6]^2, and at the first step, or feedback, whose arithmetic
overflows (fmod raises ValueError on the infinite dividend).
"""

from math import floor, fmod

from chaoscrypt.maps import MapKind

START = {MapKind.ARNOLD: (0.5, 0.06), MapKind.DUFFING: (-0.04, 0.2)}


def oracle_axis(lo, hi, inc):
    return int(floor((hi - lo) / inc + 1e-9)) + 1


def oracle_step(kind, a, b, n_mod=1.0):
    """The map step of kind at key (a, b, n_mod), as a function of (x, y)."""
    if kind is MapKind.ARNOLD:
        a1, b1 = a - 1.0, 1.0 - b
        return lambda x, y: (a1 * fmod(2.0 * x + y, n_mod), fmod(x + b1 * y, n_mod))
    return lambda x, y: (y, -b * x + a * y - y * y * y)


def oracle_pipeline(data, step, x, y, n1=3, n2=3, q=1e6, g=1.0, m=256, decrypting=False):
    """Yield (z, out, s1, s2) for each symbol of data, encrypting or
    decrypting from (x, y): the first-stage mix, the output symbol, and
    the states after its first n1 steps and after its feedback. Raise
    OverflowError(k, out) at the first symbol k whose orbit diverges,
    where out is the symbol's output when only its feedback overflowed,
    and None otherwise."""
    for k, c in enumerate(data):
        try:
            for _ in range(n1):
                x, y = step(x, y)
                if not (-1e6 <= x <= 1e6 and -1e6 <= y <= 1e6):
                    raise OverflowError(k, None)
            s1 = x, y
            for _ in range(n2):
                x, y = step(x, y)
                if not (-1e6 <= x <= 1e6 and -1e6 <= y <= 1e6):
                    raise OverflowError(k, None)
        except ValueError:  # a step overflowed
            raise OverflowError(k, None) from None
        q1 = int(floor(abs(s1[0]) * q)) % m
        q2 = int(floor(abs(x) * q)) % m
        if decrypting:
            z = (c - q2) % m
            out = (z - q1) % m
        else:
            z = (c + q1) % m
            out = (z + q2) % m
        try:
            x = fmod(x + g * z / m, 1.0)
        except ValueError:  # the feedback overflowed
            raise OverflowError(k, out) from None
        yield z, out, s1, (x, y)


def oracle_run(data, step, x, y, n1=3, n2=3, q=1e6, g=1.0, m=256, decrypting=False):
    """(output, [(z, out, s1, s2) per symbol], index of the symbol whose
    orbit diverged or None); the output stops before that symbol."""
    traces, diverged = [], None
    try:
        for trace in oracle_pipeline(data, step, x, y, n1, n2, q, g, m, decrypting):
            traces.append(trace)
    except OverflowError as err:
        diverged = err.args[0]
    return bytes(out for _, out, _, _ in traces), traces, diverged


def oracle_symbols(data, kind, a, b, n_mod, iters, quant=1e6, gain=1.0, mod=256):
    """Ciphertext symbols of one key from its kind's start, n1 = n2 =
    iters, as a list; OverflowError(k, out) on a divergent orbit."""
    pipeline = oracle_pipeline(data, oracle_step(kind, a, b, n_mod), *START[kind],
                               iters, iters, quant, gain, mod)
    return [out for _, out, _, _ in pipeline]


def oracle_scan_outcome(data, reference, step, x, y, n1=3, n2=3, q=1e6, g=1.0, m=256):
    """How a grid scan counts one key: "hit" when its encryption of data
    is reference, "diverged" when its orbit diverges before its first
    mismatching symbol, "miss" otherwise. A symbol's output is compared
    before its feedback, so a feedback that overflows after a mismatch
    is a miss."""
    try:
        for expected, (_, out, _, _) in zip(reference, oracle_pipeline(data, step, x, y,
                                                                       n1, n2, q, g, m)):
            if out != expected:
                return "miss"
    except OverflowError as err:
        k, out = err.args
        return "diverged" if out is None or out == reference[k] else "miss"
    return "hit"


def oracle_matches(kind, lo, hi, inc, n_mod, data, observed, x, y, n1=3, n2=3, q=1e6, g=1.0):
    """(a, b) of every key of the grid from lo to hi, in grid order (a
    outermost), whose encryption of data from (x, y) is observed; a key
    whose orbit diverges never matches."""
    nb = oracle_axis(lo[1], hi[1], inc)
    return [(a, b) for a in (lo[0] + i * inc for i in range(oracle_axis(lo[0], hi[0], inc)))
            for b in (lo[1] + j * inc for j in range(nb))
            if oracle_scan_outcome(data, observed, oracle_step(kind, a, b, n_mod), x, y,
                                   n1, n2, q, g) == "hit"]


def oracle_matching_set(kind, lo, hi, inc, n_mod, true_ab, data, iters):
    """(snapped key, matching (a, b) list in grid order) by exhaustion;
    OverflowError when the snapped key's orbit diverges."""
    na = oracle_axis(lo[0], hi[0], inc)
    nb = oracle_axis(lo[1], hi[1], inc)
    i = min(max(round((true_ab[0] - lo[0]) / inc), 0), na - 1)
    j = min(max(round((true_ab[1] - lo[1]) / inc), 0), nb - 1)
    snapped = (lo[0] + i * inc, lo[1] + j * inc)
    reference = oracle_symbols(data, kind, *snapped, n_mod, iters)
    return snapped, oracle_matches(kind, lo, hi, inc, n_mod, data, reference, *START[kind],
                                   iters, iters)


def oracle_orbit(step, x, y, n):
    """Step (x, y) n times with bare floats, testing both coordinates
    against the bound after every step. Returns (points, failure): the
    points inside the bound, and None, or (k, point) for the first step k
    that failed, where point is the point (x, y) outside the bound, or the
    point the step started from when its arithmetic overflowed."""
    points = []
    for k in range(n):
        try:
            x, y = step(x, y)
        except ValueError:  # fmod of an infinite value
            return points, (k, (x, y))
        if not (-1e6 <= x <= 1e6 and -1e6 <= y <= 1e6):
            return points, (k, (x, y))
        points.append((x, y))
    return points, None


def arnold_edge_params(n, a_side, u, b_side, f):
    """Arnold (a, b, N) with |a - 1| N = u 1e6, and |1 - b| N f times what
    is left of 1e6 after (1 + |a - 1|) N: f = 1 puts the key on the edge
    below which the cipher skips the bound test."""
    a = 1.0 + a_side * u * 1e6 / n
    return a, 1.0 - b_side * f * (1e6 - (1.0 + abs(a - 1.0)) * n) / n, n
