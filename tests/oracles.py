"""Straight-line brute-force oracles shared by the test modules.

Everything here is deliberately flat and package-free: the grid
enumeration, snapping and per-symbol pipeline are recoded with bare
floats so the library's scans can be cross-checked against an
independent route.

The benchmark measures this module too: bench/run.py imports it inside
its timed set-up (setup_s), runs oracle_symbols on the first 4096 bytes
of each roundtrip case's first ciphertext, and oracle_matching_set on
the census companion boxes, all within the process whose peak_rss_mib
it reports. So an edit here is measured like an edit to the package: an
oracle_symbols that kept per-symbol traces raised key_census
peak_rss_mib from 23.37 to 24.28 MiB (+3.8%; Python 3.11.7, 2 cores).

Divergence rule: an orbit diverges at the first step that leaves the
box [-1e6, 1e6]^2, and at the first step, or feedback, whose arithmetic
overflows (fmod raises ValueError on the infinite dividend).
"""

from math import floor, fmod

from chaoscrypt.maps import MapKind

START = {MapKind.ARNOLD: (0.5, 0.06), MapKind.DUFFING: (-0.04, 0.2)}


def oracle_axis(lo, hi, inc):
    return int(floor((hi - lo) / inc + 1e-9)) + 1


def oracle_symbols(data, kind, a, b, n_mod, iters, quant=1e6, gain=1.0, mod=256):
    """Ciphertext symbols of one key, or OverflowError on a divergent orbit."""
    if kind is MapKind.ARNOLD:
        a1, b1 = a - 1.0, 1.0 - b

        def step(x, y):
            return a1 * fmod(2.0 * x + y, n_mod), fmod(x + b1 * y, n_mod)
    else:
        def step(x, y):
            return y, -b * x + a * y - y * y * y

    x, y = START[kind]
    out = []
    try:
        for c in data:
            for _ in range(iters):
                x, y = step(x, y)
                if not (-1e6 <= x <= 1e6 and -1e6 <= y <= 1e6):
                    raise OverflowError
            q1 = int(floor(abs(x) * quant)) % mod
            z = (c + q1) % mod
            for _ in range(iters):
                x, y = step(x, y)
                if not (-1e6 <= x <= 1e6 and -1e6 <= y <= 1e6):
                    raise OverflowError
            q2 = int(floor(abs(x) * quant)) % mod
            out.append((z + q2) % mod)
            x = fmod(x + gain * z / mod, 1.0)
    except ValueError:  # a step or the feedback overflowed
        raise OverflowError from None
    return out


def oracle_encrypt(data, step, x, y, n1=3, n2=3, q=1e6, g=1.0, m=256):
    """The whole per-symbol pipeline with bare floats and any step, start
    state and config values; no divergence check."""
    out = []
    for c in data:
        for _ in range(n1):
            x, y = step(x, y)
        q1 = int(floor(abs(x) * q)) % m
        z = (c + q1) % m
        for _ in range(n2):
            x, y = step(x, y)
        q2 = int(floor(abs(x) * q)) % m
        out.append((z + q2) % m)
        x = fmod(x + g * z / m, 1.0)
    return bytes(out)


def oracle_run(data, step, x, y, n1=3, n2=3, q=1e6, g=1.0, m=256, decrypting=False):
    """The per-symbol pipeline with bare floats, in either direction, with
    both coordinates tested against the bound after every step. Returns
    (output, [(z, out, s1, s2) per symbol], index of the symbol whose
    orbit left the bound or None); the output stops before that symbol."""
    out, traces = [], []
    for k, c in enumerate(data):
        try:
            for _ in range(n1):
                x, y = step(x, y)
                if not (-1e6 <= x <= 1e6 and -1e6 <= y <= 1e6):
                    return bytes(out), traces, k
            s1 = (x, y)
            for _ in range(n2):
                x, y = step(x, y)
                if not (-1e6 <= x <= 1e6 and -1e6 <= y <= 1e6):
                    return bytes(out), traces, k
            q1 = int(floor(abs(s1[0]) * q)) % m
            q2 = int(floor(abs(x) * q)) % m
            if decrypting:
                z = (c - q2) % m
                sym = (z - q1) % m
            else:
                z = (c + q1) % m
                sym = (z + q2) % m
            x = fmod(x + g * z / m, 1.0)
        except ValueError:  # a step or the feedback overflowed
            return bytes(out), traces, k
        out.append(sym)
        traces.append((z, sym, s1, (x, y)))
    return bytes(out), traces, None


def oracle_scan_outcome(data, reference, step, x, y, n1=3, n2=3, q=1e6, g=1.0, m=256):
    """How a grid scan counts one key: "hit" when its encryption of data
    is reference, "diverged" when its orbit diverges before its first
    mismatching symbol, "miss" otherwise. A symbol's output is compared
    before its feedback, so a feedback that overflows after a mismatch
    is a miss."""
    for c, expected in zip(data, reference):
        try:
            for _ in range(n1):
                x, y = step(x, y)
                if not (-1e6 <= x <= 1e6 and -1e6 <= y <= 1e6):
                    return "diverged"
            s1x = x
            for _ in range(n2):
                x, y = step(x, y)
                if not (-1e6 <= x <= 1e6 and -1e6 <= y <= 1e6):
                    return "diverged"
        except ValueError:
            return "diverged"
        z = (c + int(floor(abs(s1x) * q)) % m) % m
        if (z + int(floor(abs(x) * q)) % m) % m != expected:
            return "miss"
        try:
            x = fmod(x + g * z / m, 1.0)
        except ValueError:
            return "diverged"
    return "hit"


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


def duffing_oracle_step(a, b):
    return lambda x, y: (y, -b * x + a * y - y * y * y)


def arnold_oracle_step(a, b, n):
    return lambda x, y: ((a - 1.0) * fmod(2.0 * x + y, n), fmod(x + (1.0 - b) * y, n))


def arnold_edge_params(n, a_side, u, b_side, f):
    """Arnold (a, b, N) with |a - 1| N = u 1e6, and |1 - b| N f times what
    is left of 1e6 after (1 + |a - 1|) N: f = 1 puts the key on the edge
    below which the cipher skips the bound test."""
    a = 1.0 + a_side * u * 1e6 / n
    return a, 1.0 - b_side * f * (1e6 - (1.0 + abs(a - 1.0)) * n) / n, n


def oracle_matching_set(kind, lo, hi, inc, n_mod, true_ab, data, iters):
    """(snapped key, matching (a, b) list in grid order) by exhaustion."""
    na = oracle_axis(lo[0], hi[0], inc)
    nb = oracle_axis(lo[1], hi[1], inc)
    i = min(max(round((true_ab[0] - lo[0]) / inc), 0), na - 1)
    j = min(max(round((true_ab[1] - lo[1]) / inc), 0), nb - 1)
    snapped = (lo[0] + i * inc, lo[1] + j * inc)
    reference = oracle_symbols(data, kind, snapped[0], snapped[1], n_mod, iters)
    hits = []
    for i in range(na):
        a = lo[0] + i * inc
        for j in range(nb):
            b = lo[1] + j * inc
            try:
                if oracle_symbols(data, kind, a, b, n_mod, iters) == reference:
                    hits.append((a, b))
            except OverflowError:
                pass
    return snapped, hits
