"""Compare the generated kernels and the outputs of two checkouts.

    python3 tools/parity.py PARENT CHANGE

PARENT and CHANGE are checkout directories (each with the package under
`src/`). For each one the tool starts one Python subprocess that imports
that checkout's package and collects:

- the source of every kernel the package generates, keyed by its
  `<chaoscrypt ...>` file name: the orbit generator of each map kind;
  for each kind and (n1, n2) in {1..4}^2 and (1000, 1000), the blocks
  that `encrypt_bytes`, `encrypt` and `decrypt` compile, the
  single-query scanner and the fused scanner of every side schedule with
  no more steps (1/1, 2/2 and 3/3 at 1000/1000), with the finish kernel
  of each query's schedule, compiled through `cipher._scan_grid`. Each
  compile call's kernels are read from `linecache`, which is cleared of
  kernel sources before the call, so a file name under which the package
  compiles two different sources is seen to have both;
- the outputs of a seeded case set: ciphertexts, traces (floats as
  `float.hex`), decryptions, `DivergenceError` texts and symbols,
  orbits, single and fused `_scan_grid` calls, the fused ones with the
  queries in both orders, and serial `identifiability_scan` and
  `known_plaintext_attack` calls on grids of one to about 60 000 keys,
  some with rows wider than 4096 keys, which cover how the scan driver
  tiles a grid (their results only, not their progress), and single and
  fused `_scan_grid` calls on tiles across each map's bound guard, whose
  rows either run the scanner's key loop or hand their keys on to the
  finish kernel, and single and fused
  `_scan_grid` calls at gain 1e308, whose feedback overflows at every mix
  value but 0 and 1, with each query's true key at mix value 0 or 1 in
  symbol 0, so that the keys that pass symbol 0 with it mismatch or
  overflow at symbol 1.

It prints every difference: each file name under which a checkout
compiles more than one source (a traceback through a kernel shows the
lines that linecache holds for its file name, so a name must name one
source); the kernels that one checkout compiles and the other does not,
counted by family (the file name with its digits as `#`, so a family
names its map kind); the kernel sources that differ, each file name in
both checkouts compared with itself, split into the scanner's key loop
(the per-key code) and the lines outside it, and grouped by identical
difference, each group naming its families and their counts; and each
output that differs. Before a kernel is split, the names the lift pass
gives its grid, row and column values (`_g12`, `_r3`, `_c8`) are
numbered afresh on each side, per level in order of first appearance,
so a change that only renumbers them is no difference and does not
split a group. A kernel's difference is the lines it loses and
gains, matched without their indentation and counted, each shown once,
so that one snippet change reads the same in every schedule however many
steps repeat it; when the rest still differs (a line moved, or
re-indented) one more line says so, `~ moved, repeated or re-indented
lines not shown`. It exits 0 when there is no difference, 1 when there
is any, and 2 when a checkout cannot be read.

Standard library only. Running it on one checkout against itself
(`python3 tools/parity.py . .`) must print no difference.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

SCHEDULES = [(n1, n2) for n1 in range(1, 5) for n2 in range(1, 5)]
LARGE = (1000, 1000)
LARGE_SIDES = [(1, 1), (2, 2), (3, 3)]
CIPHER_CASES = 400
SCAN_CASES = 200
DRIVER_CASES = 24
GUARD_CASES = 80
FEEDBACK_CASES = 16
SEED = 20120810
# The boxes the cases draw keys from: the packaged full key domains, and
# wider ones, where more orbits diverge.
BOXES = {
    "arnold": [((-5.0, 0.4), (-0.9, 1.5)), ((-40.0, -3.0), (-0.9, 40.0))],
    "duffing": [((1.8, -0.59), (2.9, 0.2)), ((1.0, -3.0), (3.6, 1.0))],
}


def _collect() -> dict:
    """Runs in the subprocess: the kernel sources and seeded outputs of
    the package on sys.path, as one JSON-able dict."""
    import linecache
    import random
    from contextlib import suppress
    from dataclasses import replace

    import chaoscrypt
    from chaoscrypt import cipher, maps
    from chaoscrypt.analysis import KeyDomain, identifiability_scan, known_plaintext_attack
    from chaoscrypt.cipher import Key, decrypt, default_config, encrypt, encrypt_bytes
    from chaoscrypt.maps import DivergenceError, MapKind, MapParams, State

    kernels = {}

    def compiled(call):
        """Runs call and adds each kernel source it compiles to kernels,
        under its file name."""
        for name in [name for name in linecache.cache if name.startswith("<chaoscrypt")]:
            del linecache.cache[name]
        call()
        for name, entry in linecache.cache.items():
            if name.startswith("<chaoscrypt"):
                source, sources = "".join(entry[2]), kernels.setdefault(name, [])
                if source not in sources:
                    sources.append(source)

    def scan(kind, cfg, queries, tile=([], []), n_modulus=1.0):
        return cipher._scan_grid(kind, n_modulus, cfg, queries, tile)

    for kind in MapKind:
        params = MapParams(*BOXES[kind.value][0][0])
        compiled(lambda: maps.iterate(kind, State(0.1, 0.1), params, 1))
        key = Key(kind, params)
        for n1, n2 in SCHEDULES + [LARGE]:
            cfg = replace(default_config(kind), n1=n1, n2=n2)
            for run in (encrypt_bytes, encrypt, decrypt):
                compiled(lambda: run(b"", key, cfg))
            query = (b"\0", b"\0", n1, n2)
            compiled(lambda: scan(kind, cfg, [query]))
            sides = LARGE_SIDES if (n1, n2) == LARGE else [
                side for side in SCHEDULES if sum(side) <= n1 + n2]
            for m1, m2 in sides:
                queries = [query, (b"\0", b"\0", m1, m2)]
                compiled(lambda: scan(kind, cfg, queries))

    rng = random.Random(SEED)

    def draw_modulus(kind):
        return rng.choice([1.0, 1.0, 2.5, 4e5]) if kind is MapKind.ARNOLD else 1.0

    def draw_key(kind):
        (a_lo, b_lo), (a_hi, b_hi) = rng.choice(BOXES[kind.value])
        return Key(kind, MapParams(rng.uniform(a_lo, a_hi), rng.uniform(b_lo, b_hi),
                                   draw_modulus(kind)))

    def draw_cfg(kind):
        # mostly the default start; a Duffing start outside the box fails
        # the entry test
        start = rng.choice([default_config(kind).initial_state] * 6 + [
            State(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)), State(0.0, 2e6)])
        return replace(default_config(kind), initial_state=start,
                       n1=rng.randint(1, 4), n2=rng.randint(1, 4),
                       quant_scale=rng.choice([1e6, 1e6, 1e3, 12345.678]),
                       reinject_gain=rng.choice([1.0, 1.0, 0.0, -0.0, 0.75, -2.5, 1e308, 5e-324]))

    def outcome(run):
        try:
            return run()
        except DivergenceError as exc:
            return {"error": str(exc), "symbol": exc.symbol, "step": exc.step,
                    "prefix": None if exc.prefix is None else len(exc.prefix)}

    def state(s):
        return [s.x.hex(), s.y.hex()]

    outputs = {}
    for case in range(CIPHER_CASES):
        kind = rng.choice(list(MapKind))
        key, cfg = draw_key(kind), draw_cfg(kind)
        if case == 0:
            cfg = replace(cfg, n1=LARGE[0], n2=LARGE[1])
        message, steps = rng.randbytes(rng.randint(0, 40)), rng.randint(1, 60)
        at = f"cipher {case}"
        outputs[f"{at} encrypt_bytes"] = outcome(lambda: encrypt_bytes(message, key, cfg).hex())
        outputs[f"{at} encrypt"] = outcome(lambda: [
            [t.z, t.y, *state(t.s1), *state(t.s2)] for t in encrypt(message, key, cfg)[1]])
        outputs[f"{at} decrypt"] = outcome(lambda: decrypt(message, key, cfg).hex())
        outputs[f"{at} orbit"] = outcome(lambda: [
            state(s) for s in maps.trajectory(kind, cfg.initial_state, key.params, steps)])

    def scan_case(at, kind, tile, n_modulus, cfg, schedules=(), mix=None):
        """Outputs of each of two queries over tile alone and of both
        fused, in either order: the queries of the schedules given, then
        of schedules drawn; the references are the outputs of a tile key.
        Given a mix value, each query's first symbol is the one the key
        mixes to it, and a reference the key diverges on keeps its output
        before the divergence."""
        true = Key(kind, MapParams(rng.choice(tile[0]), rng.choice(tile[1]), n_modulus))
        schedules = [*schedules, *((rng.randint(1, 4), rng.randint(1, 4))
                                   for _ in range(2 - len(schedules)))]
        data = rng.randbytes(rng.randint(1, 6))
        queries = []
        for n1, n2 in schedules:
            query_cfg = replace(cfg, n1=n1, n2=n2)
            if mix is not None:
                with suppress(DivergenceError):
                    # symbol 0's mix value does not depend on the gain
                    z = encrypt(data[:1], true, replace(query_cfg, reinject_gain=0.0))[1][0].z
                    data = bytes([(data[0] + mix - z) % 256]) + data[1:]
            try:
                reference = encrypt_bytes(data, true, query_cfg)
            except DivergenceError as exc:
                reference = rng.randbytes(len(data))
                if mix is not None:
                    before = encrypt_bytes(data[:exc.symbol], true, query_cfg)
                    reference = before + reference[len(before):]
            queries.append((data, reference, n1, n2))
            data = rng.randbytes(rng.randint(1, 6)) if rng.random() < 0.5 else data

        def found(queries):
            scanned, results = scan(kind, cfg, queries, tile, n_modulus)
            return [scanned, [[[[a.hex(), b.hex()] for a, b in hits], diverged]
                              for hits, diverged in results]]

        for k, query in enumerate(queries):
            outputs[f"{at} single {k}"] = found([query])
        outputs[f"{at} fused"] = found(queries)
        outputs[f"{at} fused reversed"] = found(queries[::-1])

    for case in range(SCAN_CASES):
        kind = rng.choice(list(MapKind))
        (a_lo, b_lo), (a_hi, b_hi) = rng.choice(BOXES[kind.value])
        step = rng.choice([1e-4, 1e-2, 0.05])
        a0, b0 = rng.uniform(a_lo, a_hi), rng.uniform(b_lo, b_hi)
        tile = ([a0 + i * step for i in range(rng.randint(1, 12))],
                [b0 + j * step for j in range(rng.randint(1, 12))])
        n_modulus, cfg = draw_modulus(kind), draw_cfg(kind)
        scan_case(f"scan {case}", kind, tile, n_modulus, cfg, [LARGE, (2, 2)] if case == 0 else ())

    def keys(found):
        return [[k.params.a.hex(), k.params.b.hex()] for k in found]

    for case in range(DRIVER_CASES):
        kind = rng.choice(list(MapKind))
        (a_lo, b_lo), (a_hi, b_hi) = rng.choice(BOXES[kind.value])
        # one key, up to 250 rows of up to 240 keys, or a few rows wider
        # than 4096 keys
        na, nb = [(1, 1), (rng.randint(1, 250), rng.randint(1, 240)),
                  (rng.randint(1, 12), rng.randint(4097, 5000))][case % 3]
        step = rng.choice([1e-4, 1e-3, 0.01])
        a0, b0 = rng.uniform(a_lo, a_hi), rng.uniform(b_lo, b_hi)
        n_modulus = draw_modulus(kind)
        # the default config every other case, so that most true keys encrypt
        cfg = draw_cfg(kind) if case % 2 else default_config(kind)
        domain = KeyDomain(kind, (a0, b0), (a0 + (na - 1) * step, b0 + (nb - 1) * step), step,
                           n_modulus)
        # a grid key, or a key between grid points or outside the box
        at_i, at_j = ((rng.randint(0, na - 1), rng.randint(0, nb - 1)) if rng.random() < 0.5
                      else (rng.uniform(-2, na + 1), rng.uniform(-2, nb + 1)))
        key = Key(kind, MapParams(a0 + at_i * step, b0 + at_j * step, n_modulus))
        text = rng.randbytes(rng.randint(1, 12))
        # one or two symbols compared, or one known, match many keys in
        # every tile; three known isolate the key of a small grid
        iteration_value, compare_len = rng.randint(1, 4), rng.randint(1, min(2, len(text)))
        try:
            ciphertext = encrypt_bytes(text, key, cfg)
        except DivergenceError:
            ciphertext = rng.randbytes(len(text))
        prefix = text[:rng.randint(1, min(3, len(text)))]

        def identify():
            res = identifiability_scan(text, key, domain, cfg, iteration_value, compare_len,
                                       workers=1)
            return {"verdict": res.verdict, "true_key": keys([res.true_key]),
                    "matching": keys(res.matching_keys), "grid_size": res.grid_size,
                    "diverged": res.diverged}

        def attack():
            res = known_plaintext_attack(ciphertext, prefix, domain, cfg, workers=1)
            return {"verdict": res.verdict, "candidates": keys(res.candidates),
                    "recovered": res.recovered and keys([res.recovered]),
                    "diverged": res.diverged}

        at = f"driver {case}"
        outputs[f"{at} identify"] = outcome(identify)
        outputs[f"{at} attack"] = outcome(attack)

    # Tiles across each guard, whose rows run the scanner's key loop or hand
    # their keys on to the finish kernel: Arnold N and a near (1 + |a - 1| +
    # |1 - b|) N = 1e6, with steps in b of a small share of |1 - b| up to a
    # third of it; Duffing |a| + |b| across 1e11, from a start at or near the
    # origin, where orbits stay in the box longest. Every fourth tile of a
    # kind has rows whose first column passes the guard and whose last is far
    # past it, where a key's outcome depends on the kernel that runs it: in
    # Arnold's symbol 0, x + (1 - b) y can overflow in the last step only,
    # which a key that passes the guard does not compute before its compare;
    # from Duffing's (0, y0), at a about 0 and b about y0^8, y leaves the box
    # at step 1 and is about 0 at step 2.
    for case in range(GUARD_CASES):
        kind = [MapKind.ARNOLD, MapKind.DUFFING][case % 2]
        side = rng.choice([-1.0, 1.0])
        width = rng.randint(2, 8)
        if case % 8 >= 6 and kind is MapKind.ARNOLD:
            n_modulus, a0, a_step, b0 = 3.0, rng.uniform(-6.0, 2.0), 0.02, rng.uniform(-1.0, 1.0)
            b_step = -rng.choice([1.7e308, 1e308, 5e307]) / (width - 1)
            start = rng.choice([(0.5, 0.9), (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))])
        elif case % 8 >= 6:
            y0 = rng.choice([150.0, 200.0, 250.0])
            n_modulus, a0, a_step, b0 = 1.0, rng.choice([0.0, -1e-8]), 1e-8, 0.0
            b_step = y0 ** 8 / (width - 1)
            start = (0.0, y0)
        elif kind is MapKind.ARNOLD:
            n_modulus = rng.choice([1.0, 3.0, 1e3, 2e5])
            a0 = 1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 0.5) * 1e6 / n_modulus
            edge = (1e6 - (1.0 + abs(a0 - 1.0)) * n_modulus) / n_modulus
            b0 = 1.0 - side * edge * rng.choice([0.5, 0.9, 1 - 2.0 ** -40])
            a_step = rng.choice([1e-3, 0.1, 1e4 / n_modulus])
            b_step = side * edge * rng.choice([2.0 ** -40, 0.05, 0.3])
            start = rng.choice([(0.5, 0.06), (-0.3, 0.7), (0.5, 0.9)])
        else:
            n_modulus, a0 = 1.0, rng.uniform(-1e11, 1e11)
            b0 = side * (1e11 - abs(a0)) * rng.choice([0.5, 0.9, 1 - 2.0 ** -40])
            a_step = b_step = side * rng.choice([1e-3, 1.0, 1e3, 1e10])
            start = rng.choice([(0.0, 0.0), (1e-9, 0.0), (0.0, -1e-12),
                                (rng.uniform(-1e-6, 1e-6), rng.uniform(-1e-9, 1e-9))])
        tile = ([a0 + i * a_step for i in range(rng.randint(1, 6))],
                [b0 + j * b_step for j in range(width)])
        cfg = replace(draw_cfg(kind), initial_state=State(*start))
        # Duffing's orbit comes back only at step 2: a 1/1 query ends there
        scan_case(f"guard {case}", kind, tile, n_modulus, cfg, [(1, 1)] if case % 8 == 7 else ())

    # Gain 1e308: the feedback table is finite at mix values 0 and 1 only
    # (1e308 * z overflows for z >= 2), so a key gets past symbol 0 only
    # at those. Each query's true key mixes to 0 or 1 there, and a coarse
    # quantizer lets many keys pass symbol 0 with it; at symbol 1 most of
    # them mismatch where their feedback would overflow (a miss, since a
    # key compares before it feeds back), and the rest overflow.
    for case in range(FEEDBACK_CASES):
        kind = [MapKind.ARNOLD, MapKind.DUFFING][case % 2]
        (a_lo, b_lo), (a_hi, b_hi) = BOXES[kind.value][0]
        step = rng.choice([1e-3, 1e-2])
        a0, b0 = rng.uniform(a_lo, a_hi), rng.uniform(b_lo, b_hi)
        tile = ([a0 + i * step for i in range(rng.randint(2, 12))],
                [b0 + j * step for j in range(rng.randint(2, 12))])
        cfg = replace(default_config(kind), quant_scale=rng.choice([7.0, 30.0]),
                      reinject_gain=1e308)
        scan_case(f"feedback {case}", kind, tile, 1.0, cfg, mix=case // 2 % 2)

    return {"package": chaoscrypt.__file__, "python": sys.version.split()[0],
            "kernels": kernels, "outputs": outputs}


def collect(checkout: Path) -> dict:
    """_collect run in a fresh interpreter on checkout's package."""
    src = (checkout / "src").resolve()
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "import parity; json.dump(parity._collect(), sys.stdout)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {done.stderr.strip()[-2000:]}")
    found = json.loads(done.stdout)
    if not Path(found["package"]).resolve().is_relative_to(src):
        raise RuntimeError(f"{checkout}: imported {found['package']}, not the package in {src}")
    return found


_LIFTED = re.compile(r"\b_([grc])\d+\b")


def _renumbered(source: str) -> str:
    """source with the names the lift pass gives its grid, row and column
    values (_g12, _r3, _c8, ...) numbered afresh per level in order of
    first appearance (_g1, _g2, _r1, _c1, _c2, ...). Each name's defining
    line stays, so a change in what a name holds, or in which name a line
    reads, still shows; a change in how the pass numbers them does not."""
    names, counts = {}, Counter()

    def rename(m: re.Match) -> str:
        if m[0] not in names:
            counts[m[1]] += 1
            names[m[0]] = f"_{m[1]}{counts[m[1]]}"
        return names[m[0]]

    return _LIFTED.sub(rename, source)


def _key_loop(source: str) -> tuple[str, str]:
    """A scanner's key loop (the `for column in columns:` block, dedented)
    and the source around it, the loop left as one marker line; a source
    without one is all around."""
    lines, loop, around, k = source.splitlines(True), [], [], 0
    while k < len(lines):
        indent = len(lines[k]) - len(lines[k].lstrip())
        end = k + 1
        if lines[k].strip() == "for column in columns:":
            while end < len(lines) and len(lines[end]) - len(lines[end].lstrip()) > indent:
                end += 1
            loop.append(textwrap.dedent("".join(lines[k:end])))
            around.append(" " * indent + "<key loop>\n")
        else:
            around.append(lines[k])
        k = end
    return "".join(loop), "".join(around)


def _counted(names) -> str:
    """The families of kernel file names (a name with each number as #,
    its map kind kept), each with its count."""
    families = Counter(re.sub(r"\d+", "#", name) for name in names)
    return ", ".join(f"{count} {family}" for family, count in families.items())


def _changed(old: str, new: str) -> tuple[str, ...]:
    """The lines old loses and new gains, matched without their leading
    whitespace and counted: each line of which old holds more copies, and
    then each of which new holds more, once, in order of first appearance.
    So a snippet change shows as the same lines in every schedule, however
    many steps repeat it. A constant last line, `~ moved, repeated or
    re-indented lines not shown`, which groups like any other, follows when
    the two still differ, indentation included, without those lines."""
    (a, bare_a), (b, bare_b) = ((lines, [line.lstrip() for line in lines])
                                for lines in (old.splitlines(), new.splitlines()))
    lost, gained = Counter(bare_a) - Counter(bare_b), Counter(bare_b) - Counter(bare_a)
    lines = [f"-{line}" for line in lost] + [f"+{line}" for line in gained]
    rest = [[line for line, bare in zip(*both) if bare not in lost and bare not in gained]
            for both in ((a, bare_a), (b, bare_b))]
    moved = rest[0] != rest[1]
    return tuple(lines + ["~ moved, repeated or re-indented lines not shown"] * moved)


def compare(base: dict, new: dict) -> list[str]:
    """The report of every difference between two collections; empty
    when they agree."""
    report, only, groups = [], {"parent": [], "change": []}, {}
    for name in sorted(base["kernels"].keys() | new["kernels"].keys()):
        old, changed = base["kernels"].get(name), new["kernels"].get(name)
        for side, sources in (("parent", old), ("change", changed)):
            if sources and len(sources) > 1:
                report.append(f"kernel {name} has {len(sources)} sources in the {side}")
        if not (old and changed):
            only["change" if changed else "parent"].append(name)
            continue
        for region, old_part, new_part in zip(("key loop", "outside the key loop"),
                                              _key_loop(_renumbered(old[0])),
                                              _key_loop(_renumbered(changed[0]))):
            lines = _changed(old_part, new_part)
            if lines:
                groups.setdefault((region, lines), []).append(name)
    for side, names in only.items():
        if names:
            report.append(f"kernels only in the {side}: {_counted(names)}")
    for (region, lines), names in groups.items():
        report.append(f"{region} differs in {len(names)} kernels ({_counted(names)}):")
        report += [f"    {line}" for line in lines]
    for case in sorted(base["outputs"].keys() | new["outputs"].keys()):
        old, changed = base["outputs"].get(case), new["outputs"].get(case)
        if old != changed:
            report.append(f"output {case}: {json.dumps(old)[:300]} -> {json.dumps(changed)[:300]}")
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        base, new = (collect(Path(checkout)) for checkout in argv)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = compare(base, new)
    for label, checkout, found in (("parent", argv[0], base), ("change", argv[1], new)):
        print(f"{label} {checkout}: {len(found['kernels'])} kernels, {len(found['outputs'])} "
              f"outputs (Python {found['python']})")
    print("\n".join(report) if report else "no difference")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
