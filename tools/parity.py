"""Compare the generated kernels and the outputs of two checkouts.

    python3 tools/parity.py PARENT CHANGE

PARENT and CHANGE are checkout directories (each with the package under
`src/`). For each one the tool starts one Python subprocess that imports
that checkout's package and collects:

- the source of every kernel the package generates, each keyed by the
  call that compiled it: the orbit generator of each map kind; for each
  kind and (n1, n2) in {1..4}^2 and (1000, 1000), the blocks that
  `encrypt_bytes`, `encrypt` and `decrypt` compile, the single-query
  scanner and the fused scanner of every side schedule with no more
  steps (1/1, 2/2 and 3/3 at 1000/1000), compiled through
  `cipher._scan_grid`. Before each call the kernel cache and the kernel
  sources in `linecache` are cleared, so each call yields what it
  compiles, even where two variants share one file name;
- the outputs of a seeded case set: ciphertexts, traces (floats as
  `float.hex`), decryptions, `DivergenceError` texts and symbols,
  orbits, and single and fused `_scan_grid` calls, the fused ones with
  the queries in both orders.

It prints every difference: the kernel sources that differ, split into
the scanner's key loop (the per-key code) and the lines outside it and
grouped by identical difference, file names that differ, and each output
that differs. It exits 0 when there is none, 1 when there is any, and 2
when a checkout cannot be read.

Standard library only. Running it on one checkout against itself
(`python3 tools/parity.py . .`) must print no difference.
"""

from __future__ import annotations

import difflib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

SCHEDULES = [(n1, n2) for n1 in range(1, 5) for n2 in range(1, 5)]
LARGE = (1000, 1000)
LARGE_SIDES = [(1, 1), (2, 2), (3, 3)]
CIPHER_CASES = 400
SCAN_CASES = 200
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
    from dataclasses import replace

    import chaoscrypt
    from chaoscrypt import cipher, maps
    from chaoscrypt.cipher import Key, decrypt, default_config, encrypt, encrypt_bytes
    from chaoscrypt.maps import DivergenceError, MapKind, MapParams, State

    def sources() -> list:
        return sorted([name, "".join(entry[2])] for name, entry in linecache.cache.items()
                      if name.startswith("<chaoscrypt"))

    def compiled(call) -> list:
        maps._kernel.cache_clear()
        for name in [name for name in linecache.cache if name.startswith("<chaoscrypt")]:
            del linecache.cache[name]
        call()
        return sources()

    def scan(kind, cfg, queries, tile=([], []), n_modulus=1.0):
        return cipher._scan_grid(kind, n_modulus, cfg, queries, tile)

    kernels = {}
    for kind in MapKind:
        params = MapParams(*BOXES[kind.value][0][0])
        kernels[f"{kind.value} orbit"] = compiled(
            lambda: maps.iterate(kind, State(0.1, 0.1), params, 1))
        key = Key(kind, params)
        for n1, n2 in SCHEDULES + [LARGE]:
            cfg = replace(default_config(kind), n1=n1, n2=n2)
            at = f"{kind.value} {n1}/{n2}"
            for name, run in (("encrypt_bytes", encrypt_bytes), ("encrypt", encrypt),
                              ("decrypt", decrypt)):
                kernels[f"{at} {name}"] = compiled(lambda: run(b"", key, cfg))
            query = (b"\0", b"\0", n1, n2)
            kernels[f"{at} scan"] = compiled(lambda: scan(kind, cfg, [query]))
            sides = LARGE_SIDES if (n1, n2) == LARGE else [
                side for side in SCHEDULES if sum(side) <= n1 + n2]
            for m1, m2 in sides:
                queries = [query, (b"\0", b"\0", m1, m2)]
                kernels[f"{at}+{m1}/{m2} scan"] = compiled(lambda: scan(kind, cfg, queries))

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

    for case in range(SCAN_CASES):
        kind = rng.choice(list(MapKind))
        (a_lo, b_lo), (a_hi, b_hi) = rng.choice(BOXES[kind.value])
        step = rng.choice([1e-4, 1e-2, 0.05])
        a0, b0 = rng.uniform(a_lo, a_hi), rng.uniform(b_lo, b_hi)
        tile = ([a0 + i * step for i in range(rng.randint(1, 12))],
                [b0 + j * step for j in range(rng.randint(1, 12))])
        n_modulus, cfg = draw_modulus(kind), draw_cfg(kind)
        true = MapParams(rng.choice(tile[0]), rng.choice(tile[1]), n_modulus)
        if case == 0:
            schedules = [LARGE, (2, 2)]
        else:
            schedules = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(2)]
        data = rng.randbytes(rng.randint(1, 6))
        queries = []
        for n1, n2 in schedules:
            try:
                reference = encrypt_bytes(data, Key(kind, true), replace(cfg, n1=n1, n2=n2))
            except DivergenceError:
                reference = rng.randbytes(len(data))
            queries.append((data, reference, n1, n2))
            data = rng.randbytes(rng.randint(1, 6)) if rng.random() < 0.5 else data

        def found(queries):
            scanned, results = scan(kind, cfg, queries, tile, n_modulus)
            return [scanned, [[[[a.hex(), b.hex()] for a, b in hits], diverged]
                              for hits, diverged in results]]

        at = f"scan {case}"
        for k, query in enumerate(queries):
            outputs[f"{at} single {k}"] = found([query])
        outputs[f"{at} fused"] = found(queries)
        outputs[f"{at} fused reversed"] = found(queries[::-1])

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


def _key_loop(source: str) -> tuple[str, str]:
    """A scanner's key loop (the `for column in columns:` block) and the
    source around it, with the loop left as one marker line; a source
    without one is all around."""
    lines = source.splitlines(True)
    for start, line in enumerate(lines):
        if line.strip() == "for column in columns:":
            indent = len(line) - len(line.lstrip())
            end = start + 1
            while end < len(lines) and len(lines[end]) - len(lines[end].lstrip()) > indent:
                end += 1
            return ("".join(lines[start:end]),
                    "".join(lines[:start] + [" " * indent + "<key loop>\n"] + lines[end:]))
    return "", source


def _changed(old: str, new: str) -> tuple[str, ...]:
    """The lines that old loses and new gains, in order."""
    return tuple(line.rstrip("\n") for line in difflib.unified_diff(
        old.splitlines(True), new.splitlines(True), n=0)
        if line[:1] in "+-" and line[:3] not in ("---", "+++"))


def compare(base: dict, new: dict) -> list[str]:
    """The report of every difference between two collections; empty
    when they agree."""
    report = []
    groups: dict[tuple, list[str]] = {}
    for call in sorted(base["kernels"].keys() | new["kernels"].keys()):
        if call not in base["kernels"] or call not in new["kernels"]:
            side = "change" if call in new["kernels"] else "parent"
            report.append(f"kernel call {call!r} only in the {side}")
            continue
        old_kernels, new_kernels = base["kernels"][call], new["kernels"][call]
        if len(old_kernels) != len(new_kernels):
            report.append(f"{call}: compiled {len(old_kernels)} kernels, then {len(new_kernels)}")
            continue
        for (old_name, old_source), (new_name, new_source) in zip(old_kernels, new_kernels):
            if old_name != new_name:
                kind = call.split()[0]
                pattern = tuple(re.sub(r"\d+", "#", name.replace(kind, "KIND"))
                                for name in (old_name, new_name))
                groups.setdefault(("file name", ("- " + pattern[0], "+ " + pattern[1])),
                                  []).append(call)
            for region, old_part, new_part in zip(("key loop", "outside the key loop"),
                                                  _key_loop(old_source), _key_loop(new_source)):
                lines = _changed(old_part, new_part)
                if lines:
                    groups.setdefault((region, lines), []).append(call)
    for (region, lines), calls in groups.items():
        shown = ", ".join(calls[:4]) + (", ..." if len(calls) > 4 else "")
        report.append(f"{region} differs in {len(calls)} kernels ({shown}):")
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
    print(f"parent {argv[0]}: {len(base['kernels'])} compile calls, {len(base['outputs'])} "
          f"outputs (Python {base['python']})")
    print(f"change {argv[1]}: {len(new['kernels'])} compile calls, {len(new['outputs'])} "
          f"outputs (Python {new['python']})")
    print("\n".join(report) if report else "no difference")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
