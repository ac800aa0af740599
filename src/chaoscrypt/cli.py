"""Command-line front end.

Commands: encrypt, decrypt, keygen, trajectory, sensitivity, identify,
attack, report, compare. Every command exits 0 on success and prints a
single machine-parseable `error: ...` line on stderr otherwise
(exit 1: runtime failure such as unreadable files, malformed JSON or hex,
a divergent orbit, or an interrupt by Ctrl-C or SIGTERM; exit 2: bad
usage; exit 3: key outside the domain passed to encrypt/decrypt via
--domain).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import sys
import threading
from functools import cache
from time import perf_counter

from . import analysis, cipher, maps
from .analysis import KeyDomain
from .cipher import CipherConfig, Key
from .maps import DivergenceError, MapKind, MapParams, State

# Longest orbit `trajectory --n` computes; the orbit is held in memory
# before it is written.
_MAX_TRAJECTORY_STEPS = 10 ** 6


def _arg_type(parse):
    """parse as an argparse type= function: argparse shows the message of
    an ArgumentTypeError, but replaces a ValueError's with its own."""
    def arg(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return arg


def _parse_floats(text: str, n_min: int, n_max: int, what: str) -> list[float]:
    parts = [p for p in text.split(",") if p.strip()]
    if not n_min <= len(parts) <= n_max:
        raise ValueError(f"{what} expects {n_min}"
                         + (f" to {n_max}" if n_max != n_min else "")
                         + f" comma-separated numbers, got {text!r}")
    return [float(p) for p in parts]


@_arg_type
def _domain_arg(text: str) -> tuple[float, float, float, float]:
    return tuple(_parse_floats(text, 4, 4, "--domain"))


@_arg_type
def _params_arg(text: str) -> MapParams:
    vals = _parse_floats(text, 2, 3, "--params")
    return MapParams(vals[0], vals[1], vals[2] if len(vals) == 3 else 1.0)


@_arg_type
def _init_arg(text: str) -> State:
    x, y = _parse_floats(text, 2, 2, "--init")
    return State(x, y)


def _load_cfg(args, kind: MapKind) -> CipherConfig:
    return cipher.load_config(args.config, kind) if args.config else cipher.default_config(kind)


def _plaintext_from(args) -> bytes:
    if args.text is not None:
        return args.text.encode("utf-8")
    with open(args.plaintext_file, "rb") as f:
        return f.read()


def _progress(label: str):
    last = [0.0]
    t0 = perf_counter()

    def report(done: int, total: int):
        now = perf_counter()
        if done >= total or now - last[0] >= 2.0:
            last[0] = now
            print(f"[{label}] {done}/{total} keys, {now - t0:.1f}s",
                  file=sys.stderr)

    return report


def cmd_file(args) -> int:
    """encrypt or decrypt, as args.command says: one file to another."""
    key = cipher.load_key(args.key)
    code = _check_key_domain(args, key)
    if code:
        return code
    run = cipher.encrypt_file if args.command == "encrypt" else cipher.decrypt_file
    run(args.infile, args.out, key, _load_cfg(args, key.kind))
    return 0


def _domain(args, kind: MapKind, n_modulus: float) -> KeyDomain:
    """The key grid that --domain and --increment spell."""
    a_lo, b_lo, a_hi, b_hi = args.domain
    return KeyDomain(kind, (a_lo, b_lo), (a_hi, b_hi), args.increment, n_modulus=n_modulus)


def _check_key_domain(args, key: Key) -> int:
    """encrypt's and decrypt's guard: the key against the --domain bounds alone."""
    if args.domain is None:
        return 0
    a_lo, b_lo, a_hi, b_hi = args.domain
    analysis._check_axis(a_lo, a_hi)
    analysis._check_axis(b_lo, b_hi)
    if not (a_lo <= key.params.a <= a_hi and b_lo <= key.params.b <= b_hi):
        print(f"error: key ({key.params.a}, {key.params.b}) outside domain "
              "[{}, {}]..[{}, {}]".format(*args.domain), file=sys.stderr)
        return 3
    return 0


def cmd_keygen(args) -> int:
    kind = MapKind.parse(args.kind)
    domain = _domain(args, kind, args.n_modulus)
    rng = random.Random(args.seed)
    na, nb = domain.axis_counts()
    key = Key(kind, domain.params_at(rng.randrange(na), rng.randrange(nb)))
    if args.out:
        cipher.save_key(key, args.out)
    else:
        print(cipher.key_to_json(key))
    return 0


def cmd_trajectory(args) -> int:
    kind = MapKind.parse(args.kind)
    maps._check_count(args.n, "--n", 1, _MAX_TRAJECTORY_STEPS)
    start = args.init if args.init is not None else cipher.DEFAULT_INITIAL_STATE[kind]
    points = maps.trajectory(kind, start, args.params, args.n)
    with cipher._atomic_write(args.out, "x", encoding="ascii") as f:
        maps.write_trajectory_csv(points, f)
    print(f"{len(points)} points -> {args.out}")
    return 0


def cmd_sensitivity(args) -> int:
    key = cipher.load_key(args.key)
    cfg = _load_cfg(args, key.kind)
    plaintext = _plaintext_from(args)
    if args.mode == "pt":
        pct = analysis.plaintext_sensitivity(plaintext, key, cfg, args.flip_bit)
    else:
        pct = analysis.key_sensitivity(plaintext, key, cfg, delta=args.delta)
    print(f"{pct:.4f}")
    return 0


def _print_scan(args, elapsed: float, fields: dict, summary: str) -> int:
    """identify's and attack's output, the scan's wall time last: with --json
    the JSON object of fields and elapsed_s, else summary and elapsed=...s."""
    if args.json:
        print(json.dumps({**fields, "elapsed_s": elapsed}))
    else:
        print(f"{summary} elapsed={elapsed:.2f}s")
    return 0


def cmd_identify(args) -> int:
    maps._check_count(args.iters, "--iters", 1, cipher._MAX_ITERATIONS)
    key = cipher.load_key(args.key)
    domain = _domain(args, key.kind, key.params.n_modulus)
    if not domain.contains(key.params):
        print(f"warning: key ({key.params.a}, {key.params.b}) outside the scan "
              "domain; it will be snapped to the nearest grid point", file=sys.stderr)
    cfg = _load_cfg(args, key.kind)
    plaintext = _plaintext_from(args)
    t0 = perf_counter()
    result = analysis.identifiability_scan(
        plaintext, key, domain, cfg, iteration_value=args.iters,
        compare_len=args.compare_len, workers=args.workers,
        on_progress=_progress("identify"))
    return _print_scan(args, perf_counter() - t0, {
        "verdict": result.verdict,
        "identifiable": result.identifiable,
        "matching": len(result.matching_keys),
        "grid": result.grid_size,
        "true_key": cipher._key_dict(result.true_key),
        "matching_keys": [cipher._key_dict(k) for k in result.matching_keys[:20]],
        "diverged": result.diverged,
    }, f"verdict={result.verdict} matching={len(result.matching_keys)} "
       f"grid={result.grid_size}")


def cmd_attack(args) -> int:
    kind = MapKind.parse(args.kind)
    domain = _domain(args, kind, args.n_modulus)
    cfg = _load_cfg(args, kind)
    ciphertext = b"".join(cipher._hex_chunks(args.cipher))
    t0 = perf_counter()
    result = analysis.known_plaintext_attack(
        ciphertext, args.known_prefix.encode("utf-8"), domain, cfg,
        workers=args.workers, on_progress=_progress("attack"))
    rec = (f"({result.recovered.params.a}, {result.recovered.params.b})"
           if result.recovered else "none")
    return _print_scan(args, perf_counter() - t0, {
        "candidates": len(result.candidates),
        "candidate_keys": [cipher._key_dict(k) for k in result.candidates[:20]],
        "recovered": cipher._key_dict(result.recovered) if result.recovered else None,
        "robust": result.robust,
        "verdict": result.verdict,
        "grid": domain.size(),
        "diverged": result.diverged,
    }, f"candidates={len(result.candidates)} recovered={rec} "
       f"verdict={result.verdict} grid={domain.size()}")


def _resolve_spec(source: str):
    if os.path.exists(source):
        return source
    return analysis.builtin_spec_path(source)


def cmd_report(args) -> int:
    triples = analysis.load_report_spec(_resolve_spec(args.spec))
    t0 = perf_counter()
    rows = analysis.analysis_report(
        triples, workers=args.workers,
        log=lambda s: print(f"[report] {s}", file=sys.stderr))
    with cipher._atomic_write(args.out, "x", encoding="utf-8", newline="") as f:
        analysis.write_report_csv(rows, f)
    # a range no row has a value for is null: JSON has no NaN
    pt_range, ks_range = (
        None if math.isnan(low) else [low, high]
        for low, high in (analysis._minmax(r.plaintext_sensitivity_pct for r in rows),
                          analysis._minmax(r.key_sensitivity_pct for r in rows)))
    band = analysis.REFERENCE_PT_SENSITIVITY_BAND.get(
        rows[0].domain.kind) if rows else None
    print(json.dumps({
        "rows": len(rows),
        "out": args.out,
        "pt_sensitivity_range_pct": pt_range,
        "key_sensitivity_range_pct": ks_range,
        "reference_pt_band_pct": list(band) if band else None,
        "errors": sum(1 for r in rows if r.error),
        "elapsed_s": perf_counter() - t0,
    }))
    return 0


def cmd_compare(args) -> int:
    with open(args.arnold, "r", encoding="utf-8", newline="") as f:
        rows_a = analysis.read_report_csv(f, MapKind.ARNOLD)
    with open(args.duffing, "r", encoding="utf-8", newline="") as f:
        rows_d = analysis.read_report_csv(f, MapKind.DUFFING)
    summaries = analysis.compare_ciphers(rows_a, rows_d)
    if args.out:
        with cipher._atomic_write(args.out, "x", encoding="utf-8", newline="") as f:
            analysis.write_comparison_csv(summaries, f)
    else:
        analysis.write_comparison_csv(summaries, sys.stdout)
    for s in summaries:
        if s.key_space_flagged:
            print(f"warning: {s.cipher} computed key space {s.key_space:.3e} "
                  f"disagrees with the reference figure {s.key_space_reference:.0e}",
                  file=sys.stderr)
    return 0


_WORKERS_HELP = "parallel scan processes (capped by the usable CPUs)"
_INCREMENT_HELP = "grid step of a and b over the domain"
_N_MODULUS_HELP = "the keys' torus modulus N, which is public; the Duffing map ignores it"


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: its
    nine subparsers take milliseconds to build, and parsing leaves the
    parser as it was."""
    parser = argparse.ArgumentParser(
        prog="chaoscrypt",
        description="Chaotic-map stream cipher and cryptanalysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = [kind.value for kind in MapKind]

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text,
                           formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        p.set_defaults(func=func)
        return p

    for name, help_text, fin, fout in (
            ("encrypt", "encrypt a file to hex ciphertext", "raw bytes", "lowercase hex"),
            ("decrypt", "decrypt a hex ciphertext file", "hex", "raw bytes")):
        p = add(name, cmd_file, help_text)
        p.add_argument("--in", dest="infile", required=True, help=f"input file ({fin})")
        p.add_argument("--out", required=True, help=f"output file ({fout})")
        p.add_argument("--key", required=True, help="key JSON file")
        p.add_argument("--config", help="cipher config JSON file")
        p.add_argument("--domain", type=_domain_arg, default=None,
                       help="a_lo,b_lo,a_hi,b_hi; reject keys outside it (exit 3)")

    p = add("keygen", cmd_keygen, "draw a key uniformly from a domain grid")
    p.add_argument("--kind", required=True, choices=kinds)
    p.add_argument("--domain", type=_domain_arg, required=True,
                   help="a_lo,b_lo,a_hi,b_hi")
    p.add_argument("--increment", type=float, default=analysis.GRID_STEP, help=_INCREMENT_HELP)
    p.add_argument("--n-modulus", type=float, default=1.0, help=_N_MODULUS_HELP)
    p.add_argument("--seed", type=int, default=None,
                   help="seed for a reproducible draw")
    p.add_argument("--out", help="write the key JSON here instead of stdout")

    p = add("trajectory", cmd_trajectory, "dump an orbit as k,x,y CSV")
    p.add_argument("--kind", required=True, choices=kinds)
    p.add_argument("--params", type=_params_arg, required=True, help="a,b[,N]")
    p.add_argument("--init", type=_init_arg, default=None,
                   help="x,y start point (default: the kind's cipher start state)")
    p.add_argument("--n", type=int, required=True, help="number of steps")
    p.add_argument("--out", required=True, help="CSV output path")

    p = add("sensitivity", cmd_sensitivity,
            "plaintext or key sensitivity percentage")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--text", help="inline plaintext (UTF-8)")
    src.add_argument("--plaintext-file", help="plaintext file (raw bytes)")
    p.add_argument("--key", required=True, help="key JSON file")
    p.add_argument("--mode", required=True, choices=["pt", "key"])
    p.add_argument("--delta", type=float, default=analysis.GRID_STEP,
                   help="key increment (key mode)")
    p.add_argument("--flip-bit", type=int, default=0,
                   help="plaintext bit to flip (pt mode)")
    p.add_argument("--config", help="cipher config JSON file")

    p = add("identify", cmd_identify, "output-equality scan over a key grid")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--text", help="inline plaintext (UTF-8)")
    src.add_argument("--plaintext-file", help="plaintext file (raw bytes)")
    p.add_argument("--key", required=True, help="true key JSON file")
    p.add_argument("--domain", type=_domain_arg, required=True,
                   help="a_lo,b_lo,a_hi,b_hi")
    p.add_argument("--increment", type=float, default=analysis.GRID_STEP, help=_INCREMENT_HELP)
    p.add_argument("--iters", type=int, default=3,
                   help="iteration count used for both cipher stages")
    p.add_argument("--compare-len", type=int, default=None,
                   help="symbols compared (default: min(len, 8))")
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument("--config", help="cipher config JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = add("attack", cmd_attack, "known-plaintext key search over a grid")
    p.add_argument("--cipher", required=True, help="hex ciphertext file")
    p.add_argument("--known-prefix", required=True,
                   help="known leading plaintext characters (UTF-8)")
    p.add_argument("--kind", required=True, choices=kinds)
    p.add_argument("--domain", type=_domain_arg, required=True,
                   help="a_lo,b_lo,a_hi,b_hi")
    p.add_argument("--increment", type=float, default=analysis.GRID_STEP, help=_INCREMENT_HELP)
    p.add_argument("--n-modulus", type=float, default=1.0, help=_N_MODULUS_HELP)
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument("--config", help="cipher config JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")

    p = add("report", cmd_report, "full analysis table from a row spec")
    p.add_argument("--spec", required=True,
                   help="row spec JSON path, or a builtin name "
                        "(table1_arnold, table2_duffing)")
    p.add_argument("--out", required=True, help="report CSV output path")
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)

    p = add("compare", cmd_compare, "merge two reports into the comparison table")
    p.add_argument("--arnold", required=True, help="report CSV of the cat-map cipher")
    p.add_argument("--duffing", required=True, help="report CSV of the Duffing cipher")
    p.add_argument("--out", help="comparison CSV path (default: stdout)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # While the command runs, SIGTERM gets Ctrl-C's handler: an interrupted
    # file command removes its temp file. Handlers are set only from the
    # main thread, and the previous one is put back for the next caller.
    previous = None
    if threading.current_thread() is threading.main_thread():
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: divergence: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
