"""Batch command-line front end for the experiments and table tooling.

Exit codes: 0 success, 1 usage or configuration error, 2 statistical bound
violation (so CI can gate on bound conformance). All randomness flows
from --seed; identical invocations produce byte-identical output. The
TORNADO_THREADS environment variable caps the trial worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import bench, experiments, linprobe, rng, selectors
from .core import (ConfigError, TornadoHash, TornadoSpec, Variant, check_real,
                   derived_injectivity_check, dump_tables, parse_spec_string)
from .experiments import Verdict
from .gf2 import genkey_from_key

USAGE_ERROR, VIOLATION_EXIT = 1, 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    seed = int(text, 0)
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed {text} is outside [0, 2^64)")
    return seed


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, default=1, help="master seed (hex ok)")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default="-", help="output path, - for stdout")


def _add_spec(p: argparse.ArgumentParser, d_default: int = 4, out_default: int = 8) -> None:
    p.add_argument("--sigma-bits", type=int, default=8, help="character width in bits")
    p.add_argument("--c", type=int, default=2, help="input characters")
    p.add_argument("--d", type=int, default=d_default, help="derived characters")
    p.add_argument("--out-bits", type=int, default=out_default)
    p.add_argument("--variant", choices=[v.value for v in Variant], default="tornado")
    p.add_argument("--psi-bits", type=int, default=None)


def _spec_from(args) -> TornadoSpec:
    return TornadoSpec(
        char_bits=args.sigma_bits,
        c=args.c,
        d=args.d,
        out_bits=args.out_bits,
        variant=Variant(args.variant),
        psi_bits=args.psi_bits,
    )


def _workers() -> int:
    cap = os.environ.get("TORNADO_THREADS")
    if cap is None:
        return 1
    return max(1, min(int(cap), os.cpu_count() or 1))


def _emit(args, text: str) -> None:
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _emit_reports(args, reports) -> int:
    if args.format == "csv":
        _emit(args, experiments.reports_to_csv(reports))
    else:
        _emit(args, experiments.reports_to_json(reports) + "\n")
    if any(r.verdict is Verdict.VIOLATION for r in reports):
        return VIOLATION_EXIT
    return 0


def _cmd_independence(args) -> int:
    spec = _spec_from(args)
    keys = rng.sample_distinct_keys(rng.mix64(args.seed), args.set_size, spec.key_bits)
    sel = selectors.fixed_set(keys)
    rep = experiments.measure_dependence(sel, spec, args.trials, args.seed, workers=_workers())
    return _emit_reports(args, [rep])


def _cmd_lowerbound(args) -> int:
    """Hard-instance dependence and its floor. At sigma >= 256 the verdict
    stands, but it cannot see zeroed level tables (0.25 against a bound of
    0.277); the 32-column two-column instance of acceptance test 13 can."""
    check_real("--floor-const", args.floor_const, 0, math.inf)
    spec = _spec_from(args)
    sel = selectors.hard_instance(spec.char_bits)
    rep = experiments.measure_dependence(sel, spec, args.trials, args.seed, workers=_workers())
    floor = args.floor_const * (3.0 / spec.sigma) ** (spec.d - 2)
    params = dict(rep.params, floor=floor, above_floor=bool(rep.estimate >= floor))
    return _emit_reports(args, [replace(rep, name="lowerbound_dependence", params=params)])


def _cmd_survival(args) -> int:
    experiments.check_count("rounds", args.rounds)  # zero rounds is a trivial report
    spec = TornadoSpec(args.sigma_bits, args.c, args.rounds, 1, Variant.SIMPLE_TORNADO)
    zs = default_zero_set(args.sigma_bits)
    reports = [experiments.survival_rounds(spec, zs, args.trials, args.seed, args.rounds)]
    if args.exhaustive:
        exact = experiments.survival_one_round_exact(2, 2, default_zero_set(2))
        reports.append(experiments.ExperimentReport(
            name="survival_exact_sigma4", estimate=float(exact), stderr=0.0,
            bound=(3 - 2 / 4) / 4, trials=1 << 16, seed=args.seed,
            params={"exact": f"{exact.numerator}/{exact.denominator}"},
            verdict=Verdict.INFORMATIONAL,
        ))
    return _emit_reports(args, reports)


def _cmd_chaining(args) -> int:
    spec = _spec_from(args)
    reports = experiments.chaining_tail(spec, args.n, args.k, args.trials, args.seed,
                                        workers=_workers())
    return _emit_reports(args, reports)


def _cmd_chernoff(args) -> int:
    spec = _spec_from(args)
    keys = rng.sample_distinct_keys(rng.mix64(args.seed), args.set_size, spec.key_bits)
    sel = selectors.bin_selector(keys, args.bin)
    rep = experiments.chernoff_tail(sel, spec, args.delta, args.trials, args.seed,
                                    workers=_workers())
    return _emit_reports(args, [rep])


def _cmd_probing(args) -> int:
    spec = _spec_from(args)
    comparison = linprobe.probe_experiment(spec, args.n, args.m, args.queries,
                                           args.trials, args.seed, args.star_delta)
    if args.histogram:
        with open(args.histogram, "w") as fh:
            fh.write(linprobe.histograms_csv(comparison))
    return _emit_reports(args, comparison.to_reports())


def _cmd_bench(args) -> int:
    results = [bench.throughput(s, args.n_keys, args.reps, args.seed)
               for s in args.schemes.split(",")]
    if args.format == "csv":
        lines = [bench.BENCH_CSV_HEADER] + [r.csv_row() for r in results]
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, json.dumps(
            [{"scheme": r.scheme, "n_keys": r.n_keys, "ns_per_key": r.ns_per_key,
              "checksum": f"{r.checksum:#x}", "reps": r.reps} for r in results],
            indent=2) + "\n")
    return 0


def default_zero_set(char_bits: int) -> list[int]:
    """Canonical 4-key zero-set {0a, 1a, 0b, 1b} over two characters."""
    a, b = 2 % (1 << char_bits), (1 << char_bits) - 1
    return [(a << char_bits) | 0, (a << char_bits) | 1,
            (b << char_bits) | 0, (b << char_bits) | 1]


def _cmd_selftest(args) -> int:
    checks: list[tuple[str, bool]] = []

    keys3 = [genkey_from_key(x, 2, 2) for x in (0b0000, 0b0001, 0b0100)]
    zs4 = [genkey_from_key(x, 2, 2) for x in (0b0000, 0b0001, 0b0100, 0b0101)]
    checks.append(("exact-uniformity-independent",
                   experiments.exact_uniformity_check(2, 2, 2, keys3)))
    checks.append(("exact-uniformity-zero-set-fails",
                   not experiments.exact_uniformity_check(2, 2, 2, zs4)))

    for label, spec in (("w64-d4", TornadoSpec(8, 4, 4, 24, Variant.TORNADO)),
                        ("w64-d3", TornadoSpec(8, 4, 3, 32, Variant.TORNADO))):
        h = TornadoHash.build(spec, args.seed)
        ks = rng.raw_key_stream(args.seed, 10000, 32).tolist()
        # the scalar reference, not eval_batch: the folded word and the batch
        # lanes are packed by the same loop, core._pack
        checks.append((f"folded-equals-reference-{label}",
                       all(h.eval_folded(x) == h.eval(x) for x in ks)))
    mix_spec = TornadoSpec(8, 8, 5, 64, Variant.TORNADO_MIX, psi_bits=16)
    hm = TornadoHash.build(mix_spec, args.seed)
    km = rng.raw_key_stream(args.seed, 1000, 64)
    checks.append(("folded-equals-reference-w128mix",
                   all(hm.eval_folded(int(x)) == hm.eval(int(x)) for x in km)))

    h2 = TornadoHash.build(TornadoSpec(8, 2, 0, 16, Variant.TORNADO), args.seed)
    checks.append(("derived-keys-injective",
                   derived_injectivity_check(h2, np.arange(65536, dtype=np.uint64))))

    exact = experiments.survival_one_round_exact(2, 2, default_zero_set(2))
    checks.append(("survival-exact-sigma4", float(exact) == 0.625))

    failed = False
    lines = []
    for name, ok in checks:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}")
        failed |= not ok
    _emit(args, "\n".join(lines) + "\n")
    return 1 if failed else 0


def _cmd_dump_tables(args) -> int:
    spec = parse_spec_string(args.spec) if args.spec else _spec_from(args)
    _emit(args, dump_tables(TornadoHash.build(spec, args.seed)))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="tornadotab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("independence", help="dependence rate of a fixed selected set")
    _add_spec(p)
    p.add_argument("--set-size", type=int, default=128)
    p.add_argument("--trials", type=int, default=100000)
    _add_common(p)
    p.set_defaults(fn=_cmd_independence)

    p = sub.add_parser("lowerbound", help="dependence rate of the hard instance")
    _add_spec(p, d_default=3)
    p.add_argument("--trials", type=int, default=1000000)
    p.add_argument("--floor-const", type=float, default=1e-2)
    _add_common(p)
    p.set_defaults(fn=_cmd_lowerbound)

    p = sub.add_parser("survival", help="zero-set survival through derivation rounds")
    p.add_argument("--sigma-bits", type=int, default=4)
    p.add_argument("--c", type=int, default=2)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--trials", type=int, default=1000000)
    p.add_argument("--exhaustive", action="store_true",
                   help="also run the exact sigma=4 enumeration")
    _add_common(p)
    p.set_defaults(fn=_cmd_survival)

    p = sub.add_parser("chaining", help="fixed-bin occupancy tail, n keys to n bins")
    _add_spec(p)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--k", type=int, action="append", default=None)
    p.add_argument("--trials", type=int, default=100000)
    _add_common(p)
    p.set_defaults(fn=_cmd_chaining)

    p = sub.add_parser("chernoff", help="selected-set size tail joint with independence")
    _add_spec(p, out_default=6)
    p.add_argument("--set-size", type=int, default=4096)
    p.add_argument("--bin", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=100000)
    _add_common(p)
    p.set_defaults(fn=_cmd_chernoff)

    p = sub.add_parser("probing", help="linear probing vs fully-random baseline")
    _add_spec(p, out_default=16)
    p.set_defaults(sigma_bits=16)
    p.add_argument("--n", type=int, default=49152)
    p.add_argument("--m", type=int, default=65536)
    p.add_argument("--queries", type=int, default=1024)
    p.add_argument("--trials", type=int, default=64)
    p.add_argument("--star-delta", type=float, default=0.01)
    p.add_argument("--histogram", default=None, help="write per-seed histograms CSV here")
    _add_common(p)
    p.set_defaults(fn=_cmd_probing)

    p = sub.add_parser("bench", help="hashing throughput")
    p.add_argument("--schemes", default=",".join(bench.SCHEMES))
    p.add_argument("--n-keys", type=int, default=200000)
    p.add_argument("--reps", type=int, default=9)
    _add_common(p)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("selftest", help="exhaustive micro-oracles")
    _add_common(p)
    p.set_defaults(fn=_cmd_selftest)

    p = sub.add_parser("dump-tables", help="bit-exact table dump")
    _add_spec(p)
    p.add_argument("--spec", default=None, help="spec string, overrides the flags")
    _add_common(p)
    p.set_defaults(fn=_cmd_dump_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "chaining" and args.k is None:
        args.k = [4, 8]
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"tornadotab: error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
