"""Command line interface.

    magheat <kind> --config <path> [--out <dir>] [--seed n]
    magheat suite <name> [--out <dir>] [--workers k]
    magheat compare <a> <b> [--rtol x]

Exit codes: 0 all pass flags true, 1 numeric failure or a closed standard
output, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError, MagheatError, PresetError
from .harness import (EXPERIMENT_KINDS, ExperimentConfig, compare,
                      load_summary, preset_suite, run, run_suite)


def _build_parser():
    parser = argparse.ArgumentParser(prog="magheat",
                                     description="magnetic heat semigroup laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run one {kind} experiment")
        p.add_argument("--config", required=True, help="path to a config JSON")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p = sub.add_parser("suite", help="run a canned experiment suite")
    p.add_argument("name", help="paper-headline | oracle-only | quick")
    p.add_argument("--out", default=None)
    p.add_argument("--workers", type=int, default=1)
    p = sub.add_parser("compare", help="diff two run summaries")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rtol", type=float, default=1e-9)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "suite":
            if args.workers > 1:
                records = run_suite(args.name, out_dir=args.out, workers=args.workers)
            else:
                # lazily, so each result prints as soon as its run ends
                records = (run(cfg, out_dir=args.out) for cfg in preset_suite(args.name))
            ok = True
            for rec in records:
                summary = load_summary(rec.outputs[0])
                ok &= summary["pass"]
                print(f"{summary['label']}: {'pass' if summary['pass'] else 'FAIL'} "
                      f"({rec.wall_clock:.1f}s)", flush=True)
            return 0 if ok else 1
        if args.command == "compare":
            sa, sb = load_summary(args.a), load_summary(args.b)
            diffs = compare(sa, sb, rtol=args.rtol)
            if diffs:
                print(json.dumps(diffs, indent=2, sort_keys=True), flush=True)
                return 1
            print("summaries agree", flush=True)
            return 0
        # a single experiment kind
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {args.config} is not UTF-8 text: {exc}") from exc
        config = ExperimentConfig.from_json(text)
        if config.kind != args.command:
            raise ConfigError(
                f"config kind {config.kind!r} does not match subcommand {args.command!r}")
        if args.seed is not None:
            config.seed = args.seed
        record = run(config, out_dir=args.out)
        summary = load_summary(record.outputs[0])
        print(json.dumps(summary, indent=2, sort_keys=True), flush=True)
        return 0 if summary["pass"] else 1
    except BrokenPipeError:
        # the reader of stdout went away (`magheat compare a b | head`); every
        # print flushes, so the rest of the output goes to devnull, and the
        # flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, PresetError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MagheatError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
