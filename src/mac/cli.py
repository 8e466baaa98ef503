"""The ``mac`` command line tool.

Subcommands: train, infer, diagnose, bench, make-data, dump-config.
Exit codes: 0 success, 1 usage error, 2 config validation error,
3 runtime failure. All errors go to stderr with an ``error_code=`` prefix.
``MAC_NUM_THREADS`` caps worker threads (applied before numpy loads).
"""

from __future__ import annotations

import argparse
import os
import sys


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _apply_thread_cap() -> None:
    cap = os.environ.get("MAC_NUM_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def _positive_int(text: str) -> int:
    """An integer >= 1; anything else is a usage error that names the flag."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return value


def _lengths(text: str) -> list[int]:
    """A sorted, non-empty comma-separated list of integers >= 1."""
    lengths = [_positive_int(x) for x in text.split(",") if x.strip()]
    if not lengths or lengths != sorted(lengths):
        raise argparse.ArgumentTypeError(f"{text!r} is not a sorted, non-empty list")
    return lengths


def build_parser() -> _Parser:
    from .ssd import MODES

    parser = _Parser(prog="mac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the training schedule from a config")
    p.add_argument("--config", help="config file (defaults apply when omitted)")
    p.add_argument("--seed", type=int, help="override train.seed")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="config override, repeatable")
    p.add_argument("--out", default="mac_run", help="output directory")

    p = sub.add_parser("infer", help="caption one clip with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--wav", required=True, help="input WAV file")
    p.add_argument("--prompt", help="defaults to the checkpoint's caption prompt")
    p.add_argument("--max-len", type=_positive_int,
                   help="most caption tokens; defaults to the checkpoint's "
                        "train.max_caption_len")

    p = sub.add_parser("diagnose", help="representation diagnostics CSVs")
    p.add_argument("metric", choices=["erank", "cosine", "state-dist"])
    p.add_argument("--checkpoint", action="append", required=True,
                   help="checkpoint; erank and cosine take it repeated (one table cell "
                        "per model size, layers x width, and connector variant, at most "
                        "one checkpoint each), state-dist exactly once")
    p.add_argument("--dataset", default="synthetic",
                   help="'synthetic' or a manifest.jsonl path")
    p.add_argument("--n", type=_positive_int, default=8, help="number of clips to analyze")
    p.add_argument("--out", default="diagnostics.csv")

    p = sub.add_parser("bench", help="scaling benchmark of the scan kernels")
    p.add_argument("--mode", default="recurrent", choices=MODES)
    p.add_argument("--lengths", type=_lengths, default="256,512,1024,2048,4096,8192",
                   help="sorted scan lengths T >= 1, comma-separated")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="bench.csv")

    p = sub.add_parser("make-data", help="generate the synthetic captioned corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=_positive_int, default=32)
    p.add_argument("--seed", type=int, default=0)

    sub.add_parser("dump-config", help="print the validated default config")
    return parser


def main(argv: list[str] | None = None) -> int:
    _apply_thread_cap()
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"error_code=usage {exc}", file=sys.stderr)
        return 1

    from . import config as configmod

    try:
        return _dispatch(args)
    except UsageError as exc:
        print(f"error_code=usage {exc}", file=sys.stderr)
        return 1
    except configmod.ConfigError as exc:
        print(f"error_code=config {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # every output file is written atomically, a corpus manifest or a run's
        # metrics only after the work it records; a corpus's clips are staged
        # under temporary names until then, so nothing is flushed here
        print("error_code=interrupted stopped before completion; nothing was flushed",
              file=sys.stderr)
        return 3
    except Exception as exc:  # runtime failures map to exit 3
        from .pipeline import TrainingDiverged

        if isinstance(exc, TrainingDiverged) and exc.dump_path:
            print(f"error_code=runtime {exc}; diagnostics dump: {exc.dump_path}",
                  file=sys.stderr)
        else:
            print(f"error_code=runtime {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    from . import config as configmod

    if args.command == "dump-config":
        print(configmod.dump(configmod.Config()), end="")
        return 0

    if args.command == "make-data":
        from . import synth

        manifest = synth.write_corpus(args.out, args.n, args.seed)
        print(manifest)
        return 0

    if args.command == "bench":
        from . import diagnostics

        rows, slope = diagnostics.scaling_bench(args.lengths, mode=args.mode, seed=args.seed)
        diagnostics.write_bench_csv(args.out, rows, slope)
        for t, wall, flops in rows:
            print(f"T={t:<6d} time={wall:.6f}s flops={flops}")
        print(f"fitted log-log slope: {slope:.4f}")
        return 0

    if args.command == "train":
        return _cmd_train(args)
    if args.command == "infer":
        return _cmd_infer(args)
    if args.command == "diagnose":
        return _cmd_diagnose(args)
    raise UsageError(f"unknown command {args.command!r}")


def _cmd_train(args) -> int:
    from . import config as configmod
    from . import pipeline

    cfg = configmod.parse_file(args.config) if args.config else configmod.Config()
    overrides = list(args.set)
    if args.seed is not None:
        overrides.append(f"train.seed={args.seed}")
    if overrides:
        cfg = configmod.apply_overrides(cfg, overrides)

    rows = pipeline.run_experiment(cfg, args.out)
    last = rows[-1]
    print(f"done: {len(rows)} epochs, final loss {last['loss']:.4f}, "
          f"caption F1 {last['caption_f1']:.3f} -> {os.path.join(args.out, 'metrics.csv')}")
    return 0


def _cmd_infer(args) -> int:
    from . import pipeline

    cap = pipeline.load_captioner(args.checkpoint)
    prompt = args.prompt if args.prompt is not None else cap.cfg["data.prompt"]
    max_len = args.max_len if args.max_len is not None else cap.cfg["train.max_caption_len"]
    sample = pipeline.Sample(audio={"wav": args.wav}, prompt=prompt)
    print(pipeline.generate_greedy(cap, sample, max_len=max_len))
    return 0


def _cmd_diagnose(args) -> int:
    from . import diagnostics, pipeline, synth
    from . import tensor as tz

    def dataset_samples(cap):
        if args.dataset == "synthetic":
            records = synth.make_corpus(args.n, seed=cap.cfg["train.seed"])
            return [pipeline.Sample(audio={"synthetic": r["spec"]},
                                    prompt=cap.cfg["data.prompt"], caption=r["caption"])
                    for r in records]
        records = synth.read_manifest(args.dataset)[: args.n]
        return [pipeline.Sample(audio={"wav": r["wav"]}, prompt=cap.cfg["data.prompt"],
                                caption=r.get("caption")) for r in records]

    if args.metric == "state-dist":
        if len(args.checkpoint) != 1:
            raise UsageError(f"diagnose state-dist takes one --checkpoint, "
                             f"got {len(args.checkpoint)}")
        cap = pipeline.load_captioner(args.checkpoint[0])
        distances = [diagnostics.state_update_distances(cap, s)[0]
                     for s in dataset_samples(cap)]
        diagnostics.write_state_csv(args.out, distances)
        print(args.out)
        return 0

    cells: dict[tuple[str, str], float] = {}
    owners: dict[tuple[str, str], str] = {}
    for ck in args.checkpoint:
        cap = pipeline.load_captioner(ck)
        cell = (f"{cap.lm_cfg.n_layers}x{cap.lm_cfg.d_model}", cap.cfg["connector.variant"])
        if cell in owners:
            raise UsageError(f"--checkpoint {owners[cell]} and {ck} both fill the cell "
                             f"model {cell[0]}, connector {cell[1]}; pass one of them")
        owners[cell] = ck
        with tz.no_grad():
            tokens = cap.audio_tokens(dataset_samples(cap)).data
        feats = diagnostics.FeatureMatrix(tokens.reshape(-1, cap.enc_cfg.d_enc))
        if args.metric == "erank":
            cells[cell] = diagnostics.erank_of_tokens(feats)
        else:
            cells[cell] = diagnostics.mean_pairwise_cosine(feats)
    diagnostics.write_grid_csv(args.out, args.metric, cells)
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
