"""Command-line front end: synth, validate, features, ttest, evaluate, report.
JSON config with flag overrides; exit codes 0 ok, 1 usage, 2 data, 3 numeric,
4 system (a worker process could not start or died)."""

from __future__ import annotations

import argparse
import copy
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

from . import classifiers, dataset, dsp, evaluation, features, stats

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_SYSTEM = 4

# the config schema: every key with its default, whose type sets the values
# the key takes (_TYPES)
DEFAULTS = {
    "filter": dict(zip(("low_hz", "high_hz", "taps"), evaluation.DEFAULT_FILTER)),
    "features": {"scale": features.SCALES[0]},
    "stats": {"alpha": stats.DEFAULT_ALPHA, "level": stats.LEVELS[0]},
    "train": dataclasses.asdict(classifiers.TrainConfig()),
    "cv": {"seed": 0, "granularity": evaluation.GRANULARITIES[0]},
    "fusion": {"ranking_source": evaluation.RANKING_SOURCES[0]},
    "synth": {**dataclasses.asdict(dataset.SynthConfig()),  # channels as a JSON list
              "target_channels": list(dataset.SynthConfig.target_channels)},
    "io": {"input": None, "output": None},
}

CHOICES = {
    ("features", "scale"): features.SCALES,
    ("stats", "level"): stats.LEVELS,
    ("cv", "granularity"): evaluation.GRANULARITIES,
    ("fusion", "ranking_source"): evaluation.RANKING_SOURCES,
}

# the call that builds each of these sections from its keys as keyword
# arguments, for _validate_config and the commands; dsp.design_bandpass is
# looked up per call, so a wrapper put on it sees every design
BUILDERS = {
    "filter": lambda **keys: dsp.design_bandpass(dataset.FS, **keys),
    "train": classifiers.TrainConfig,
    "synth": dataset.SynthConfig,
}

# what a key takes, by the type of its default: no key takes a bool, NaN or
# Infinity, every integer setting is a count or a seed, so >= 0, and a path
# holds no NUL byte
_TYPES = {
    float: ("a number", lambda v: isinstance(v, (int, float)) and abs(v) < np.inf),
    int: ("an integer >= 0", lambda v: isinstance(v, int) and v >= 0),
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a list of strings",
           lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
    type(None): ("a string or null",
                 lambda v: v is None or isinstance(v, str) and "\0" not in v),
}

_KIND_ALIASES = {**{kind.lower(): kind for kind in classifiers.MODEL_KINDS},
                 "nb": "NaiveBayes", "boost": "Boosting"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _merge_config(path) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if path is None:
        return cfg
    try:
        user = dataset.read_json(path, "BadConfig")
    except FileNotFoundError as exc:
        raise UsageError(f"config file not found: {str(path)!r}") from exc
    except dataset.DataError as exc:
        raise UsageError(f"config file {str(path)!r} is not valid JSON: "
                         f"{exc.__cause__}") from exc
    except OSError as exc:
        raise UsageError(f"config file {str(path)!r}: {exc}") from exc
    if not isinstance(user, dict):
        raise UsageError("config root must be a JSON object")
    for section, values in user.items():
        if section not in cfg:
            raise UsageError(f"unknown config section {section!r}")
        if not isinstance(values, dict):
            raise UsageError(f"config section {section!r} must be an object")
        for key, value in values.items():
            if key not in cfg[section]:
                raise UsageError(f"unknown config key {section}.{key}")
            cfg[section][key] = value
    return cfg


def _build(cfg: dict, section: str):
    return BUILDERS[section](**cfg[section])


def _validate_config(cfg: dict) -> None:
    for section, keys in DEFAULTS.items():
        for key, default in keys.items():
            value = cfg[section][key]
            what, takes = _TYPES[type(default)]
            if isinstance(value, bool) or not takes(value):
                raise UsageError(f"{section}.{key} must be {what}, got {value!r}")
    for (section, key), choices in CHOICES.items():
        if cfg[section][key] not in choices:
            raise UsageError(f"{section}.{key} must be one of {', '.join(choices)}")
    if not 0.0 <= cfg["stats"]["alpha"] <= 1.0:
        raise UsageError("stats.alpha must be in [0, 1]")
    for section in BUILDERS:
        try:
            _build(cfg, section)
        except ValueError as exc:
            raise UsageError(f"{section}: {exc}") from exc


def _apply_overrides(cfg: dict, args) -> None:
    """A flag whose dest is a config path, "section.key", overrides that key;
    --seed sets the generator, fold and training seeds at once."""
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            cfg[section][key] = value
    if getattr(args, "seed", None) is not None:
        for section in ("synth", "cv", "train"):
            cfg[section]["seed"] = args.seed


def _require_out(args, cfg) -> Path:
    """The output directory, which the writers make at the command's first write."""
    out = args.out or cfg["io"]["output"]
    if out is None:
        raise UsageError("an output directory is required (--out or config io.output)")
    out = Path(out)
    if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
        raise UsageError(f"output directory {str(out)!r} is not a directory")
    return out


def _feature_matrix(args, cfg, scale: str) -> features.FeatureMatrix:
    files = dataset.TrialFiles(args.manifest)
    return features.build_feature_matrix(dataset.Dataset(files.subject_id, files),
                                         _build(cfg, "filter"), scale=scale)


def _parse_kinds(text):
    kinds = []
    for token in text.split(","):
        token = token.strip().lower()
        if token not in _KIND_ALIASES:
            raise UsageError(f"unknown classifier {token!r}; choose from "
                             f"{sorted(set(_KIND_ALIASES))}")
        kind = _KIND_ALIASES[token]
        if kind not in kinds:
            kinds.append(kind)
    return tuple(kinds)


def cmd_synth(args, cfg, out) -> None:
    trials = dataset.SyntheticTrials(_build(cfg, "synth"))
    print(dataset.save_dataset(dataset.Dataset(subject_id="synthetic", trials=trials), out))


def cmd_validate(args, cfg, out) -> None:
    # each trial is read and summed up in a worker: its label, and under
    # --amplitude-check its count of epochs above the limit
    limit = (args.amplitude_threshold or 200.0) if args.amplitude_check else None   # uV

    def summary(trial):
        if limit is None:
            return trial.label, 0
        peaks = np.abs(dsp.epoch_trial(trial.samples)).max(axis=(1, 2))
        return trial.label, int((peaks > limit).sum())

    counts = {dataset.RIGHT: 0, dataset.LEFT: 0}
    flagged = 0
    for label, n in dataset.fork_map(summary, dataset.TrialFiles(args.manifest)):
        counts[label] += 1
        flagged += n
    msg = (f"ok: {sum(counts.values())} trials ({counts[dataset.RIGHT]} right, "
           f"{counts[dataset.LEFT]} left), {len(dataset.CHANNELS)} channels, fs={dataset.FS}")
    if limit is not None:
        msg += f", {flagged} epoch(s) above {limit:g} uV"
    print(msg)


def cmd_features(args, cfg, out) -> None:
    fm = _feature_matrix(args, cfg, cfg["features"]["scale"])
    print(features.save_features_csv(fm, out / "features.csv"))


def cmd_ttest(args, cfg, out) -> None:
    # stats always run on linear power: the difference map is in density units
    smap = stats.significance_map(_feature_matrix(args, cfg, "linear"),
                                  alpha=cfg["stats"]["alpha"], level=cfg["stats"]["level"])
    stats.save_map_csv(smap, out / "ttest_map.csv")
    stats.save_band_csv(stats.band_aggregate(smap), out / "ttest_bands.csv")
    stats.save_psd_curves_csv(smap, out / "psd_curves.csv")
    frac = float(smap.significant.mean())
    print(f"significant cells: {int(smap.significant.sum())}/{smap.significant.size} "
          f"({100.0 * frac:.1f}%) at alpha={smap.alpha:g}")


def cmd_evaluate(args, cfg, out) -> None:
    files = dataset.TrialFiles(args.manifest)
    report = evaluation.run_cv(
        dataset.Dataset(files.subject_id, files), _build(cfg, "train"),
        seed=cfg["cv"]["seed"], kinds=args.classifiers,
        ranking_source=cfg["fusion"]["ranking_source"], scale=cfg["features"]["scale"],
        granularity=cfg["cv"]["granularity"], filt=_build(cfg, "filter"))
    report["config"] = cfg
    dataset.write_json(out / "report.json", report)
    evaluation.report_to_csv(report, out / "report.csv")
    print(evaluation.format_table(report))
    if "rule_error" in report:
        print(f"note: {report['rule_error']}; rule row omitted", file=sys.stderr)


def cmd_report(args, cfg, out) -> None:
    combined = evaluation.batch_report([evaluation.load_report(p) for p in args.reports])
    combined["config"] = cfg
    dataset.write_json(out / "combined_report.json", combined)
    evaluation.report_to_csv(combined, out / "combined_report.csv")
    print(evaluation.format_table(combined))


# a command gets args and the config, both checked, and --out (None for validate,
# which takes no --out); main writes effective_config.json after it
COMMANDS = {
    "synth": cmd_synth,
    "validate": cmd_validate,
    "features": cmd_features,
    "ttest": cmd_ttest,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}


def build_parser() -> _Parser:
    # every command takes --config, every one that writes --out, and the two
    # that draw random numbers --seed
    config = _Parser(add_help=False)
    config.add_argument("--config", type=Path, help="JSON config file")
    writes = _Parser(add_help=False, parents=[config])
    writes.add_argument("--out", type=Path, help="output directory")
    seeded = _Parser(add_help=False, parents=[writes])
    seeded.add_argument("--seed", type=int,
                        help="set the generator, fold and training seeds at once")

    parser = _Parser(prog="motorclass",
                     description="EEG motor-attempt classification pipeline")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("synth", parents=[seeded], help="generate a synthetic dataset")
    p.add_argument("--n-per-side", type=int, dest="synth.n_trials_per_side")
    p.add_argument("--asymmetry-db", type=float, dest="synth.asymmetry_db")
    p.add_argument("--band", choices=sorted(dataset.GEN_BAND_HZ), dest="synth.target_band")
    p.add_argument("--channels", dest="synth.target_channels",
                   type=lambda text: [c.strip() for c in text.split(",")],
                   help="comma-separated target channels")
    p.add_argument("--noise-exponent", type=float, dest="synth.noise_model")

    p = sub.add_parser("validate", parents=[config], help="validate a dataset manifest")
    p.add_argument("manifest", nargs="?", type=Path)
    p.add_argument("--amplitude-check", action="store_true",
                   help="also flag epochs exceeding the amplitude threshold")
    p.add_argument("--amplitude-threshold", type=float,
                   help="with --amplitude-check, in uV (default 200)")

    p = sub.add_parser("features", parents=[writes], help="export the feature matrix CSV")
    p.add_argument("manifest", nargs="?", type=Path)
    p.add_argument("--scale", choices=CHOICES["features", "scale"], dest="features.scale")

    p = sub.add_parser("ttest", parents=[writes], help="per-(channel,bin) paired t-test CSVs")
    p.add_argument("manifest", nargs="?", type=Path)
    p.add_argument("--alpha", type=float, dest="stats.alpha")
    p.add_argument("--level", choices=CHOICES["stats", "level"], dest="stats.level")

    p = sub.add_parser("evaluate", parents=[seeded], help="cross-validated evaluation")
    p.add_argument("manifest", nargs="?", type=Path)
    p.add_argument("--classifiers", type=_parse_kinds,
                   help="comma-separated subset (svm,knn,nb,boosting,lda)")
    p.add_argument("--ranking", choices=CHOICES["fusion", "ranking_source"],
                   dest="fusion.ranking_source")
    p.add_argument("--granularity", choices=CHOICES["cv", "granularity"],
                   dest="cv.granularity", help="fold granularity")
    p.add_argument("--scale", choices=CHOICES["features", "scale"], dest="features.scale")

    p = sub.add_parser("report", parents=[writes], help="combine evaluation reports")
    p.add_argument("reports", nargs="+", type=Path)

    return parser


def main(argv=None) -> int:
    """One pass: every usage check (flags, config, input manifest, --out) before
    any input is read, then the command."""
    try:
        args = build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required "
                             f"(one of: {', '.join(sorted(COMMANDS))})")
        cfg = _merge_config(args.config)
        _apply_overrides(cfg, args)
        _validate_config(cfg)
        limit = getattr(args, "amplitude_threshold", None)
        if limit is not None and not args.amplitude_check:
            raise UsageError("--amplitude-threshold is used only with --amplitude-check")
        if limit is not None and not 0.0 < limit < np.inf:
            raise UsageError(f"--amplitude-threshold must be a finite number > 0, got {limit!r}")
        if "manifest" in args:
            args.manifest = args.manifest or cfg["io"]["input"]
            if args.manifest is None:
                raise UsageError("an input manifest is required (positional or config io.input)")
        out = _require_out(args, cfg) if "out" in args else None
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                            file=sys.stderr)
            COMMANDS[args.command](args, cfg, out)
        if out is not None:
            dataset.write_json(out / "effective_config.json", cfg)
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except dataset.DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (dsp.DspError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except dataset.PoolError as exc:
        print(f"system error: {exc}", file=sys.stderr)
        return EXIT_SYSTEM


if __name__ == "__main__":
    sys.exit(main())
