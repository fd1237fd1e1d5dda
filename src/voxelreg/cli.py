"""Command line interface: register, features, evaluate, batch, synth.

Exit codes are a stable scripting contract: 0 on success, 1 on any
runtime failure (reported as a one-line diagnostic on stderr), 2 on usage
errors (argparse). Every command is deterministic given identical inputs,
flags and seeds; batch output is independent of the worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import logging
import sys
import typing
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from voxelreg import evaluation, synth
from voxelreg.features import DESCRIPTORS, zscore_channels
from voxelreg.pipeline import (
    FEATURE_KINDS,
    LevelParams,
    RegistrationConfig,
    register,
    usable_cpus,
)
from voxelreg.volume import (
    load_volume,
    read_json,
    save_volume,
    warp_labels,
    with_extension,
)

logger = logging.getLogger("voxelreg")


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

# register flags whose argparse dest is the RegistrationConfig field they
# set; level fields come only from --levels or the config's levels
CONFIG_FLAGS = ("feature", "memory_budget_mb", "standardize", "standardize_reference",
                "external_fixed", "external_moving")
# the --levels fields: those of LevelParams, in spec order, with their types
LEVEL_SPEC = tuple(typing.get_type_hints(LevelParams).items())
LEVEL_FORMAT = ":".join(name for name, _ in LEVEL_SPEC)


def _parse_levels(spec: str) -> tuple[LevelParams, ...]:
    """Parse comma-separated ``LEVEL_FORMAT`` specs into a level schedule."""
    levels = []
    for part in spec.split(","):
        values = part.split(":")
        try:
            kwargs = {name: cast(v) for (name, cast), v in zip(LEVEL_SPEC, values, strict=True)}
        except ValueError:
            raise ValueError(f"bad level spec {part!r}, expected {LEVEL_FORMAT}") from None
        levels.append(LevelParams(**kwargs))
    return tuple(levels)


def _given(args, names) -> dict:
    """The flags among ``names`` set on the command line; an empty value counts as unset."""
    return {name: getattr(args, name) for name in names if getattr(args, name) not in (None, "")}


def _config_from_args(args) -> RegistrationConfig:
    cfg = RegistrationConfig.from_json(args.config) if args.config else RegistrationConfig()
    overrides = _given(args, CONFIG_FLAGS)
    if args.levels:
        overrides["levels"] = _parse_levels(args.levels)
    return dataclasses.replace(cfg, **overrides)


def _check_outputs(args, required, *optional):
    """Refuse, before any input is read, an empty ``required`` output, then
    outputs that name one volume (f, f.raw and f.json all name f), then one
    whose directory is missing; an empty ``optional`` output is not given."""
    if getattr(args, required) == "":
        raise ValueError(f"--{required.replace('_', '-')} must name a file, got ''")
    given = _given(args, (required, *optional))
    outputs = {"--" + dest.replace("_", "-"): out for dest, out in given.items()}
    volumes = {flag: with_extension(out, "").resolve() for flag, out in outputs.items()}
    if len(set(volumes.values())) < len(volumes):  # only register writes two
        raise ValueError(" and ".join(f"{f} {out}" for f, out in outputs.items()) + " name one volume")
    for flag, volume in volumes.items():
        if not volume.parent.is_dir():
            raise ValueError(f"{flag} {outputs[flag]}: {volume.parent} is not a directory")


def cmd_register(args) -> int:
    _check_outputs(args, "out_field", "out_warped")
    cfg = _config_from_args(args)
    fixed = load_volume(args.fixed, kind="scalar")
    moving = load_volume(args.moving, kind="scalar")
    result = register(fixed, moving, cfg)
    save_volume(result.field, args.out_field)
    if args.out_warped:  # the only read of the warped image
        save_volume(result.warped, args.out_warped)
    logger.info("registered %s -> %s, field written to %s", args.moving, args.fixed, args.out_field)
    return 0


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def cmd_features(args) -> int:
    _check_outputs(args, "out")
    # only intensity takes parameters on the command line
    percentiles = _given(args, ("p_low", "p_high"))
    if percentiles and args.descriptor != "intensity":
        raise ValueError(f"--p-low/--p-high apply only to intensity, not {args.descriptor}")
    if args.descriptor == "external":
        fv = load_volume(args.infile, kind="feature")
    else:
        fv = DESCRIPTORS[args.descriptor](load_volume(args.infile, kind="scalar"), **percentiles)
    if args.zscore:
        fv = zscore_channels(fv)
    save_volume(fv, args.out)
    logger.info("wrote %d-channel features to %s", fv.channels, args.out)
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    _check_outputs(args, "out_report")
    try:
        labels = [int(v) for v in args.labels.split(",")] if args.labels else None
    except ValueError:
        raise ValueError(f"bad --labels {args.labels!r}, expected comma-separated integers") from None
    if args.warped_labels and (args.moving_labels or args.field):
        raise ValueError("give --warped-labels or --moving-labels with --field, not both")
    if not (args.warped_labels or (args.moving_labels and args.field)):
        raise ValueError("need --warped-labels, or --moving-labels together with --field")
    fixed_labels = load_volume(args.fixed_labels, kind="label")
    if args.warped_labels:
        warped = load_volume(args.warped_labels, kind="label")
    else:
        moving_labels = load_volume(args.moving_labels, kind="label")
        warped = warp_labels(moving_labels, load_volume(args.field, kind="field"))
    result = evaluation.pair_result(
        args.fixed_labels, args.warped_labels or args.moving_labels, fixed_labels, warped, labels
    )
    report = evaluation.JcReport((result,))
    json_path = evaluation.write_report(report, args.out_report)
    logger.info("mean JC %.2f, report written to %s", report.dataset_mean, json_path)
    return 0


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def enumerate_pairs(volumes: list[dict], mode: str = "ordered") -> list[dict]:
    """All-pairs enumeration over a volume list.

    ``ordered`` yields the N*(N-1) ordered pairs without self-pairs;
    ``include-self`` yields all N*N ordered pairs.
    """
    if mode not in ("ordered", "include-self"):
        raise ValueError(f"unknown pair mode {mode!r}")
    pairs = []
    for vf in volumes:
        for vm in volumes:
            if mode == "ordered" and vf["id"] == vm["id"]:
                continue
            pairs.append(
                {
                    "pair_id": f"{vm['id']}->{vf['id']}",
                    "fixed": vf["image"],
                    "moving": vm["image"],
                    "fixed_labels": vf["labels"],
                    "moving_labels": vm["labels"],
                }
            )
    return pairs


def _checked_entries(entries, what: str, required: tuple[str, ...]) -> list[dict]:
    """The manifest's list of ``what`` objects, each holding every ``required`` key.

    Each required value is a string, except a volume ``id``, which may
    also be an integer.
    """
    if not isinstance(entries, list):
        raise ValueError(f"manifest {what}s must be a JSON list, got {type(entries).__name__}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"manifest {what} {i} must be a JSON object, got {type(entry).__name__}")
        missing = sorted(set(required) - set(entry))
        if missing:
            raise ValueError(f"manifest {what} {entry.get(required[0], i)} missing fields {missing}")
        for key in required:
            value = entry[key]
            if not isinstance(value, (str, int) if key == "id" else str) or isinstance(value, bool):
                expected = "a string or an integer" if key == "id" else "a string"
                raise ValueError(f"manifest {what} {i} field {key!r} must be {expected}, got {value!r}")
    return entries


def load_manifest(path) -> tuple[list[dict], RegistrationConfig, str | None]:
    """Parse a batch manifest; returns (pairs, config, output_dir)."""
    data = read_json(path, "manifest")
    if not isinstance(data, dict):
        raise ValueError(f"manifest {path} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - {"output_dir", "config", "pairs", "volumes", "pair_mode"})
    if unknown:
        raise ValueError(f"unknown manifest key(s) {unknown}")
    if ("pairs" in data) == ("volumes" in data):
        raise ValueError("manifest needs exactly one of 'pairs' and 'volumes'")
    if "pair_mode" in data and "volumes" not in data:
        raise ValueError("manifest pair_mode applies only to 'volumes', not 'pairs'")
    cfg = RegistrationConfig.from_dict(data.get("config", {}))
    if cfg.feature == "external":
        raise ValueError(
            "batch cannot use external features: the config names one external_fixed/"
            "external_moving pair, which would be used for every image pair"
        )
    if "pairs" in data:
        pair_keys = ("pair_id", "fixed", "moving", "fixed_labels", "moving_labels")
        pairs = _checked_entries(data["pairs"], "pair", pair_keys)
    else:
        volumes = _checked_entries(data["volumes"], "volume", ("id", "image", "labels"))
        # pair ids are built from the ids as strings, so 1 and "1" repeat too
        seen = set()
        for vid in (str(v["id"]) for v in volumes):
            if vid in seen:
                raise ValueError(f"manifest volume id {vid!r} is not unique")
            seen.add(vid)
        pairs = enumerate_pairs(volumes, data.get("pair_mode", "ordered"))
    ids = [p["pair_id"] for p in pairs]
    if len(set(ids)) != len(ids):
        raise ValueError("manifest pair ids are not unique")
    output_dir = data.get("output_dir")
    if not isinstance(output_dir, (str, type(None))):
        raise ValueError(f"manifest output_dir must be a string, got {output_dir!r}")
    if not pairs:
        raise ValueError(f"manifest {path} has no pairs")
    return pairs, cfg, output_dir


def _run_batch_pair(pair: dict, cfg: RegistrationConfig):
    fixed = load_volume(pair["fixed"], kind="scalar")
    moving = load_volume(pair["moving"], kind="scalar")
    fixed_labels = load_volume(pair["fixed_labels"], kind="label")
    moving_labels = load_volume(pair["moving_labels"], kind="label")
    field = register(fixed, moving, cfg)[0]  # reading [0] never warps the moving image
    warped = warp_labels(moving_labels, field)
    return evaluation.pair_result(pair["fixed"], pair["moving"], fixed_labels, warped)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def cmd_batch(args) -> int:
    pairs, cfg, output_dir = load_manifest(args.manifest)
    jobs = max(1, min(args.jobs, len(pairs)))
    # pairs run at once x search threads stay within the usable CPUs; the cap
    # lowers, never raises
    max_workers = max(1, usable_cpus() // jobs)
    if cfg.worker_count() > max_workers:
        cfg = dataclasses.replace(cfg, workers=max_workers)
    out_dir = Path(args.out_dir or output_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    results: dict[str, evaluation.PairResult] = {}
    failures: dict[str, str] = {}

    def run_one(pair):
        try:
            return pair["pair_id"], _run_batch_pair(pair, cfg), None
        except (ValueError, OSError, MemoryError) as exc:
            return pair["pair_id"], None, str(exc) or type(exc).__name__

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for pair_id, result, error in pool.map(run_one, pairs):
            if error is None:
                results[pair_id] = result
            else:
                failures[pair_id] = error
                logger.warning("pair %s failed and was excluded: %s", pair_id, error)

    if not results:
        raise ValueError("every pair failed; no report to write")
    scored = [results[pid] for pid in sorted(results)]
    report = evaluation.JcReport(scored, sorted(failures))
    evaluation.write_report(report, out_dir / "report.json")
    logger.info(
        "batch done: %d pairs scored, %d skipped, dataset mean JC %.2f",
        len(results), len(failures), report.dataset_mean,
    )
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _parse_triple(flag: str, spec: str, cast=float):
    """The three values of ``spec``, 'X,Y,Z' or one value for all three."""
    parts = spec.split(",")
    if len(parts) == 1:
        parts = parts * 3
    try:
        x, y, z = (cast(p) for p in parts)
    except ValueError:
        raise ValueError(
            f"bad {flag} {spec!r}, expected 1 or 3 comma-separated {cast.__name__} values"
        ) from None
    return x, y, z


def _synth_params() -> dict:
    """``synth.make_pair``'s keyword parameters and their defaults: each is set
    by a same-named flag that defaults as make_pair does (a tuple as X,Y,Z),
    and recorded in the meta file."""
    params = inspect.signature(synth.make_pair).parameters.values()
    return {p.name: p.default for p in params if p.default is not p.empty}


def cmd_synth(args) -> int:
    dims = _parse_triple("--dims", args.dims, int)
    params = {}
    for name, default in _synth_params().items():
        params[name] = getattr(args, name)
        if isinstance(default, tuple):
            flag = "--" + name.replace("_", "-")
            params[name] = _parse_triple(flag, params[name], type(default[0]))
    case = synth.make_pair(args.kind, dims, seed=args.seed, **params)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    for name, vol in case.items():
        save_volume(vol, f"{prefix}_{name}")
    meta = {"kind": args.kind, "dims": list(dims), "seed": args.seed, **params, "written": list(case)}
    Path(f"{prefix}_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    logger.info("synth case '%s' written under %s_*", args.kind, prefix)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxelreg",
        description="Deformable 3-D registration by discrete displacement search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_reg = sub.add_parser("register", help="register a moving volume onto a fixed one")
    p_reg.add_argument("--fixed", required=True)
    p_reg.add_argument("--moving", required=True)
    p_reg.add_argument("--config", help="JSON registration config")
    p_reg.add_argument("--out-field", required=True)
    p_reg.add_argument("--out-warped")
    p_reg.add_argument("--feature", choices=FEATURE_KINDS)
    p_reg.add_argument("--levels", help=f"override schedule: {LEVEL_FORMAT}[,...]")
    p_reg.add_argument("--memory-budget", dest="memory_budget_mb", type=int, metavar="MB")
    p_reg.add_argument("--standardize", action="store_true", default=None)
    p_reg.add_argument("--standardize-reference")
    p_reg.add_argument("--external-fixed")
    p_reg.add_argument("--external-moving")
    p_reg.set_defaults(func=cmd_register)

    p_feat = sub.add_parser("features", help="compute or ingest a feature volume")
    p_feat.add_argument("--in", dest="infile", required=True)
    p_feat.add_argument("--descriptor", required=True, choices=FEATURE_KINDS)
    p_feat.add_argument("--out", required=True)
    p_feat.add_argument("--p-low", type=float, help="intensity only (default 1)")
    p_feat.add_argument("--p-high", type=float, help="intensity only (default 99)")
    p_feat.add_argument("--zscore", action="store_true")
    p_feat.set_defaults(func=cmd_features)

    p_eval = sub.add_parser("evaluate", help="score label overlap of a registration")
    p_eval.add_argument("--fixed-labels", required=True)
    p_eval.add_argument("--warped-labels")
    p_eval.add_argument("--moving-labels")
    p_eval.add_argument("--field")
    p_eval.add_argument("--labels", help="comma-separated label list (default: all nonzero)")
    p_eval.add_argument("--out-report", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_batch = sub.add_parser("batch", help="register and evaluate every manifest pair")
    p_batch.add_argument("manifest")
    p_batch.add_argument("--jobs", type=_positive_int, default=1)
    p_batch.add_argument("--out-dir")
    p_batch.set_defaults(func=cmd_batch)

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic test case")
    p_synth.add_argument("--kind", required=True, choices=synth.SYNTH_KINDS)
    p_synth.add_argument("--dims", required=True, help="X,Y,Z or a single cube size")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--out-prefix", required=True)
    for name, default in _synth_params().items():
        if isinstance(default, tuple):
            default = ",".join(map(str, default))
        p_synth.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
