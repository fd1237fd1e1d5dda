"""Command line interface: register, features, evaluate, batch, synth.

Exit codes are a stable scripting contract: 0 on success, 1 on any
runtime failure (reported as a one-line diagnostic on stderr), 2 on usage
errors (argparse). Every command is deterministic given identical inputs,
flags and seeds; batch output is independent of the worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from voxelreg import evaluation, synth
from voxelreg.features import (
    edge_features,
    load_external_features,
    normalize_intensity,
    ssc_features,
)
from voxelreg.pipeline import (
    FEATURE_KINDS,
    LevelParams,
    RegistrationConfig,
    register,
)
from voxelreg.volume import (
    VolumeError,
    load_field,
    load_volume,
    save_volume,
    warp_labels,
)

logger = logging.getLogger("voxelreg")


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

def _parse_levels(spec: str) -> tuple[LevelParams, ...]:
    """Parse 'factor:q:lmax:radius:alpha[,...]' into a level schedule."""
    levels = []
    for part in spec.split(","):
        fields = part.split(":")
        if len(fields) != 5:
            raise ValueError(f"bad level spec {part!r}, expected factor:q:lmax:radius:alpha")
        factor, q, l_max, radius, alpha = fields
        levels.append(
            LevelParams(
                factor=int(factor),
                q=float(q),
                l_max=float(l_max),
                patch_radius=int(radius),
                alpha=float(alpha),
            )
        )
    return tuple(levels)


def _config_from_args(args) -> RegistrationConfig:
    if args.config:
        cfg = RegistrationConfig.from_json(args.config)
    else:
        cfg = RegistrationConfig()

    overrides = {}
    if args.feature:
        overrides["feature"] = args.feature
    if args.levels:
        overrides["levels"] = _parse_levels(args.levels)
    if args.memory_budget is not None:
        overrides["memory_budget_mb"] = args.memory_budget
    if args.standardize:
        overrides["standardize"] = True
    if getattr(args, "standardize_reference", None):
        overrides["standardize"] = True
        overrides["standardize_reference"] = args.standardize_reference
    if getattr(args, "external_fixed", None):
        overrides["external_fixed"] = args.external_fixed
    if getattr(args, "external_moving", None):
        overrides["external_moving"] = args.external_moving
    if getattr(args, "zscore_external", False):
        overrides["zscore_external"] = True
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)

    # per-level scalar overrides apply to every level
    level_overrides = {}
    if args.q is not None:
        level_overrides["q"] = args.q
    if args.lmax is not None:
        level_overrides["l_max"] = args.lmax
    if args.alpha is not None:
        level_overrides["alpha"] = args.alpha
        level_overrides["smooth_sigma"] = None
    if args.patch_radius is not None:
        level_overrides["patch_radius"] = args.patch_radius
    if level_overrides:
        levels = tuple(dataclasses.replace(lv, **level_overrides) for lv in cfg.levels)
        cfg = dataclasses.replace(cfg, levels=levels)
    return cfg


def cmd_register(args) -> int:
    cfg = _config_from_args(args)
    fixed = load_volume(args.fixed, kind="scalar")
    moving = load_volume(args.moving, kind="scalar")
    field, warped = register(fixed, moving, cfg)
    save_volume(field, args.out_field)
    if args.out_warped:
        save_volume(warped, args.out_warped)
    logger.info("registered %s -> %s, field written to %s", args.moving, args.fixed, args.out_field)
    return 0


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def cmd_features(args) -> int:
    if args.descriptor == "external":
        fv = load_external_features(args.infile, zscore=args.zscore)
    else:
        vol = load_volume(args.infile, kind="scalar")
        if args.descriptor == "intensity":
            fv = normalize_intensity(vol, args.p_low, args.p_high)
        elif args.descriptor == "edge":
            fv = edge_features(vol)
        elif args.descriptor == "ssc":
            fv = ssc_features(vol)
        else:
            raise ValueError(f"unknown descriptor {args.descriptor!r}")
    save_volume(fv, args.out)
    logger.info("wrote %d-channel features to %s", fv.channels, args.out)
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _report_paths(out_report: str) -> tuple[Path, Path]:
    base = Path(out_report)
    if base.suffix == ".json":
        return base, base.with_suffix(".csv")
    return base.with_suffix(".json"), base.with_suffix(".csv")


def _parse_label_list(spec):
    if not spec:
        return None
    return [int(v) for v in spec.split(",")]


def cmd_evaluate(args) -> int:
    fixed_labels = load_volume(args.fixed_labels, kind="label")
    if args.warped_labels:
        warped = load_volume(args.warped_labels, kind="label")
    else:
        if not (args.moving_labels and args.field):
            raise ValueError("need --warped-labels, or --moving-labels together with --field")
        moving_labels = load_volume(args.moving_labels, kind="label")
        field = load_field(args.field)
        warped = warp_labels(moving_labels, field)
    result = evaluation.pair_result(
        args.fixed_labels, args.warped_labels or args.moving_labels,
        fixed_labels, warped, _parse_label_list(args.labels),
    )
    report = evaluation.build_report([result])
    json_path, csv_path = _report_paths(args.out_report)
    evaluation.write_report_json(report, json_path)
    evaluation.write_report_csv(report, csv_path)
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


def load_manifest(path) -> tuple[list[dict], RegistrationConfig, str | None]:
    """Parse a batch manifest; returns (pairs, config, output_dir)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot parse manifest {path}: {exc}") from exc
    cfg = RegistrationConfig.from_dict(data.get("config", {}))
    if "pairs" in data:
        pairs = data["pairs"]
    elif "volumes" in data:
        pairs = enumerate_pairs(data["volumes"], data.get("pair_mode", "ordered"))
    else:
        raise ValueError("manifest needs a 'pairs' or 'volumes' entry")
    required = {"pair_id", "fixed", "moving", "fixed_labels", "moving_labels"}
    for p in pairs:
        missing = required - set(p)
        if missing:
            raise ValueError(f"manifest pair {p.get('pair_id', '?')} missing fields {sorted(missing)}")
    ids = [p["pair_id"] for p in pairs]
    if len(set(ids)) != len(ids):
        raise ValueError("manifest pair ids are not unique")
    return pairs, cfg, data.get("output_dir")


def _run_batch_pair(pair: dict, cfg: RegistrationConfig):
    fixed = load_volume(pair["fixed"], kind="scalar")
    moving = load_volume(pair["moving"], kind="scalar")
    fixed_labels = load_volume(pair["fixed_labels"], kind="label")
    moving_labels = load_volume(pair["moving_labels"], kind="label")
    field, _ = register(fixed, moving, cfg)
    warped = warp_labels(moving_labels, field)
    label_list = sorted(set(fixed_labels.labels()) | set(moving_labels.labels()))
    mean, per_structure = evaluation.mean_jc_pair(fixed_labels, warped, label_list)
    return evaluation.PairResult(pair["fixed"], pair["moving"], per_structure, mean)


def cmd_batch(args) -> int:
    pairs, cfg, output_dir = load_manifest(args.manifest)
    out_dir = Path(args.out_dir or output_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    results: dict[str, evaluation.PairResult] = {}
    failures: dict[str, str] = {}

    def run_one(pair):
        try:
            return pair["pair_id"], _run_batch_pair(pair, cfg), None
        except (VolumeError, ValueError, OSError, MemoryError) as exc:
            return pair["pair_id"], None, str(exc) or type(exc).__name__

    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        for pair_id, result, error in pool.map(run_one, pairs):
            if error is None:
                results[pair_id] = result
            else:
                failures[pair_id] = error
                logger.warning("pair %s failed and was excluded: %s", pair_id, error)

    if not results:
        raise ValueError("every pair failed; no report to write")
    ordered_ids = sorted(results)
    report = evaluation.build_report(
        [results[pid] for pid in ordered_ids], skipped_pairs=sorted(failures)
    )
    json_path, csv_path = _report_paths(str(out_dir / "report.json"))
    evaluation.write_report_json(report, json_path)
    evaluation.write_report_csv(report, csv_path)
    logger.info(
        "batch done: %d pairs scored, %d skipped, dataset mean JC %.2f",
        len(results), len(failures), report.dataset_mean,
    )
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _parse_triple(spec: str, cast=float):
    parts = spec.split(",")
    if len(parts) == 1:
        parts = parts * 3
    if len(parts) != 3:
        raise ValueError(f"expected 1 or 3 comma-separated values, got {spec!r}")
    return tuple(cast(p) for p in parts)


def cmd_synth(args) -> int:
    dims = _parse_triple(args.dims, int)
    if min(dims) < 1:
        raise ValueError(f"bad dims {dims}")
    case = synth.make_pair(
        args.kind,
        dims,
        seed=args.seed,
        translation=_parse_triple(args.translation),
        amplitude=args.amplitude,
        period=args.period,
        num_blobs=args.num_blobs,
        min_radius=args.min_radius,
        max_radius=args.max_radius,
        noise_sigma=args.noise_sigma,
    )
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "blobs":
        save_volume(case["labels"], f"{prefix}_labels")
        written = ["labels"]
    else:
        save_volume(case["fixed"], f"{prefix}_fixed")
        save_volume(case["moving"], f"{prefix}_moving")
        save_volume(case["fixed_labels"], f"{prefix}_fixed_labels")
        save_volume(case["moving_labels"], f"{prefix}_moving_labels")
        save_volume(case["field"], f"{prefix}_field")
        written = ["fixed", "moving", "fixed_labels", "moving_labels", "field"]
    meta = {
        "kind": args.kind,
        "dims": list(dims),
        "seed": args.seed,
        "translation": list(_parse_triple(args.translation)),
        "amplitude": args.amplitude,
        "period": args.period,
        "num_blobs": args.num_blobs,
        "min_radius": args.min_radius,
        "max_radius": args.max_radius,
        "noise_sigma": args.noise_sigma,
        "written": written,
    }
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
    p_reg.add_argument("--levels", help="override schedule: factor:q:lmax:radius:alpha[,...]")
    p_reg.add_argument("--q", type=float)
    p_reg.add_argument("--lmax", type=float)
    p_reg.add_argument("--alpha", type=float)
    p_reg.add_argument("--patch-radius", type=int)
    p_reg.add_argument("--memory-budget", type=int, metavar="MB")
    p_reg.add_argument("--standardize", action="store_true")
    p_reg.add_argument("--standardize-reference")
    p_reg.add_argument("--external-fixed")
    p_reg.add_argument("--external-moving")
    p_reg.add_argument("--zscore-external", action="store_true")
    p_reg.set_defaults(func=cmd_register)

    p_feat = sub.add_parser("features", help="compute or ingest a feature volume")
    p_feat.add_argument("--in", dest="infile", required=True)
    p_feat.add_argument("--descriptor", required=True, choices=FEATURE_KINDS)
    p_feat.add_argument("--out", required=True)
    p_feat.add_argument("--p-low", type=float, default=1.0)
    p_feat.add_argument("--p-high", type=float, default=99.0)
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
    p_batch.add_argument("--jobs", type=int, default=1)
    p_batch.add_argument("--out-dir")
    p_batch.set_defaults(func=cmd_batch)

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic test case")
    p_synth.add_argument("--kind", required=True, choices=synth.SYNTH_KINDS)
    p_synth.add_argument("--dims", required=True, help="X,Y,Z or a single cube size")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--out-prefix", required=True)
    p_synth.add_argument("--translation", default="2,0,0")
    p_synth.add_argument("--amplitude", type=float, default=3.0)
    p_synth.add_argument("--period", type=float, default=32.0)
    p_synth.add_argument("--num-blobs", type=int, default=24)
    p_synth.add_argument("--min-radius", type=float, default=3.0)
    p_synth.add_argument("--max-radius", type=float, default=6.0)
    p_synth.add_argument("--noise-sigma", type=float, default=2.5)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s: %(message)s")
    try:
        return args.func(args)
    except (VolumeError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
