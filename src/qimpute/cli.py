"""Command-line entry point: qimpute <subcommand>.

Subcommands cover the whole pipeline: ``datagen`` (synthetic healthcare
data), ``mask`` (MCAR injection), ``train``, ``impute``, ``eval`` (the
benchmark harness), ``ablate`` (embedding-variant ablation), and
``export-embeddings``. Every run is fully specified by flags plus an
optional key=value config file (flags win); there are no prompts. All
randomness flows from --seed through named substreams. Failures exit
nonzero with a single ``qimpute: error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .config import experiment_config_from_mapping, load_kv_config
from .encoding import CellEmbedder, EmbedderVariant, fit_preprocessor
from .errors import ConfigError, QimputeError
from .experiment import (
    ExperimentConfig,
    ablation_suite,
    export_embeddings,
    run_experiment,
)
from .model import ModelConfig
from .tabular import (
    apply_mask,
    empty_mask,
    inject_mcar,
    load_csv,
    load_schema,
    missing_mask,
    save_csv,
    save_mask,
    save_schema,
)
from .training import (
    CheckpointBundle,
    TrainConfig,
    impute_table,
    load_checkpoint,
    save_checkpoint,
    train,
)

VARIANTS = tuple(v.value for v in EmbedderVariant)
# export-embeddings' embedder recipe without --model; with it, the checkpoint's.
_EXPORT_DEFAULTS = {"variant": "quantum_iqp", "seed": 0, "n_qubits": 8, "n_layers": 2}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument("--config", type=Path, help="key=value config file")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    parser.add_argument(
        "--threads", type=int,
        help="parallel (method, seed) workers for eval/ablate; overrides the config file "
        "(default 1); reruns at one value are byte-identical, transformer scores may "
        "differ in the last digits between 1 and >1",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qimpute",
        description="Quantum-circuit cell embeddings + masked-transformer imputation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate the synthetic healthcare dataset")
    p.add_argument("--rows", type=int, default=1000, dest="n_rows")
    _add_common(p)

    p = sub.add_parser("mask", help="inject MCAR missingness into a CSV")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--schema", type=Path, required=True)
    p.add_argument("--rate", type=float, default=0.2)
    _add_common(p)

    p = sub.add_parser("train", help="train the transformer imputer")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--schema", type=Path, required=True)
    p.add_argument("--variant", choices=VARIANTS, default="quantum_iqp")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--mask-rate", type=float)
    p.add_argument("--d-model", type=int)
    p.add_argument("--n-blocks", type=int)
    p.add_argument("--n-heads", type=int)
    p.add_argument("--d-ff", type=int)
    p.add_argument("--n-qubits", type=int)
    p.add_argument("--n-layers", type=int)
    _add_common(p)

    p = sub.add_parser("impute", help="fill missing cells with a trained model")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--schema", type=Path, required=True)
    p.add_argument("--model", type=Path, required=True)
    _add_common(p)

    p = sub.add_parser("eval", help="run the benchmark harness from a config file")
    _add_common(p)

    p = sub.add_parser("ablate", help="embedding-variant ablation on identical masks")
    _add_common(p)

    p = sub.add_parser("export-embeddings", help="write labeled embedding CSV")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--schema", type=Path, required=True)
    p.add_argument(
        "--variant", choices=VARIANTS, help=f"default {_EXPORT_DEFAULTS['variant']}"
    )
    p.add_argument("--label-col", required=True)
    p.add_argument("--mode", choices=("row_mean", "cell"), default="row_mean")
    p.add_argument(
        "--model", type=Path,
        help="checkpoint (required for classical_mlp); its stats, variant, seed, "
        "qubits and layers are used, and a flag that contradicts them is an error",
    )
    p.add_argument("--n-qubits", type=int, help=f"default {_EXPORT_DEFAULTS['n_qubits']}")
    p.add_argument("--n-layers", type=int, help=f"default {_EXPORT_DEFAULTS['n_layers']}")
    _add_common(p)
    # None marks a flag not given, so that it can be checked against --model.
    p.set_defaults(**dict.fromkeys(_EXPORT_DEFAULTS))

    return parser


def _experiment_config(args) -> ExperimentConfig:
    mapping = load_kv_config(args.config) if args.config else {}
    config = experiment_config_from_mapping(mapping)
    if args.threads is not None:
        config = replace(config, threads=args.threads)
    return config


def _cmd_datagen(args) -> int:
    from .datasets import synth_healthcare_generate

    data = synth_healthcare_generate(args.n_rows, seed=args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    save_csv(data.table, args.out / "data.csv")
    save_csv(data.truth, args.out / "truth.csv")
    save_schema(data.schema, args.out / "schema.txt")
    print(f"wrote {args.out / 'data.csv'} ({data.table.n_rows} rows, "
          f"{data.schema.n_columns} columns), truth.csv, schema.txt")
    return 0


def _cmd_mask(args) -> int:
    schema = load_schema(args.schema)
    table = load_csv(args.data, schema)
    mask = inject_mcar(table, args.rate, seed=args.seed)
    masked = apply_mask(table, mask)
    args.out.mkdir(parents=True, exist_ok=True)
    save_csv(masked, args.out / "masked.csv")
    save_mask(mask, schema, args.out / "mask.csv")
    print(f"masked {mask.count} cells at rate {args.rate}; wrote masked.csv, mask.csv")
    return 0


def _train_configs(args) -> tuple[ModelConfig, TrainConfig, int, int, int]:
    """Merge config-file keys with CLI flags (flags win) for the train command."""
    base = _experiment_config(args)
    n_qubits = args.n_qubits if args.n_qubits is not None else base.n_qubits
    n_layers = args.n_layers if args.n_layers is not None else base.n_layers
    model = base.model
    model_overrides = {
        "d_model": args.d_model,
        "n_blocks": args.n_blocks,
        "n_heads": args.n_heads,
        "d_ff": args.d_ff,
    }
    model_overrides = {k: v for k, v in model_overrides.items() if v is not None}
    model = replace(model, embed_dim=n_qubits, **model_overrides)
    train_overrides = {
        "learning_rate": args.lr,
        "epochs": args.epochs,
        "batch_size": args.batch_size,
        "mask_rate": args.mask_rate,
    }
    train_overrides = {k: v for k, v in train_overrides.items() if v is not None}
    train_config = replace(base.train, seed=args.seed, **train_overrides)
    return model, train_config, n_qubits, n_layers, base.text_dim


def _cmd_train(args) -> int:
    schema = load_schema(args.schema)
    table = load_csv(args.data, schema)
    model_config, train_config, n_qubits, n_layers, text_dim = _train_configs(args)
    stats = fit_preprocessor(table, schema, text_dim=text_dim)
    variant = EmbedderVariant(args.variant)
    embedder = CellEmbedder(
        schema, stats, variant, seed=args.seed, n_qubits=n_qubits, n_layers=n_layers
    )
    result = train(table, empty_mask(table), schema, stats, embedder, model_config, train_config)
    args.out.mkdir(parents=True, exist_ok=True)
    bundle = CheckpointBundle(
        params=result.params,
        stats=stats,
        schema=schema,
        variant=variant,
        embed_seed=args.seed,
        n_qubits=n_qubits,
        n_layers=n_layers,
        text_dim=text_dim,
    )
    save_checkpoint(args.out / "model.npz", bundle)
    with open(args.out / "loss_history.json", "w", encoding="utf-8") as fh:
        json.dump(result.loss_history, fh, indent=2)
        fh.write("\n")
    print(
        f"trained {result.params.n_parameters} parameters for {train_config.epochs} "
        f"epochs; final loss {result.loss_history[-1]:.6f}; wrote model.npz"
    )
    return 0


def _cmd_impute(args) -> int:
    schema = load_schema(args.schema)
    table = load_csv(args.data, schema)
    bundle = load_checkpoint(args.model, expected_schema=schema)
    embedder = bundle.build_embedder()
    completed = impute_table(
        table, empty_mask(table), schema, bundle.stats, embedder, bundle.params
    )
    args.out.mkdir(parents=True, exist_ok=True)
    save_csv(completed, args.out / "imputed.csv")
    filled = missing_mask(table).count - missing_mask(completed).count
    print(f"imputed {filled} cells; wrote {args.out / 'imputed.csv'}")
    return 0


def _cmd_eval(args) -> int:
    config = _experiment_config(args)
    report = run_experiment(config, out_dir=args.out)
    print(report.human_table())
    print(f"wrote {args.out / 'report.json'} and timings.json")
    return 0


def _cmd_ablate(args) -> int:
    config = _experiment_config(args)
    report = ablation_suite(config, out_dir=args.out)
    print(report.human_table())
    print(f"wrote {args.out / 'report.json'} and timings.json")
    return 0


def _cmd_export(args) -> int:
    schema = load_schema(args.schema)
    table = load_csv(args.data, schema)
    flags = {key: getattr(args, key) for key in _EXPORT_DEFAULTS}
    if args.model is None:
        stats, params = fit_preprocessor(table, schema), None
        recipe = dict(_EXPORT_DEFAULTS)
    else:
        # Embed as the model was trained: its stats and embedder recipe.
        bundle = load_checkpoint(args.model, expected_schema=schema)
        stats, params = bundle.stats, bundle.params
        recipe = {
            "variant": bundle.variant.value,
            "seed": bundle.embed_seed,
            "n_qubits": bundle.n_qubits,
            "n_layers": bundle.n_layers,
        }
        for key, flag in flags.items():
            if flag is not None and flag != recipe[key]:
                raise ConfigError(
                    f"--{key.replace('_', '-')} {flag} contradicts the checkpoint "
                    f"{args.model}, which was trained with {recipe[key]}"
                )
    recipe.update({key: flag for key, flag in flags.items() if flag is not None})
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "embeddings.csv"
    export_embeddings(
        table, schema, stats, EmbedderVariant(recipe["variant"]),
        seed=recipe["seed"], label_column=args.label_col, path=path, mode=args.mode,
        n_qubits=recipe["n_qubits"], n_layers=recipe["n_layers"], params=params,
    )
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "datagen": _cmd_datagen,
    "mask": _cmd_mask,
    "train": _cmd_train,
    "impute": _cmd_impute,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "export-embeddings": _cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    try:
        return _COMMANDS[args.command](args)
    except QimputeError as exc:
        print(f"qimpute: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"qimpute: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
