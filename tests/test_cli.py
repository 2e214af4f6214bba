"""End-to-end tests for the command-line interface and the config parser."""

import json

import numpy as np
import pytest

from qimpute.cli import _experiment_config, build_parser, main
from qimpute.config import experiment_config_from_mapping, load_kv_config
from qimpute.encoding import EmbedderVariant
from qimpute.errors import ConfigError
from qimpute.experiment import export_embeddings
from qimpute.tabular import load_csv, load_schema
from qimpute.training import load_checkpoint


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_load_kv_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment line\n"
        "dataset.kind = synthetic\n"
        "dataset.rows = 40\n"
        "\n"
        "methods = mean_mode, knn  # trailing comment\n"
        "seeds = 0, 1, 2\n"
    )
    mapping = load_kv_config(path)
    assert mapping["dataset.rows"] == "40"
    assert mapping["methods"] == "mean_mode, knn"


def test_config_duplicate_key(tmp_path):
    path = tmp_path / "dup.cfg"
    path.write_text("threads = 1\nthreads = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_kv_config(path)


def test_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        experiment_config_from_mapping({"nonsense.option": "1"})


def test_config_builds_experiment():
    config = experiment_config_from_mapping(
        {
            "dataset.rows": "40",
            "methods": "mean_mode,quantum_iqp",
            "seeds": "3,4",
            "quantum.n_qubits": "4",
            "model.d_model": "8",
            "model.n_heads": "2",
            "train.epochs": "2",
            "baseline.k": "3",
        }
    )
    assert config.n_rows == 40
    assert config.methods == ("mean_mode", "quantum_iqp")
    assert config.seeds == (3, 4)
    assert config.model.embed_dim == 4  # follows quantum.n_qubits
    assert config.train.epochs == 2
    assert config.baseline.k == 3


def test_config_bad_value():
    with pytest.raises(ConfigError, match="integer"):
        experiment_config_from_mapping({"dataset.rows": "many"})


@pytest.mark.parametrize(
    "in_file,flag,expected", [(None, None, 1), (None, "3", 3), ("2", None, 2), ("2", "1", 1)]
)
def test_threads_flag_wins_over_config_file(tmp_path, in_file, flag, expected):
    argv = ["eval"]
    if in_file is not None:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"threads = {in_file}\n")
        argv += ["--config", str(cfg)]
    if flag is not None:
        argv += ["--threads", flag]
    assert _experiment_config(build_parser().parse_args(argv)).threads == expected


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------


def test_datagen_writes_three_files(tmp_path, capsys):
    out = tmp_path / "d"
    code = main(["datagen", "--rows", "50", "--seed", "7", "--out", str(out)])
    assert code == 0
    assert (out / "data.csv").exists()
    assert (out / "truth.csv").exists()
    assert (out / "schema.txt").exists()
    assert "50 rows" in capsys.readouterr().out


def test_datagen_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["datagen", "--rows", "30", "--seed", "3", "--out", str(a)])
    main(["datagen", "--rows", "30", "--seed", "3", "--out", str(b)])
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "truth.csv").read_bytes() == (b / "truth.csv").read_bytes()


def test_mask_command(tmp_path):
    data = tmp_path / "d"
    main(["datagen", "--rows", "40", "--seed", "1", "--out", str(data)])
    out = tmp_path / "m"
    code = main([
        "mask", "--data", str(data / "data.csv"), "--schema", str(data / "schema.txt"),
        "--rate", "0.2", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    assert (out / "masked.csv").exists() and (out / "mask.csv").exists()
    mask_lines = (out / "mask.csv").read_text().strip().split("\n")
    assert len(mask_lines) == 41  # header + 40 rows


def test_train_impute_round_trip(tmp_path):
    data = tmp_path / "d"
    main(["datagen", "--rows", "30", "--seed", "2", "--out", str(data)])
    model_dir = tmp_path / "model"
    code = main([
        "train", "--data", str(data / "data.csv"), "--schema", str(data / "schema.txt"),
        "--variant", "quantum_iqp", "--seed", "2", "--out", str(model_dir),
        "--epochs", "2", "--d-model", "8", "--n-blocks", "1", "--n-heads", "2",
        "--d-ff", "16", "--n-qubits", "4",
    ])
    assert code == 0
    assert (model_dir / "model.npz").exists()
    history = json.loads((model_dir / "loss_history.json").read_text())
    assert len(history) == 2

    imp_dir = tmp_path / "imp"
    code = main([
        "impute", "--data", str(data / "data.csv"), "--schema", str(data / "schema.txt"),
        "--model", str(model_dir / "model.npz"), "--out", str(imp_dir),
    ])
    assert code == 0
    imputed = (imp_dir / "imputed.csv").read_text()
    # blood_pressure holes (MNAR) must be filled: no empty fields besides notes
    header = imputed.split("\n")[0].split(",")
    bp = header.index("blood_pressure")
    for line in imputed.strip().split("\n")[1:]:
        assert line.split(",")[bp] != ""


def test_impute_tampered_checkpoint_single_line_error(tmp_path, capsys):
    data = tmp_path / "d"
    main(["datagen", "--rows", "20", "--seed", "3", "--out", str(data)])
    model_dir = tmp_path / "model"
    main([
        "train", "--data", str(data / "data.csv"), "--schema", str(data / "schema.txt"),
        "--seed", "3", "--out", str(model_dir), "--epochs", "1", "--d-model", "8",
        "--n-blocks", "1", "--n-heads", "2", "--d-ff", "16", "--n-qubits", "4",
    ])
    path = model_dir / "model.npz"
    with np.load(path, allow_pickle=False) as archive:
        arrays = {k: archive[k] for k in archive.files}
    arrays["tensor/in_proj.w"] = np.zeros((3, 8))
    np.savez(path, **arrays)
    capsys.readouterr()
    code = main([
        "impute", "--data", str(data / "data.csv"), "--schema", str(data / "schema.txt"),
        "--model", str(path), "--out", str(tmp_path / "imp"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("qimpute: error:") and "'in_proj.w'" in err
    assert len(err.strip().split("\n")) == 1


def test_train_checkpoint_byte_identical(tmp_path):
    data = tmp_path / "d"
    main(["datagen", "--rows", "25", "--seed", "4", "--out", str(data)])
    args = [
        "train", "--data", str(data / "data.csv"), "--schema", str(data / "schema.txt"),
        "--seed", "4", "--epochs", "1", "--d-model", "8", "--n-blocks", "1",
        "--n-heads", "2", "--d-ff", "16", "--n-qubits", "4",
    ]
    a, b = tmp_path / "ma", tmp_path / "mb"
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert (a / "model.npz").read_bytes() == (b / "model.npz").read_bytes()


def eval_config_text(rows=40):
    return (
        "dataset.kind = synthetic\n"
        f"dataset.rows = {rows}\n"
        "mask.rate = 0.2\n"
        "methods = mean_mode, knn\n"
        "seeds = 0, 1\n"
        "model.d_model = 8\n"
        "model.n_blocks = 1\n"
        "model.n_heads = 2\n"
        "model.d_ff = 16\n"
        "train.epochs = 2\n"
        "quantum.n_qubits = 4\n"
    )


def test_eval_command(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(eval_config_text())
    out = tmp_path / "results"
    code = main(["eval", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["method"] for r in report["results"]] == ["mean_mode", "knn"]
    assert all(len(r["per_seed"]) == 2 for r in report["results"])
    stdout = capsys.readouterr().out
    assert "mean_mode" in stdout and "rmse" in stdout


def test_eval_reruns_byte_identical(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(eval_config_text(rows=30))
    a, b = tmp_path / "ra", tmp_path / "rb"
    main(["eval", "--config", str(cfg), "--out", str(a)])
    main(["eval", "--config", str(cfg), "--out", str(b)])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_ablate_command(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(eval_config_text(rows=30))
    out = tmp_path / "ablation"
    code = main(["ablate", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert [r["method"] for r in report["results"]] == [
        "random_projection", "classical_mlp", "quantum_iqp",
    ]


def test_export_embeddings_command(tmp_path):
    data = tmp_path / "d"
    main(["datagen", "--rows", "20", "--seed", "5", "--out", str(data)])
    out = tmp_path / "emb"
    code = main([
        "export-embeddings", "--data", str(data / "data.csv"),
        "--schema", str(data / "schema.txt"), "--label-col", "diagnosis",
        "--n-qubits", "4", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "embeddings.csv").read_text().strip().split("\n")
    assert len(lines) == 21
    assert lines[0].startswith("row_id,label,e_0")


def train_classical_mlp(tmp_path, data, seed):
    """A classical_mlp checkpoint trained on ``data`` with 4-dim text vectors."""
    cfg = tmp_path / "train.cfg"
    cfg.write_text("text.dim = 4\n")
    model_dir = tmp_path / "model"
    code = main([
        "train", "--data", str(data / "data.csv"), "--schema", str(data / "schema.txt"),
        "--variant", "classical_mlp", "--seed", str(seed), "--config", str(cfg),
        "--out", str(model_dir), "--epochs", "1", "--d-model", "8", "--n-blocks", "1",
        "--n-heads", "2", "--d-ff", "16", "--n-qubits", "4", "--n-layers", "1",
    ])
    assert code == 0
    return model_dir / "model.npz"


def test_export_embeddings_with_model_uses_the_checkpoint(tmp_path):
    trained, other = tmp_path / "d1", tmp_path / "d2"
    main(["datagen", "--rows", "30", "--seed", "6", "--out", str(trained)])
    main(["datagen", "--rows", "20", "--seed", "7", "--out", str(other)])
    model = train_classical_mlp(tmp_path, trained, seed=6)
    out = tmp_path / "emb"
    code = main([
        "export-embeddings", "--data", str(other / "data.csv"),
        "--schema", str(other / "schema.txt"), "--label-col", "diagnosis",
        "--model", str(model), "--out", str(out),
    ])
    assert code == 0
    # The checkpoint's stats, seed, qubits and layers, not the export table's
    # refit (whose text vectors are 16-wide) or the flags' defaults.
    schema = load_schema(other / "schema.txt")
    bundle = load_checkpoint(model, expected_schema=schema)
    expected = tmp_path / "expected.csv"
    export_embeddings(
        load_csv(other / "data.csv", schema), schema, bundle.stats,
        EmbedderVariant.CLASSICAL_MLP, seed=6, label_column="diagnosis", path=expected,
        n_qubits=4, n_layers=1, params=bundle.params,
    )
    assert (out / "embeddings.csv").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize(
    "flag", [["--variant", "quantum_iqp"], ["--seed", "7"], ["--n-qubits", "8"], ["--n-layers", "2"]]
)
def test_export_embeddings_flag_contradicting_the_model_is_an_error(tmp_path, capsys, flag):
    data = tmp_path / "d"
    main(["datagen", "--rows", "20", "--seed", "6", "--out", str(data)])
    model = train_classical_mlp(tmp_path, data, seed=6)
    capsys.readouterr()
    code = main([
        "export-embeddings", "--data", str(data / "data.csv"),
        "--schema", str(data / "schema.txt"), "--label-col", "diagnosis",
        "--model", str(model), "--out", str(tmp_path / "emb"), *flag,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"qimpute: error: {flag[0]} {flag[1]} contradicts the checkpoint")
    assert len(err.strip().split("\n")) == 1
    assert not (tmp_path / "emb" / "embeddings.csv").exists()


def test_unknown_flag_exits_nonzero(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["datagen", "--bogus-flag", "1"])
    assert exc.value.code != 0
    assert not (tmp_path / "data.csv").exists()  # no partial outputs


def test_runtime_error_single_line(tmp_path, capsys):
    code = main([
        "mask", "--data", str(tmp_path / "missing.csv"),
        "--schema", str(tmp_path / "missing.txt"), "--out", str(tmp_path),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("qimpute: error:")
    assert len(err.strip().split("\n")) == 1


def test_bad_config_key_reports_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery.key = 5\n")
    code = main(["eval", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "mystery.key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line",
    ["train.lr = nan", "model.n_heads = 3", "dataset.rows = 0", "seeds = -1",
     "quantum.n_qubits = 0", "quantum.n_layers = 0", "text.dim = 0", "model.d_model = 0",
     "model.d_ff = 0", "model.n_heads = 0", "baseline.ridge_lambda = nan"],
)
def test_invalid_config_value_single_line_error(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    code = main(["eval", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("qimpute: error:")
    assert len(err.strip().split("\n")) == 1
    assert not out.exists()  # rejected before any work starts


@pytest.mark.parametrize(
    "argv",
    [["datagen", "--rows", "0"], ["datagen", "--seed", "-2"], ["train", "--epochs", "0"]],
)
def test_invalid_flag_value_single_line_error(tmp_path, capsys, argv):
    data = tmp_path / "d"
    main(["datagen", "--rows", "20", "--seed", "1", "--out", str(data)])
    capsys.readouterr()
    if argv[0] == "train":
        argv = argv + ["--data", str(data / "data.csv"), "--schema", str(data / "schema.txt")]
    out = tmp_path / "o"
    code = main(argv + ["--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("qimpute: error:")
    assert len(err.strip().split("\n")) == 1
    assert not out.exists()
