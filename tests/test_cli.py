"""Config parsing, subcommands, exit codes, and end-to-end determinism."""

import csv
import os
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mgcnn.cli import RunConfig, config_hash, main, parse_config
from mgcnn.data import ModelFile, load_model, save_model
from mgcnn.errors import ConfigError
from mgcnn.grid import Grid2D
from mgcnn.network import Classifier, random_network_params, zero_classifier

from oracles import dense_circulant, rel_err, write_idx_images, write_idx_labels

ROOT = Path(__file__).resolve().parent.parent
HELP = {f.name: f.metadata["help"] for f in fields(RunConfig)}
CONFIG_DIR = ROOT / "configs"

FAST_TRAIN = """
dataset = bars
num_examples = 80
grid_nx = 8
grid_ny = 8
layers = 2
final_time = 0.5
channels = 2
outer_iters = 10
newton_steps = 3
lambda_w = 0.01
lambda_theta = 0.01
seed = 0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def identity_model(grid_n=8, channels=2, num_layers=2, dt=1.0):
    params = random_network_params(channels=channels, num_layers=num_layers,
                                   final_time=dt * num_layers)
    w = np.zeros((channels, channels, 3, 3))
    for c in range(channels):
        w[c, c, 1, 1] = 1.0
    for b in params.banks:
        b.weights[:] = w
    clf = zero_classifier(Grid2D(grid_n, grid_n, 1.0), channels, 2)
    return ModelFile(params, clf)


class TestParseConfig:
    def test_defaults_without_file(self):
        cfg = parse_config(None)
        assert cfg == RunConfig()

    def test_typed_values_and_comments(self, tmp_path):
        path = write_cfg(tmp_path, """
        # comment line
        dataset = blobs
        num_examples = 123   # trailing comment
        noise = 0.25
        embed_learnable = yes

        depths = 2,4,8
        """)
        cfg = parse_config(path)
        assert cfg.dataset == "blobs"
        assert cfg.num_examples == 123
        assert cfg.noise == 0.25
        assert cfg.embed_learnable is True
        assert cfg.depths == (2, 4, 8)

    def test_unknown_key_fatal(self, tmp_path):
        path = write_cfg(tmp_path, "learning_rate = 0.1\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config(path)

    def test_bad_value_fatal(self, tmp_path):
        path = write_cfg(tmp_path, "outer_iters = several\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_equals_fatal(self, tmp_path):
        path = write_cfg(tmp_path, "outer_iters 5\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_file_fatal(self):
        with pytest.raises(ConfigError):
            parse_config("/no/such/config.cfg")

    def test_overrides_win(self, tmp_path):
        path = write_cfg(tmp_path, "seed = 3\n")
        assert parse_config(path, {"seed": 9}).seed == 9

    def test_bundled_configs_parse(self):
        for name in ("bars.cfg", "blobs.cfg", "mnist.cfg"):
            cfg = parse_config(str(CONFIG_DIR / name))
            assert config_hash(cfg)

    def test_help_lists_every_config_key(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for key in RunConfig.__dataclass_fields__:
            assert key in text
            assert HELP[key] in text, key

    def test_help_matches_the_readme_config_table(self):
        lines = (ROOT / "README.md").read_text().splitlines()
        start = lines.index("| key | default | meaning |") + 2
        rows = {}
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            keys, _, meaning = (cell.strip().replace("`", "") for cell in line.strip("|").split("|"))
            rows[tuple(keys.split(", "))] = meaning
        assert sorted(k for keys in rows for k in keys) == sorted(HELP)
        assert set(HELP) == set(RunConfig.__dataclass_fields__)
        for keys, meaning in rows.items():
            for key in keys:
                # a row shared by several keys gives their common meaning
                if len(keys) == 1:
                    assert HELP[key] == meaning, key
                else:
                    assert HELP[key].startswith(meaning + " "), key


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_TRAIN)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def test_config_error_is_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "no_such_key = 1\n")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "no_such_key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("outer_iters", "-1"),
        ("newton_steps", "-1"),
        ("batch_size", "-5"),
        ("layers", "0"),
        ("channels", "0"),
        ("step_size", "nan"),
        ("step_size", "inf"),
        ("step_size", "0"),
        ("step_size", "-1"),
        ("kernel", "4"),
        ("kernel", "0"),
        ("kernel", "9"),  # odd, but wider than the 8x8 grid
        ("train_fraction", "1.5"),
        ("train_fraction", "0"),
        ("num_examples", "1"),
        ("grid_h", "-1"),
        ("grid_h", "1e200"),  # h^2 overflows
        ("grid_h", "1e-200"),  # h^2 underflows to 0: the classifier sees no features
        ("grid_nx", "0"),
        ("final_time", "0"),
        ("activation", "relu"),
        ("dataset", "mnist"),
        ("transfer", "bogus"),
        ("step_rule", "newton"),
        ("act_gain", "nan"),
        ("init_scale", "-1"),
        ("noise", "-1"),
        ("lambda_w", "-1"),
        ("lambda_theta", "-1"),
        ("armijo_beta", "1.5"),
        ("armijo_c", "0"),
        ("limit", "-1"),
        ("seed", "-1"),
        ("blur_sigma", "-1"),
        ("levels", "-1"),
        ("levels", "5"),  # 8 -> 4 -> 2 -> 1 -> odd
        ("levels", "2"),  # 8 -> 4 -> 2, narrower than the 3x3 kernel
        ("level_iters", "5,-1"),
        ("depths", "4,2"),
        ("depths", "2,3"),
        ("depths", "0,2"),
    ])
    def test_out_of_range_value_is_two_and_named(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path, FAST_TRAIN + f"{key} = {value}\n")
        # levels is checked against the loaded grid, which only multilevel reads
        command = "multilevel" if key == "levels" else "train"
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("extra", [
        "train_fraction = 0.001\n",
        "num_examples = 2\ntrain_fraction = 0.9\n",
        "limit = 1\n",
    ], ids=["fraction-0.001", "two-examples", "limit-1"])
    def test_empty_split_part_is_two_and_named(self, tmp_path, capsys, extra):
        cfg = write_cfg(tmp_path, FAST_TRAIN + extra)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "train_fraction" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_coarsest_pixel_area_overflow_is_two_and_named(self, tmp_path, capsys):
        # h^2 = 1e308 is finite on the finest grid, but not at 2h one level down
        cfg = write_cfg(tmp_path, FAST_TRAIN + "grid_h = 1e154\nlevels = 1\n")
        assert main(["multilevel", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "grid_h" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_is_two_and_named(self, tmp_path, capsys, workers):
        cfg = write_cfg(tmp_path, FAST_TRAIN)
        assert main(["train", "--config", cfg, "--workers", workers,
                     "--out", str(tmp_path / "o")]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_one_class_idx_labels_is_three_and_named(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        write_idx_images(tmp_path / "images.idx", rng.integers(0, 256, size=(20, 8, 8)))
        write_idx_labels(tmp_path / "labels.idx", np.zeros(20, dtype=np.uint8))
        cfg = write_cfg(tmp_path, f"""
        dataset = idx
        idx_images = {tmp_path / 'images.idx'}
        idx_labels = {tmp_path / 'labels.idx'}
        outer_iters = 1
        """)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "idx_labels" in err and "1 class" in err
        assert not (tmp_path / "o").exists()

    def test_missing_data_path_is_three_and_named(self, tmp_path, capsys):
        missing = tmp_path / "absent-images.idx"
        cfg = write_cfg(tmp_path, f"""
        dataset = idx
        idx_images = {missing}
        idx_labels = {tmp_path / 'absent-labels.idx'}
        """)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert str(missing) in capsys.readouterr().err

    # An image header (count, rows, cols) over 4 images of 28x28 pixels.  A
    # negative count must not read the payload backwards from the end of the
    # file, and (2^31 - 1)^3 must not wrap in the truncation message.
    @pytest.mark.parametrize("dims, named", [
        ((4, 0, 28), "(0, 28)"),
        ((4, 28, 0), "(28, 0)"),
        ((-1, 28, 28), "(-1, 28, 28)"),
        ((4, 28, -28), "(4, 28, -28)"),
        ((2**31 - 1,) * 3, str((2**31 - 1) ** 3)),
    ], ids=["zero-rows", "zero-cols", "negative-count", "negative-cols", "huge"])
    def test_bad_idx_image_dimensions_are_three_and_named(self, tmp_path, capsys, dims, named):
        images = tmp_path / "images.idx"
        images.write_bytes(struct.pack(">4i", 0x00000803, *dims) + bytes(4 * 28 * 28))
        write_idx_labels(tmp_path / "labels.idx", np.array([0, 1, 0, 1]))
        cfg = write_cfg(tmp_path, f"""
        dataset = idx
        idx_images = {images}
        idx_labels = {tmp_path / 'labels.idx'}
        """)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert str(images) in err and named in err

    def test_numerical_failure_is_four(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, """
        dataset = bars
        num_examples = 20
        grid_nx = 8
        grid_ny = 8
        activation = identity
        init_scale = 1e40
        layers = 8
        final_time = 8.0
        outer_iters = 1
        """)
        # multilevel takes its coarsest level's warm initial loss from
        # training; deepen's first depth propagates to finite features so
        # large that the Newton gradient overflows
        for command in ("train", "multilevel", "deepen"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 4
            assert "numerical" in capsys.readouterr().err

    def test_odd_grid_adapt_is_nonzero(self, tmp_path):
        model_path = tmp_path / "odd.bin"
        params = random_network_params(channels=1, num_layers=1, final_time=1.0)
        save_model(str(model_path),
                   ModelFile(params, zero_classifier(Grid2D(7, 7, 1.0), 1, 2)))
        code = main(["adapt", "--model", str(model_path), "--direction", "coarsen",
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_adapt_below_the_stencil_width_is_nonzero(self, tmp_path, capsys):
        # 4x4 coarsens to 2x2, where no 3x3 stencil fits: the model could
        # not run, so it is refused before anything is written.
        model_path = tmp_path / "small.bin"
        params = random_network_params(channels=2, num_layers=2, final_time=1.0)
        save_model(str(model_path),
                   ModelFile(params, zero_classifier(Grid2D(4, 4, 1.0), 2, 2)))
        out = tmp_path / "o"
        code = main(["adapt", "--model", str(model_path), "--direction", "coarsen",
                     "--out", str(out)])
        assert code == 1
        assert "grid 2x2 is smaller than the 3x3 stencil" in capsys.readouterr().err
        assert not (out / "model.bin").exists()


class TestTrainCommand:
    def test_outputs_and_row_count(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_TRAIN)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "history.csv").read_text().splitlines()
        assert len(lines) == 11  # header + one row per iteration
        assert lines[0].startswith("iter,loss,")
        model = load_model(str(out / "model.bin"))
        assert model.provenance["schedule"] == [{"level": 0, "iterations": 10}]
        assert model.provenance["seed"] == 0

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_TRAIN)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--seed", "7",
                     "--out", str(out)]) == 0
        assert load_model(str(out / "model.bin")).provenance["seed"] == 7

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_TRAIN)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--config", cfg, "--sequential",
                         "--out", str(out)]) == 0
            blobs.append(((out / "history.csv").read_bytes(),
                          (out / "model.bin").read_bytes()))
        assert blobs[0] == blobs[1]


class TestAdaptCommand:
    def test_identity_model_coarsens_to_identity(self, tmp_path):
        src = tmp_path / "id.bin"
        save_model(str(src), identity_model())
        out = tmp_path / "coarse"
        assert main(["adapt", "--model", str(src), "--direction", "coarsen",
                     "--out", str(out)]) == 0
        model = load_model(str(out / "model.bin"))
        want = np.zeros((2, 2, 3, 3))
        want[0, 0, 1, 1] = want[1, 1, 1, 1] = 1.0
        for b in model.params.banks:
            assert rel_err(b.weights, want) <= 1e-12
        assert model.classifier.grid.shape == (4, 4)
        assert model.provenance["adapted"]["direction"] == "coarsen"

    def test_coarsen_then_refine_round_trip(self, tmp_path):
        src = tmp_path / "m.bin"
        rng = np.random.default_rng(0)
        params = random_network_params(channels=2, num_layers=2, final_time=1.0,
                                       seed=1, init_scale=0.4)
        for b in params.banks:
            b.weights[:] = rng.normal(size=b.weights.shape)
        clf = Classifier(Grid2D(8, 8, 1.0), rng.normal(size=(2, 2, 8, 8)),
                         rng.normal(size=2))
        save_model(str(src), ModelFile(params, clf))
        mid, back = tmp_path / "mid", tmp_path / "back"
        assert main(["adapt", "--model", str(src), "--direction", "coarsen",
                     "--out", str(mid)]) == 0
        assert main(["adapt", "--model", str(mid / "model.bin"),
                     "--direction", "refine", "--out", str(back)]) == 0
        restored = load_model(str(back / "model.bin"))
        for b0, b1 in zip(params.banks, restored.params.banks):
            assert rel_err(b1.weights, b0.weights) <= 1e-10
        assert restored.classifier.grid.shape == (8, 8)


MULTILEVEL_CFG = """
dataset = bars
num_examples = 600
grid_nx = 12
grid_ny = 12
noise = 0.4
layers = 4
final_time = 0.5
channels = 2
activation = identity
init_scale = 0.3
lambda_w = 0.7
lambda_theta = 1e-3
newton_steps = 3
levels = 1
blur_sigma = 0.0
transfer = constant
level_iters = 15,40
seed = 0
"""


class TestMultilevelCommand:
    def test_degenerate_pyramid_matches_train_bit_for_bit(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_TRAIN + "levels = 0\n")
        t_out, m_out = tmp_path / "t", tmp_path / "m"
        assert main(["train", "--config", cfg, "--out", str(t_out)]) == 0
        assert main(["multilevel", "--config", cfg, "--out", str(m_out)]) == 0
        assert (m_out / "history_level0.csv").read_bytes() == \
            (t_out / "history.csv").read_bytes()
        assert (m_out / "model.bin").read_bytes() == (t_out / "model.bin").read_bytes()

    def test_two_level_run_warm_start_beats_cold(self, tmp_path):
        cfg = write_cfg(tmp_path, MULTILEVEL_CFG)
        out = tmp_path / "ml"
        assert main(["multilevel", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines[0].startswith("level,init_loss_warm,init_loss_cold,")
        rows = {int(r.split(",")[0]): r.split(",") for r in lines[1:]}
        assert set(rows) == {0, 1}
        warm0, cold0 = float(rows[0][1]), float(rows[0][2])
        assert warm0 < cold0
        assert (out / "history_level0.csv").exists()
        assert (out / "history_level1.csv").exists()
        assert [int(r.split(",")[4]) for r in lines[1:]] == [40, 15]

    def test_level_iters_length_mismatch_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_TRAIN + "levels = 1\nlevel_iters = 5\n")
        assert main(["multilevel", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestDeepenCommand:
    def test_single_depth_matches_train(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_TRAIN + "depths = 2\n")
        t_out, d_out = tmp_path / "t", tmp_path / "d"
        assert main(["train", "--config", cfg, "--out", str(t_out)]) == 0
        assert main(["deepen", "--config", cfg, "--out", str(d_out)]) == 0
        assert (d_out / "history_depth2.csv").read_bytes() == \
            (t_out / "history.csv").read_bytes()
        a = load_model(str(t_out / "model.bin"))
        b = load_model(str(d_out / "model.bin"))
        for b0, b1 in zip(a.params.banks, b.params.banks):
            np.testing.assert_array_equal(b0.weights, b1.weights)
        np.testing.assert_array_equal(a.classifier.weights, b.classifier.weights)

    def test_two_depths_emit_cold_control(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_TRAIN + "depths = 2,4\n")
        out = tmp_path / "deep"
        assert main(["deepen", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "history_depth2.csv").exists()
        assert (out / "history_depth4.csv").exists()
        assert (out / "history_depth4_cold.csv").exists()
        assert not (out / "history_depth2_cold.csv").exists()
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 3
        final = load_model(str(out / "model.bin"))
        assert final.params.num_layers == 4


# per chain command: stage label, extra config, and the expected schedule
STAGE_RUNS = {
    "multilevel": ("level", "levels = 1\nlevel_iters = 2,3\n", [(1, 3), (0, 2)]),
    "deepen": ("depth", "depths = 2,4\nouter_iters = 3\n", [(2, 3), (4, 3)]),
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestStageOutputs:
    """The files a chain writes per stage agree with each other."""

    @pytest.mark.parametrize("command", sorted(STAGE_RUNS))
    def test_summary_schedule_and_histories_agree(self, tmp_path, command):
        label, extra, stages = STAGE_RUNS[command]
        cfg = write_cfg(tmp_path, FAST_TRAIN + extra)
        out = tmp_path / command
        assert main([command, "--config", cfg, "--sequential", "--out", str(out)]) == 0
        summary = read_csv(out / "summary.csv")
        assert [(int(r[label]), int(r["iterations"])) for r in summary] == stages
        schedule = load_model(str(out / "model.bin")).provenance["schedule"]
        assert schedule == [{label: i, "iterations": n} for i, n in stages]
        for row in summary:
            history = read_csv(out / f"history_{label}{row[label]}.csv")
            assert len(history) == int(row["iterations"])
            assert float(row["final_acc"]) == float(history[-1]["val_acc"])
        # a cold control trains beside every depth after the first
        cold = sorted(p.name for p in out.glob("*_cold.csv"))
        want = [f"history_depth{i}_cold.csv" for i, _ in stages[1:]] if command == "deepen" else []
        assert cold == want
        for name in cold:
            assert len(read_csv(out / name)) == 3


# 528 training images: three 256-example chunks, so --workers 2 runs them on
# two threads, and a sum over the chunks in another order would move bits.
THREE_CHUNKS = """
dataset = {dataset}
num_examples = 660
grid_nx = 12
grid_ny = 12
layers = 2
final_time = 1.0
channels = 2
outer_iters = 2
newton_steps = 2
levels = 1
level_iters = 2,2
depths = 1,2
seed = 0
"""


class TestWorkerCount:
    """At a fixed BLAS thread count every worker count writes the same bytes."""

    @pytest.mark.parametrize("command, dataset, extra", [
        pytest.param("train", "bars", "", id="train-bars"),
        pytest.param("deepen", "bars", "", id="deepen-bars"),
        pytest.param("multilevel", "blobs", "", id="multilevel-blobs"),
        # minibatches of 500: the warm levels' initial losses splice the
        # gradient pass's logits with a pass over the other 28 examples
        pytest.param("multilevel", "blobs", "batch_size = 500\n", id="multilevel-blobs-minibatch"),
    ])
    def test_two_workers_write_the_sequential_bytes(self, tmp_path, command, dataset, extra):
        cfg = write_cfg(tmp_path, THREE_CHUNKS.format(dataset=dataset) + extra)
        # BLAS threads are fixed when numpy loads, so each run is its own process
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        written = []
        for mode in (["--sequential"], ["--workers", "2"]):
            out = tmp_path / mode[-1].strip("-")
            subprocess.run([sys.executable, "-m", "mgcnn.cli", command, "--config", cfg, *mode,
                            "--out", str(out)], env=env, check=True, timeout=300)
            files = sorted([*out.glob("history*.csv"), out / "model.bin"])
            written.append({p.name: p.read_bytes() for p in files})
            if command != "train":  # summary.csv: every column but the wall-clock seconds
                written[-1]["summary"] = [{k: v for k, v in row.items() if k != "wall_seconds"}
                                          for row in read_csv(out / "summary.csv")]
        assert written[0] == written[1]


class TestInspectCommand:
    def test_zero_model_reports_zero_spectrum(self, tmp_path, capsys):
        path = tmp_path / "z.bin"
        params = random_network_params(channels=2, num_layers=2, final_time=1.0)
        for b in params.banks:
            b.weights[:] = 0.0
        save_model(str(path), ModelFile(params, zero_classifier(Grid2D(8, 8, 1.0), 2, 2)))
        assert main(["inspect", "--model", str(path)]) == 0
        table = [l.split() for l in capsys.readouterr().out.splitlines()[3:]]
        for row in table:
            assert float(row[1]) == 0.0   # max Re(lambda)
            assert float(row[2]) == 1.0   # |1 + dt*lambda|
            assert float(row[3]) == 0.0   # bank norm

    def test_identity_model_doubles_per_layer(self, tmp_path, capsys):
        path = tmp_path / "i.bin"
        save_model(str(path), identity_model(dt=1.0))
        assert main(["inspect", "--model", str(path)]) == 0
        table = [l.split() for l in capsys.readouterr().out.splitlines()[3:]]
        for row in table:
            assert float(row[1]) == 1.0
            assert float(row[2]) == 2.0

    def test_report_matches_direct_stability_report(self, tmp_path, capsys):
        # the spectrum of the whole channel-coupled operator, built densely
        rng = np.random.default_rng(5)
        path = tmp_path / "r.bin"
        params = random_network_params(channels=2, num_layers=3, final_time=1.5,
                                       seed=5, init_scale=0.4)
        for b in params.banks:
            b.weights[:] = rng.normal(size=b.weights.shape)
        grid = Grid2D(8, 8, 1.0)
        save_model(str(path), ModelFile(params, zero_classifier(grid, 2, 2)))
        assert main(["inspect", "--model", str(path)]) == 0
        table = [l.split() for l in capsys.readouterr().out.splitlines()[3:]]
        assert len(table) == 3
        n = grid.ncells
        for i, row in enumerate(table):
            w = params.banks[i].weights
            op = np.block([[dense_circulant(w[a, b], grid.ny, grid.nx) for b in range(2)]
                           for a in range(2)])
            assert op.shape == (2 * n, 2 * n)
            lam = np.linalg.eigvals(op)
            want_real = float(lam.real.max())
            want_growth = float(np.abs(1.0 + params.dt * lam).max())
            assert abs(float(row[1]) - want_real) <= 1e-5 * max(1.0, abs(want_real))
            assert abs(float(row[2]) - want_growth) <= 1e-5 * max(1.0, abs(want_growth))
