import csv
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fisherflow import cli, tasks, training
from fisherflow.config import RunConfig, parse_config_text
from fisherflow.training import RefineConfig

from helpers import REFUSED_SETTINGS


def run_cli(*argv):
    return cli.main(list(argv))


FAST_TRAIN = [
    "--set", "train.steps=40", "--set", "train.flow_steps=80",
    "--set", "train.batch_size=64", "--set", "train.hidden=16,16",
    "--set", "train.eval_samples=200", "--set", "train.log_interval=10",
    "--set", "data.size=512",
]


def test_gen_data_unknown_task_is_usage_error(tmp_path, capsys):
    code = run_cli("gen-data", "--task", "nope", "--out", str(tmp_path / "d.txt"))
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_gen_data_seed_repeat_identical_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run_cli("gen-data", "--task", "bimodal_asymmetric", "--size", "128",
                   "--seed", "3", "--out", str(a)) == 0
    assert run_cli("gen-data", "--task", "bimodal_asymmetric", "--size", "128",
                   "--seed", "3", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_data_row_count(tmp_path):
    out = tmp_path / "d.txt"
    assert run_cli("gen-data", "--task", "crescent", "--size", "77", "--seed", "0",
                   "--out", str(out)) == 0
    from fisherflow import tasks
    assert len(tasks.load_dataset(out)) == 77


def test_train_writes_artifacts_and_reruns_identically(tmp_path):
    out1 = tmp_path / "r1"
    assert run_cli("train", "--seed", "4", "--out", str(out1), *FAST_TRAIN) == 0
    for name in ("config.txt", "metrics.jsonl", "checkpoint.json", "report.csv"):
        assert (out1 / name).exists()
    # re-launch from the persisted config: byte-identical metrics and report
    out2 = tmp_path / "r2"
    assert run_cli("train", "--config", str(out1 / "config.txt"),
                   "--out", str(out2)) == 0
    assert (out1 / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
    r1 = (out1 / "report.csv").read_text()
    r2 = (out2 / "report.csv").read_text()
    assert r1 == r2
    # persisted config is canonical: re-persisting is byte-stable modulo `out`
    c1 = parse_config_text((out1 / "config.txt").read_text())
    c2 = parse_config_text((out2 / "config.txt").read_text())
    c1.pop("out"), c2.pop("out")
    assert c1 == c2


ZERO_STEP_TRAIN = [
    "--set", "train.steps=0", "--set", "train.flow_steps=0", "--set", "train.hidden=8,8",
    "--set", "train.eval_samples=50", "--set", "data.size=64",
]


def test_train_zero_steps_empty_log_valid_checkpoint(tmp_path):
    out = tmp_path / "r0"
    assert run_cli("train", "--out", str(out), *ZERO_STEP_TRAIN) == 0
    assert (out / "metrics.jsonl").read_text() == ""
    task, tmap = cli.load_checkpoint(out / "checkpoint.json")
    a = np.array([[0.5, -0.5]])
    np.testing.assert_array_equal(tmap.action_map(None)(a), a)  # init is the identity map


@pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
def test_gen_data_bad_noise_is_usage_error(tmp_path, capsys, noise):
    out = tmp_path / "new" / "d.txt"
    assert run_cli("gen-data", "--task", "bimodal_gated", "--size", "5", f"--noise={noise}",
                   "--out", str(out)) == 2
    assert "noise" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("mode", [[], ["--set", "train.mode=td", "--set", "train.analytic_q=false",
                                       "--set", "data.mode=chain"]])
def test_train_on_non_finite_dataset_is_usage_error(tmp_path, capsys, mode):
    data = tmp_path / "data.txt"
    assert run_cli("gen-data", "--task", "bimodal_asymmetric", "--size", "16", "--mode", "chain",
                   "--out", str(data)) == 0
    lines = data.read_text().splitlines()
    cells = lines[4].split()
    lines[4] = " ".join(cells[:2] + ["nan"] + cells[3:])  # the reward of data row 3
    data.write_text("\n".join(lines) + "\n")
    out = tmp_path / "r"
    assert run_cli("train", "--out", str(out), "--set", f"data.file={data}", *FAST_TRAIN,
                   *mode) == 2
    assert "data row 3" in capsys.readouterr().err
    assert not out.exists()  # rejected before any output or training


def test_train_from_dataset_file(tmp_path):
    data = tmp_path / "data.txt"
    assert run_cli("gen-data", "--task", "bimodal_asymmetric", "--size", "256",
                   "--seed", "1", "--out", str(data)) == 0
    out = tmp_path / "r"
    assert run_cli("train", "--out", str(out), "--set", f"data.file={data}",
                   *FAST_TRAIN) == 0
    assert (out / "report.csv").exists()


def test_train_on_dataset_file_of_another_task_is_usage_error(tmp_path, capsys):
    data = tmp_path / "data.txt"
    assert run_cli("gen-data", "--task", "crescent", "--size", "64", "--out", str(data)) == 0
    out = tmp_path / "r"
    assert run_cli("train", "--out", str(out), "--set", f"data.file={data}",
                   "--set", "task=bimodal_asymmetric", *FAST_TRAIN) == 2
    assert "'crescent'" in capsys.readouterr().err
    assert not out.exists()  # rejected before config.txt


def test_validate_list_and_selected_suite(capsys):
    assert run_cli("validate", "--list") == 0
    listing = capsys.readouterr().out
    # the oracle-audit benchmark runs the suites by these names, in this order
    assert [line.split(":")[0] for line in listing.splitlines()] == [
        "score-identity", "perturbation-rate", "kl-quadrature", "determinant-expansion",
        "optimal-epsilon", "optimality-gap"]
    assert "PASS" not in listing
    assert run_cli("validate", "--suite", "determinant-expansion",
                   "--suite", "optimal-epsilon") == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 2


def test_cli_and_every_suite_leave_scipy_optimize_unloaded(tmp_path):
    # the runtime needs scipy's erf ufunc only: nets loads its extension module alone, and
    # the scipy.special package (~18 MB) and scipy.optimize (~20 MB) stay unloaded
    train = ["train", "--out", str(tmp_path / "td"), "--set", "train.mode=td",
             "--set", "train.analytic_q=false", "--set", "data.mode=chain", *ZERO_STEP_TRAIN,
             "--set", "train.steps=2", "--set", "train.flow_steps=2"]
    code = ("import sys\nimport fisherflow.cli\nfrom fisherflow import validate\n"
            "assert 'scipy.special' not in sys.modules\n"
            f"assert fisherflow.cli.main({train!r}) == 0\n"
            "assert 'scipy.special' not in sys.modules\n"
            "for name, suite in validate.all_suites():\n    assert suite().passed, name\n"
            "assert 'scipy.optimize' not in sys.modules\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_validate_unknown_suite_usage_error():
    assert run_cli("validate", "--suite", "bogus") == 2


def test_seed_and_seeds_together_is_usage_error(tmp_path, capsys):
    out = tmp_path / "r"
    assert run_cli("train", "--seed", "4", "--seeds", "0,1", "--out", str(out)) == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seeds, command", [
    *((seeds, command) for command in ("train", "ablate-metric", "sweep-teps")
      for seeds in ("", ",", "config")),
    # train runs exactly one seed, so a list of two is unusable there too
    ("0,1", "train"),
    ("config 0,1", "train"),
    # a repeated seed would train the same run twice and count it as two
    ("1,1", "ablate-metric"),
    ("1,1", "sweep-teps"),
    ("config 1,1", "ablate-metric"),
    # numpy seeds only non-negative integers; the run must not start first
    ("--seed -1", "train"),
    ("0,-2", "ablate-metric"),
])
def test_empty_seed_list_is_usage_error(tmp_path, capsys, seeds, command):
    out = tmp_path / "r"
    if seeds.startswith("config"):
        conf = tmp_path / "c.txt"
        conf.write_text(f"seeds ={seeds[len('config'):]}\n")
        args = ["--config", str(conf)]
    elif seeds.startswith("--seed "):
        args = seeds.split()
    else:
        args = ["--seeds", seeds]
    assert run_cli(command, *args, "--out", str(out), *FAST_TRAIN) == 2
    expected = ("repeats 1" if "1,1" in seeds else "one seed" if "0,1" in seeds
                else "non-negative" if "-" in seeds else "no seeds")
    assert expected in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out_name, data_name", [
    ("r#1", None),
    ("r", "a#b.txt"),
    ("r", "a\nb.txt"),
])
def test_hash_or_line_break_in_a_config_value_is_usage_error(tmp_path, capsys, out_name,
                                                             data_name):
    # config.txt could not carry the value, so a re-launch would read another one
    out = tmp_path / out_name
    args = []
    if data_name:
        data = tmp_path / data_name
        assert run_cli("gen-data", "--task", "bimodal_asymmetric", "--size", "64",
                       "--out", str(data)) == 0
        args = ["--set", f"data.file={data}"]
    assert run_cli("train", "--out", str(out), *FAST_TRAIN, *args) == 2
    assert "config.txt cannot carry" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, setting", [
    ("train", "train.t_eps=1.0"),
    ("train", "train.t_eps=0"),
    ("train", "train.t_eps=nan"),
    ("ablate-metric", "train.t_eps=1.5"),
    ("sweep-teps", "sweep.t_eps=0.8,1.0"),
    ("sweep-teps", "sweep.t_eps="),
    ("sweep-teps", "sweep.t_eps=0.8,0.8"),
])
def test_fisher_t_eps_outside_unit_interval_is_usage_error(tmp_path, capsys, command, setting):
    out = tmp_path / "r"
    assert run_cli(command, "--out", str(out), *FAST_TRAIN, "--set", setting) == 2
    assert "t_eps" in capsys.readouterr().err
    assert not out.exists()  # rejected before any output or training


@pytest.mark.parametrize("setting", [
    "train.eval_samples=0",
    "train.flow_steps=-1",
    "train.log_interval=-1",
    "train.batch_size=0",
    "train.steps=-3",
    "train.flow_integration_steps=0",
    "train.max_displacement=0",
    "train.epsilon=0",
    "train.lambda_init=-1",
    "train.eta=-1",
    "train.learning_rate=0",
    "train.learning_rate=-1",
    "train.damping=-5",
    "train.hidden=0",
    "train.hidden=8,-3",
])
def test_out_of_range_training_value_is_usage_error(tmp_path, capsys, setting):
    out = tmp_path / "r"
    assert run_cli("train", "--out", str(out), *FAST_TRAIN, "--set", setting) == 2
    key = setting.split("=")[0][len("train."):]
    assert key in capsys.readouterr().err
    assert not out.exists()  # rejected before any output or training


@pytest.mark.parametrize("change, key", REFUSED_SETTINGS)
def test_refused_training_setting_is_usage_error(tmp_path, capsys, change, key):
    out = tmp_path / "r"
    sets = [arg for name, value in change.items() for arg in ("--set", f"train.{name}={value}")]
    assert run_cli("train", "--out", str(out), *FAST_TRAIN, "--set", "data.mode=chain",
                   *sets) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()  # rejected before any output or training


def test_learned_critic_on_data_it_cannot_fit_is_usage_error(tmp_path, capsys):
    td = ["--set", "train.mode=td", "--set", "train.analytic_q=false"]
    out = tmp_path / "r"
    assert run_cli("train", "--out", str(out), *FAST_TRAIN, *td) == 2  # bandit data
    assert "gamma 0.99 bootstraps from next states" in capsys.readouterr().err
    assert not out.exists()
    task = tasks.make_task("bimodal_asymmetric")
    data = tmp_path / "data.txt"
    tasks.save_dataset(replace(tasks.make_dataset(task, 64, 0), rewards=None), data)
    assert " reward=0 " in data.read_text().splitlines()[0]
    for critic in (["--set", "train.analytic_q=false"], td):
        assert run_cli("train", "--out", str(out), *FAST_TRAIN, "--set", f"data.file={data}",
                       *critic) == 2
        assert "fits rewards; the data has none" in capsys.readouterr().err
        assert not out.exists()


def test_isotropic_train_ignores_t_eps(tmp_path):
    out = tmp_path / "r"
    assert run_cli("train", "--out", str(out), *FAST_TRAIN, "--set", "train.metric=isotropic",
                   "--set", "train.t_eps=1.0") == 0


def test_export_plots_requires_run_dir(tmp_path):
    assert run_cli("export-plots", "--run", str(tmp_path / "missing")) == 2


def with_net(payload, name, **entries):
    """`payload` with some entries of its net `name` replaced."""
    return {**payload, name: {**payload[name], **entries}}


def nan_residual_bias(payload):
    biases = payload["residual_net"]["biases"]
    return with_net(payload, "residual_net", biases=[[float("nan"), *biases[0][1:]], *biases[1:]])


def first_output_only(name):
    """A checkpoint edit that cuts net `name` down to its first output."""
    def edit(payload):
        net = payload[name]
        width = net["layer_sizes"][-1]
        return with_net(payload, name, layer_sizes=[*net["layer_sizes"][:-1], 1],
                        weights=[*net["weights"][:-1], net["weights"][-1][::width]],
                        biases=[*net["biases"][:-1], net["biases"][-1][:1]])
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda payload: [payload], "a checkpoint is a JSON object, got list"),
    (lambda payload: {k: v for k, v in payload.items() if k != "flow_net"},
     "the checkpoint lacks flow_net"),
    (lambda payload: {**payload, "flow_net": []}, "a net is a JSON object, got list"),
    *[(lambda payload, v=value: {**payload, "max_displacement": v},
       "max_displacement must be a finite number > 0") for value in (float("nan"), -1.0, 0, "x")],
    *[(lambda payload, v=value: {**payload, "flow_integration_steps": v},
       "steps must be an integer >= 1") for value in (2.5, "3", True)],
    (lambda payload: {**payload, "residual_net": {**payload["residual_net"], "activation": "relu"}},
     "a net's activation is 'gelu', got 'relu'"),
    (nan_residual_bias, "a net's parameters must be finite"),
    # one velocity for a 2-D action would broadcast to both coordinates
    (first_output_only("flow_net"), "a velocity net maps 3 -> 2, got [3, 8, 8, 1]"),
    (first_output_only("residual_net"), "a residual net maps 2 -> 2, got [2, 8, 8, 1]"),
])
def test_export_plots_on_malformed_checkpoint_is_usage_error(tmp_path, capsys, edit, message):
    out = tmp_path / "r"
    assert run_cli("train", "--out", str(out), *ZERO_STEP_TRAIN) == 0
    ckpt = out / "checkpoint.json"
    ckpt.write_text(json.dumps(edit(json.loads(ckpt.read_text()))))
    assert run_cli("export-plots", "--run", str(out)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train --out FILE", "train --config DIR",
                                     "gen-data --out FILE/x.txt"])
def test_a_path_the_cli_cannot_use_is_usage_error(tmp_path, capsys, command):
    # FileExistsError, IsADirectoryError and FileExistsError: an OSError, not a traceback
    (tmp_path / "FILE").write_text("")
    argv = command.replace("FILE", str(tmp_path / "FILE")).replace("DIR", str(tmp_path)).split()
    if argv[0] == "gen-data":
        argv += ["--task", "bimodal_asymmetric", "--size", "8"]
    else:
        argv += ZERO_STEP_TRAIN
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno") and "Traceback" not in err


def test_export_plots_outputs_match_requests(tmp_path):
    out = tmp_path / "r"
    assert run_cli("train", "--out", str(out), *FAST_TRAIN) == 0
    assert run_cli("export-plots", "--run", str(out), "--samples", "111",
                   "--grid=-4,4,21") == 0
    for name in ("samples_base.csv", "samples_refined.csv", "samples_behavioral.csv"):
        rows = (out / name).read_text().strip().splitlines()
        assert len(rows) == 112  # header + samples
    heat = np.loadtxt(out / "value_heatmap.csv", delimiter=",", skiprows=1)
    assert heat.shape == (21 * 21, 4)


def test_export_plots_clouds_are_the_checkpoint_map_at_the_evaluation_inputs(tmp_path):
    out = tmp_path / "r"
    assert run_cli("train", "--out", str(out), *FAST_TRAIN) == 0
    assert run_cli("export-plots", "--run", str(out), "--samples", "111") == 0
    task, tmap = training.load_checkpoint(out / "checkpoint.json")
    states, base = training.evaluation_inputs(tmap.base_policy, task, 111,
                                              np.random.default_rng(0))
    # %.18e text holds every bit of a float64
    for name, cloud in (("base", base), ("refined", tmap.action_map(states)(base))):
        got = np.loadtxt(out / f"samples_{name}.csv", delimiter=",", skiprows=1)
        assert got.shape == cloud.shape and got.tobytes() == cloud.tobytes()


@pytest.fixture(scope="module")
def zero_step_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("zero_step") / "r"
    assert run_cli("train", "--out", str(run), *ZERO_STEP_TRAIN) == 0
    return run


@pytest.mark.parametrize("arg", ["--grid=1,2", "--grid=1,2,3,4", "--grid=2,1,5", "--grid=-4,4,1",
                                 "--grid=-4,nan,5", "--grid=a,b,c", "--samples=0",
                                 "--grid=4,-4,21", "--grid=3,3,5", "--grid=-inf,4,5"])
def test_export_plots_bad_arguments_write_nothing(tmp_path, capsys, zero_step_run, arg):
    out = tmp_path / "plots"
    assert run_cli("export-plots", "--run", str(zero_step_run), "--out", str(out), arg) == 2
    assert arg.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


def test_export_plots_reversed_grid_message(capsys, zero_step_run):
    assert run_cli("export-plots", "--run", str(zero_step_run), "--grid=4,-4,21") == 2
    assert capsys.readouterr().err == ("error: --grid expects lo,hi,points with finite lo < hi "
                                       "and points >= 2, got '4,-4,21'\n")


def test_config_roundtrip_bytes():
    cfg = RunConfig.from_entries({"task": "crescent", "seeds": "1,2,3",
                                  "train.metric": "isotropic", "train.t_eps": "0.75"})
    text = cfg.to_text()
    again = RunConfig.from_entries(parse_config_text(text))
    assert again.to_text() == text
    assert again.train.metric == "isotropic"
    assert again.train.t_eps == 0.75
    assert again.seeds == [1, 2, 3]


def test_every_config_field_has_a_key():
    # a field without a key would silently drop out of config.txt
    keys = parse_config_text(RunConfig().to_text())
    top = {k.replace(".", "_") for k in keys if not k.startswith("train.")}
    train = {k[len("train."):] for k in keys if k.startswith("train.")}
    assert top == {f.name for f in fields(RunConfig)} - {"train"}
    # each run takes its seed from `seeds`, so `train.seed` is no key
    assert train == {f.name for f in fields(RefineConfig)} - {"seed"}


# keys no config has any more, as configs written before their removal still carry them
REMOVED_KEYS = {"train.dual_log": "true", "train.activation": "gelu",
                "train.q_normalization": "true", "train.seed": "0"}


def test_config_rejects_unknown_keys():
    for key, value in {"trian.steps": "10", "train.stepz": "10", **REMOVED_KEYS}.items():
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            RunConfig.from_entries({key: value})


def refused_setting_error(tmp_path, capsys, key, value, source):
    """stderr of a `train` given key = value in a config file or by `--set`, which must exit 2."""
    out = tmp_path / "r"
    if source == "config":
        conf = tmp_path / "c.txt"
        conf.write_text(f"{key} = {value}\n")
        args = ["--config", str(conf)]
    else:
        args = ["--set", f"{key}={value}"]
    # a --set wins over the file, so FAST_TRAIN leaves the key under test out
    fast = [arg for flag, pair in zip(FAST_TRAIN[::2], FAST_TRAIN[1::2])
            if not pair.startswith(f"{key}=") for arg in (flag, pair)]
    assert run_cli("train", "--out", str(out), *fast, *args) == 2
    assert not out.exists()  # rejected before any output or training
    return capsys.readouterr().err


@pytest.mark.parametrize("source", ["config", "set"])
@pytest.mark.parametrize("setting", [*(f"{key}={value}" for key, value in REMOVED_KEYS.items()),
                                     "train.activation=foo"])
def test_unknown_config_key_is_usage_error(tmp_path, capsys, setting, source):
    key, value = setting.split("=")
    err = refused_setting_error(tmp_path, capsys, key, value, source)
    assert f"unknown config key '{key}'" in err


@pytest.mark.parametrize("source", ["config", "set"])
@pytest.mark.parametrize("key, value", [("train.steps", "abc"), ("train.eta", "0.1x"),
                                        ("train.analytic_q", "maybe"), ("seeds", "0,one"),
                                        ("train.hidden", "16,1.5")])
def test_malformed_config_value_names_its_key(tmp_path, capsys, key, value, source):
    # one value of each kind: int, float, bool, list and tuple
    assert refused_setting_error(tmp_path, capsys, key, value, source).startswith(f"error: {key}: ")


def test_cli_set_overrides_take_precedence(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("task = bimodal_asymmetric\ntrain.steps = 500\n")
    cfg = RunConfig.load(path, {"train.steps": "7"})
    assert cfg.train.steps == 7


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--bogus-flag"])
    assert exc.value.code == 2


def test_ablate_metric_deterministic_and_paired(tmp_path):
    outs = []
    for name in ("a1", "a2"):
        out = tmp_path / name
        assert run_cli("ablate-metric", "--seeds", "0,1", "--out", str(out),
                       *FAST_TRAIN) == 0
        outs.append((out / "report.csv").read_text())
        agg = (out / "aggregate.csv").read_text()
        assert "fisher" in agg and "isotropic" in agg and "delta" in agg
    assert outs[0] == outs[1]
    lines = outs[0].strip().splitlines()
    assert len(lines) == 1 + 4  # header + 2 seeds x 2 metrics


def test_sweep_teps_grid_and_determinism(tmp_path):
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert run_cli("sweep-teps", "--seed", "0", "--out", str(out),
                       "--set", "sweep.t_eps=0.8", *FAST_TRAIN) == 0
        outs.append((out / "report.csv").read_text())
    assert outs[0] == outs[1]
    assert len(outs[0].strip().splitlines()) == 2  # single t_eps -> single row


def summary_text(key, groups):
    """aggregate.csv rebuilt by hand: mean, ddof-1 std and count per group, floats by repr."""
    lines = [f"{key},mean,std,runs"]
    for name, vals in groups:
        std = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        lines.append(f"{name},{float(np.mean(vals))!r},{std!r},{len(vals)}")
    return "\n".join(lines) + "\n"


def read_report(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_aggregate_csv_golden_from_report(tmp_path):
    ablate, sweep = tmp_path / "a", tmp_path / "s"
    assert run_cli("ablate-metric", "--seeds", "2,1", "--out", str(ablate), *FAST_TRAIN) == 0
    assert run_cli("sweep-teps", "--seeds", "2,1", "--out", str(sweep),
                   "--set", "sweep.t_eps=0.9,0.7,0.8", *FAST_TRAIN) == 0

    rows = read_report(ablate / "report.csv")
    value = {(r["metric"], r["seed"]): float(r["mean_refined_value"]) for r in rows}
    groups = [(m, [value[m, s] for s in ("2", "1")]) for m in ("fisher", "isotropic")]
    groups.append(("delta", [value["fisher", s] - value["isotropic", s] for s in ("2", "1")]))
    assert (ablate / "aggregate.csv").read_text() == summary_text("metric", groups)

    rows = read_report(sweep / "report.csv")
    groups = [(repr(t), [float(r["mean_refined_value"]) for r in rows if float(r["t_eps"]) == t])
              for t in (0.7, 0.8, 0.9)]  # ascending, though the sweep lists them unsorted
    assert (sweep / "aggregate.csv").read_text() == summary_text("t_eps", groups)


def test_sweep_teps_rows_are_t_eps_major_and_match_fresh_runs(tmp_path):
    from dataclasses import replace

    from fisherflow import tasks, training

    out = tmp_path / "s"
    assert run_cli("sweep-teps", "--seeds", "3,1", "--out", str(out),
                   "--set", "sweep.t_eps=0.9,0.7", *FAST_TRAIN) == 0
    lines = (out / "report.csv").read_text().strip().splitlines()[1:]
    cells = [line.split(",") for line in lines]
    assert [(c[0], c[1]) for c in cells] == [
        ("teps_0.9", "3"), ("teps_0.9", "1"), ("teps_0.7", "3"), ("teps_0.7", "1")]
    cfg = RunConfig.load(out / "config.txt")
    task = tasks.make_task(cfg.task)
    dataset = tasks.make_dataset(task, cfg.data_size, cfg.data_seed)
    for c in cells:
        train = replace(cfg.train, seed=int(c[1]), t_eps=float(c[3]), metric="fisher")
        fresh = training.run_refinement(train, dataset, task)
        assert c[4] == repr(fresh.final["mean_refined_value"])


def test_train_5k_steps_completes_in_budget(tmp_path):
    # seeded full-scale run at default widths stays well under five minutes
    import time

    out = tmp_path / "full"
    t0 = time.time()
    assert run_cli("train", "--seed", "0", "--out", str(out),
                   "--set", "train.steps=5000", "--set", "train.flow_steps=2000",
                   "--set", "train.eta=0.2") == 0
    elapsed = time.time() - t0
    assert elapsed < 300.0
    rows = (out / "metrics.jsonl").read_text().strip().splitlines()
    assert json.loads(rows[-1])["step"] == 4999
