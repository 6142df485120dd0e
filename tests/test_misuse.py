"""Misuse never escapes `saea.cli.run`, checked over fixed grids of bad input.

Every run below ends in one of two ways: exit 0, with every JSON file it
wrote strict (no NaN or Infinity), or exit 1 with exactly one JSON line on
stderr, whose `error` is a `saea.errors` class, `MemoryError` or an
`OSError` subclass, and no `--out` directory. The first grid sets one numeric or choice
flag of each command at a time to each of VALUES; the second sets one
comma-list flag (LIST_FLAGS) at a time to each of LIST_VALUES; the third
sets one field of each of three trained checkpoints (CHECKPOINTS) at a time
to each of FIELD_VALUES and scores it with `eval` and `diagnose`.
"""

import argparse
import json

import pytest

import saea.cli
from _helpers import reported_error
from saea.cli import run

VALUES = ("-1", "0", str(10**30), "abc", "nan", "inf", "")
LIST_VALUES = ("", ",", "1,,2", "1,1", "nan", "inf", "-1", "abc", "all,none")
# command: its flags that take a comma list
LIST_FLAGS = {
    "synth": ("--dgp-self", "--dgp-hop"),
    "train": ("--horizon-min",),
    "compare": ("--horizon-min", "--kinds"),
    "diagnose": ("--ts-lags",),
}
FIELD_VALUES = (None, True, 1e308, float("nan"), 10**30, "x", [], {})
# run directory: (model, kind), each trained at VAR order 2 with zscore
CHECKPOINTS = {
    "graphfilter-structural": ("graphfilter", "structural"),
    "mlp1-low_rank_sparse": ("mlp1", "low_rank_sparse"),
    "nodear-diagonal": ("nodear", "diagonal"),
}


def refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


def assert_clean_end(code, out, capsys):
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        for path in out.rglob("*.json"):
            json.loads(path.read_text(), parse_constant=refuse)
    else:
        assert code == 1 and not out.exists()
        assert err.count("\n") == 1 and "Traceback" not in err
        line = json.loads(err)
        assert set(line) == {"error", "message"} and reported_error(line["error"])


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """A 6-sensor, 300-step synth bundle and the CHECKPOINTS trained on it."""
    root = tmp_path_factory.mktemp("misuse")
    assert run(["synth", "--n", "6", "--steps", "300", "--seed", "2", "--out", str(root)]) == 0
    for name, (model, kind) in CHECKPOINTS.items():
        argv = [
            "train", "--series", str(root / "series.csv"), "--adjacency", str(root / "adjacency.csv"),
            "--model", model, "--hidden", "3", "--kind", kind, "--rank", "2", "--var-order", "2",
            "--normalize", "zscore", "--history", "4", "--epochs", "2", "--out", str(root / name),
        ]
        assert run(argv) == 0
    return root


def base_argv(command, root):
    data = ["--series", str(root / "series.csv")]
    train = [*data, "--adjacency", str(root / "adjacency.csv"), "--history", "4", "--epochs", "1"]
    score = ["--checkpoint", str(root / "graphfilter-structural" / "checkpoint_h5min_best.json"), *data]
    return {
        "synth": ["synth", "--n", "6", "--steps", "300"],
        "train": ["train", *train, "--model", "mlp1", "--kind", "low_rank_sparse"],
        "compare": ["compare", *train, "--kinds", "none,structural"],
        "eval": ["eval", *score],
        "diagnose": ["diagnose", *score, "--max-lag", "5"],
    }[command]


def command_actions(command):
    (subparsers,) = [
        a for a in saea.cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return subparsers.choices[command]._actions


def numeric_and_choice_flags(command):
    actions = command_actions(command)
    return [a.option_strings[0] for a in actions if a.type in (int, float) or a.choices]


@pytest.mark.parametrize("command", ["synth", "train", "compare", "eval", "diagnose"])
def test_bad_flag_values_end_in_exit_0_or_one_json_line(bundle, tmp_path, capsys, command):
    capsys.readouterr()
    for i, (flag, value) in enumerate(
        (flag, value) for flag in numeric_and_choice_flags(command) for value in VALUES
    ):
        if flag == "--epochs" and value == str(10**30):
            continue  # a valid count: it trains for as long as it says
        out = tmp_path / str(i)
        code = run([*base_argv(command, bundle), f"{flag}={value}", "--out", str(out)])
        assert_clean_end(code, out, capsys)


@pytest.mark.parametrize("command", sorted(LIST_FLAGS))
def test_bad_list_values_end_in_exit_0_or_one_json_line(bundle, tmp_path, capsys, command):
    # every flag with a type of its own (not a builtin caster) is a comma list
    typed = [a.option_strings[0] for a in command_actions(command)
             if a.type not in (None, int, float, str)]
    assert sorted(typed) == sorted(LIST_FLAGS[command])
    capsys.readouterr()
    for i, (flag, value) in enumerate(
        (flag, value) for flag in LIST_FLAGS[command] for value in LIST_VALUES
    ):
        out = tmp_path / str(i)
        code = run([*base_argv(command, bundle), f"{flag}={value}", "--out", str(out)])
        assert_clean_end(code, out, capsys)


def field_paths(blob, prefix=()):
    """Every key path of a nested dict, containers included."""
    for key, value in blob.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from field_paths(value, (*prefix, key))


@pytest.mark.parametrize("command", ["eval", "diagnose"])
def test_bad_checkpoint_fields_end_in_exit_0_or_one_json_line(bundle, tmp_path, capsys, command):
    argv = base_argv(command, bundle)
    ckpt = tmp_path / "checkpoint.json"
    argv[argv.index("--checkpoint") + 1] = str(ckpt)
    capsys.readouterr()
    for name in CHECKPOINTS:
        text = (bundle / name / "checkpoint_h5min_best.json").read_text()
        for i, path in enumerate(field_paths(json.loads(text))):
            for value in FIELD_VALUES:
                blob = json.loads(text)
                parent = blob
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
                ckpt.write_text(json.dumps(blob))
                out = tmp_path / f"{name}-{i}-{FIELD_VALUES.index(value)}"
                assert_clean_end(run([*argv, "--out", str(out)]), out, capsys)
