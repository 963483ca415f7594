"""A value out of range is rejected with one message wherever it enters: in a
scenario file, as an engine.run override and as a command-line flag."""

import json

import pytest

from skygs import engine
from skygs.cli import main
from skygs.model import ScenarioError, validate_scenario
from skygs.scenarios import desk_scenario

OUT_OF_RANGE = [("seed", -1), ("seed", 2 ** 64), ("v", -1), ("xi", 0), ("policy", "nope")]
COMPARE_FLAG = {"seed": "--seeds", "v": "--v", "xi": "--xi", "policy": "--policies"}


def raw_scenario():
    return desk_scenario(seed=1, horizon=5)


def file_message(field, value):
    raw = raw_scenario()
    raw["sim"][field] = value
    with pytest.raises(ScenarioError) as exc:
        validate_scenario(raw)
    return str(exc.value)


@pytest.mark.parametrize("field, value", OUT_OF_RANGE)
def test_file_and_run_override_reject_alike(field, value):
    message = file_message(field, value)
    assert message.startswith(f"sim.{field}: ")
    with pytest.raises(ScenarioError) as exc:
        engine.run(validate_scenario(raw_scenario()), **{field: value})
    assert str(exc.value) == message


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw_scenario()))
    return str(path)


@pytest.mark.parametrize("field, value", OUT_OF_RANGE)
def test_simulate_rejects_like_the_file(field, value, scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", scenario_file, "--out", str(out),
                 f"--{field}", str(value)]) == 1
    assert capsys.readouterr().err == f"error: {file_message(field, value)}\n"
    assert not out.exists()


@pytest.mark.parametrize("field, value", [fv for fv in OUT_OF_RANGE if fv[0] in COMPARE_FLAG])
def test_compare_rejects_like_the_file(field, value, scenario_file, tmp_path, capsys):
    out = tmp_path / "compare.csv"
    flags = {"--policies": "bg", COMPARE_FLAG[field]: str(value)}
    assert main(["compare", "--scenario", scenario_file, "--out", str(out),
                 *(word for flag in flags.items() for word in flag)]) == 1
    assert capsys.readouterr().err == f"error: {file_message(field, value)}\n"
    assert not out.exists()
