"""The axis table (``repro.analysis.axes``) drives every layer.

Each test is parametrized over :data:`AXES`, so a new axis is covered
with no test edit: a non-default value flows from the CLI through
sweep and scenario specs to the record, and a bad value gets the same
message at every entry point.
"""

import dataclasses
import inspect
import json
from pathlib import Path

import pytest

from repro.analysis import RunSpec, SweepSpec
from repro.analysis.axes import AXES, FALLBACK
from repro.analysis.executor import execute_cell
from repro.cli import build_parser, main
from repro.errors import AnalysisError
from repro.exploration import ExplorationCell, FuzzSpec, exploration_grid
from repro.scenarios import ScenarioSpec, dump_scenario, load_scenario

FUZZ_CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"

#: a cheap sweep every flow test starts from (the axis under test
#: overrides its own flag)
BASE_SWEEP = ["sweep", "--families", "ring", "--sizes", "8", "--seeds", "0"]

AXIS_IDS = [axis.field for axis in AXES]


def _other(axis):
    """A valid value that is not the axis default."""
    if axis.names is None:
        return axis.minimum + 5
    return next(v for v in axis.names() if v != axis.default)


def _bad(axis):
    return axis.minimum - 1 if axis.names is None else "bogus"


def _message(axis, value):
    with pytest.raises(AnalysisError) as excinfo:
        axis.check(value)
    return str(excinfo.value)


def _param_names(target):
    return set(inspect.signature(target).parameters)


@pytest.mark.parametrize("axis", AXES, ids=AXIS_IDS)
def test_default_matches_runspec(axis):
    field = {f.name: f for f in dataclasses.fields(RunSpec)}[axis.field]
    if field.default is not dataclasses.MISSING:
        assert field.default == axis.default
    assert axis.check(axis.default) == axis.default


@pytest.mark.parametrize("axis", AXES, ids=AXIS_IDS)
@pytest.mark.parametrize("plural_flag", [False, True], ids=["flag", "flags"])
def test_value_flows_cli_to_record(axis, plural_flag, tmp_path):
    value = _other(axis)
    spelling = axis.flags if plural_flag else axis.flag
    args = build_parser().parse_args(BASE_SWEEP + [f"--{spelling}", str(value)])
    sweep = SweepSpec(**{a.plural: getattr(args, a.plural) for a in AXES})
    assert getattr(sweep, axis.plural) == (value,)

    scenario = ScenarioSpec(
        name="axis", **{a.plural: getattr(sweep, a.plural) for a in AXES}
    )
    loaded = load_scenario(dump_scenario(scenario, tmp_path / "axis.toml"))
    assert loaded == scenario
    assert loaded.sweep() == sweep

    (spec,) = loaded.cells()
    assert getattr(spec, axis.field) == value
    assert getattr(execute_cell(spec), axis.field) == value


@pytest.mark.parametrize("axis", AXES, ids=AXIS_IDS)
def test_bad_value_gets_one_message_everywhere(axis, tmp_path, capsys):
    bad = _bad(axis)
    message = _message(axis, bad)
    assert "invalid choice" in message

    for spelling in (axis.flag, axis.flags):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", f"--{spelling}", str(bad)])
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    doc = tmp_path / "bad.toml"
    doc.write_text(f'name = "bad"\n{axis.plural} = [{json.dumps(bad)}]\n')
    constructors = [
        lambda: SweepSpec(**{axis.plural: (bad,)}),
        lambda: ScenarioSpec(name="bad", **{axis.plural: [bad]}),
        lambda: load_scenario(doc),
    ]
    base = {"family": "ring", "n": 6, "seed": 0}
    for target in (ExplorationCell, exploration_grid, FuzzSpec):
        names = _param_names(target)
        if axis.plural in names:
            kwargs = {axis.plural: (bad,)}
        elif axis.field in names:
            kwargs = {axis.field: bad}
        else:
            continue
        if target is ExplorationCell:
            kwargs = {**base, **kwargs}
        constructors.append(lambda target=target, kwargs=kwargs: target(**kwargs))
    for construct in constructors:
        with pytest.raises(AnalysisError) as excinfo:
            construct()
        assert str(excinfo.value) == message


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv, names",
        [
            (["sweep", "--initial", "bogus"], "echo"),
            (["sweep", "--sizes", "0"], ">= 1"),
            (["sweep", "--jobs", "0"], ">= 1"),
            (["explore", "--sizes", "0"], ">= 1"),
            (["fuzz", "--sizes", "0"], ">= 1"),
            (["fuzz", "--fallbacks", "none"], "lifo"),
            (["fuzz", "--fallbacks", "bogus"], "lifo"),
        ],
    )
    def test_bad_values_are_usage_errors(self, argv, names, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        last = capsys.readouterr().err.rstrip("\n").splitlines()[-1]
        assert "error:" in last and "invalid choice" in last and names in last

    def test_fuzz_seed_keeps_its_own_spelling(self):
        args = build_parser().parse_args(["fuzz", "--seed", "7", "--seeds", "1", "2"])
        assert args.seed == 7 and args.seeds == [1, 2]

    def test_fallback_axis_excludes_none_and_replay(self):
        assert "none" not in FALLBACK.names() and "replay" not in FALLBACK.names()


class TestReplaySchedulesOnTheCommandLine:
    SCHEDULE = "replay:lifo:1.2"

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--family", "ring", "--n", "6", "--scheduler", SCHEDULE],
            ["certify", "--family", "ring", "--n", "6", "--scheduler", SCHEDULE],
            ["compare", "--family", "ring", "--n", "6", "--scheduler", SCHEDULE],
            BASE_SWEEP + ["--scheduler", SCHEDULE],
        ],
        ids=["run", "certify", "compare", "sweep"],
    )
    def test_single_run_commands_accept_canonical_replay(self, argv, capsys):
        assert main(argv) == 0
        if argv[0] == "sweep":
            assert self.SCHEDULE in capsys.readouterr().out

    def test_non_canonical_replay_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scheduler", "replay:lifo:01"])
        assert excinfo.value.code == 2
        assert "canonical replay" in capsys.readouterr().err

    def test_fuzz_artifact_replays_through_explore(self, capsys, tmp_path):
        """A fuzzer artifact's cell (a replay: schedule) re-runs from the
        command line with its exact canonical values."""
        path = sorted(FUZZ_CORPUS_DIR.glob("*.json"))[0]
        cell = ExplorationCell.from_json_dict(json.loads(path.read_text())["cell"])
        assert cell.scheduler.startswith("replay:")
        rc = main([
            "explore",
            "--families", cell.family, "--sizes", str(cell.n),
            "--seeds", str(cell.seed), "--schedulers", cell.scheduler,
            "--churns", cell.churn, "--delay", cell.delay,
            "--initial", cell.initial_method, "--out", str(tmp_path),
        ])
        assert rc == 0  # a pinned regression: fixed, so it stays clean
        assert "explored 1 cells" in capsys.readouterr().out


class TestConstructionValidation:
    def test_exploration_cell_rejects_unknown_algorithm(self):
        with pytest.raises(AnalysisError, match="unknown algorithm"):
            ExplorationCell(family="gnp_sparse", n=6, seed=0, algorithms=("nope",))

    def test_fuzz_spec_rejects_unknown_delay(self):
        with pytest.raises(AnalysisError, match="unknown delay model"):
            FuzzSpec(delay="warp")
