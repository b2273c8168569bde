"""Round-trip property for scenario/campaign documents:
``load(dump(x)) == x`` over generated ``ScenarioSpec``s, for both the
TOML emitter (hand-rolled — stdlib ``tomllib`` only parses) and JSON."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ALGORITHMS
from repro.graphs.generators import FAMILIES
from repro.mdst.config import MODES
from repro.scenarios import (
    CampaignSpec,
    ScenarioSpec,
    dump_campaign,
    dump_scenario,
    load_campaign,
    load_scenario,
)
from repro.sim import DELAYS, FAULT_PLANS, SCHEDULERS
from repro.spanning.provider import INITIAL_METHODS

_COUNTER = itertools.count()


def _axis(values, max_size=3):
    return st.lists(
        st.sampled_from(sorted(values)), min_size=1, max_size=max_size, unique=True
    ).map(tuple)


#: printable text that the TOML emitter must escape correctly (quotes,
#: backslashes, newlines, tabs — the escape table's whole alphabet)
_description = st.text(
    alphabet=st.sampled_from(
        list("abcXYZ 0129_-.,:;!?") + ['"', "\\", "\n", "\r", "\t", "\b", "\f"]
    ),
    max_size=40,
)

_name = st.from_regex(r"[a-zA-Z][a-zA-Z0-9_\-]{0,15}", fullmatch=True)

_scenarios = st.builds(
    ScenarioSpec,
    name=_name,
    description=_description,
    families=_axis(FAMILIES),
    sizes=_axis(range(3, 20), max_size=3),
    seeds=_axis(range(0, 50), max_size=4),
    initial_methods=_axis(INITIAL_METHODS, max_size=2),
    modes=_axis(MODES),
    delays=_axis(DELAYS),
    faults=_axis(FAULT_PLANS),
    schedulers=_axis(SCHEDULERS),
    algorithms=_axis(ALGORITHMS),
    max_rounds=st.one_of(st.none(), st.integers(1, 99)),
)


class TestScenarioRoundTrip:
    @given(scenario=_scenarios, suffix=st.sampled_from([".toml", ".json"]))
    @settings(max_examples=60, deadline=None)
    def test_load_dump_is_identity(self, scenario, suffix, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / f"s{next(_COUNTER)}{suffix}"
        dump_scenario(scenario, path)
        assert load_scenario(path) == scenario

    @given(scenario=_scenarios, suffix=st.sampled_from([".toml", ".json"]))
    @settings(max_examples=30, deadline=None)
    def test_dump_load_dump_is_stable(self, scenario, suffix, tmp_path_factory):
        """dump(load(x)) == x at the byte level: loading a document and
        re-dumping it reproduces the file exactly."""
        root = tmp_path_factory.mktemp("rt")
        first = root / f"a{next(_COUNTER)}{suffix}"
        second = root / f"b{next(_COUNTER)}{suffix}"
        dump_scenario(scenario, first)
        dump_scenario(load_scenario(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestCampaignRoundTrip:
    @given(
        name=_name,
        description=_description,
        scenarios=st.lists(_scenarios, min_size=1, max_size=3, unique_by=lambda s: s.name),
        suffix=st.sampled_from([".toml", ".json"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_load_dump_is_identity(
        self, name, description, scenarios, suffix, tmp_path_factory
    ):
        campaign = CampaignSpec(
            name=name, description=description, scenarios=tuple(scenarios)
        )
        path = tmp_path_factory.mktemp("rt") / f"c{next(_COUNTER)}{suffix}"
        dump_campaign(campaign, path)
        assert load_campaign(path) == campaign
