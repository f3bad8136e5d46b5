"""Fuzz of the CLI's plan steps and its corpus opener.

A plan step takes JSON-like values and either returns checked values or
raises InvalidConfig; it never raises anything else and touches no disk.
A command whose plan rejects its config exits 1 with one error line and
writes nothing. A corpus manifest, whatever it holds, either opens or is
a DoatrackError.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from doatrack.cli import (
    _SIMULATE_KEYS,
    _open_corpus,
    _simulate_plan,
    _sweep_plan,
    _tracker_spec,
    main,
)
from doatrack.errors import DoatrackError, InvalidConfig
from doatrack.scenesim import MODES

SCENARIO_KEYS = [
    "n_speakers", "mode", "n_positions", "min_separation_deg", "duration_s", "frame_period_s",
    "segment_len_s", "gap_len_s", "angular_speed_deg_s", "exclude_previous", "max_attempts",
]
OBSERVATION_KEYS = ["angular_noise_sigma_deg", "p_miss", "clutter_rate"]
TRACKER_KEYS = [
    "type", "k_max", "max_active", "assoc_gate_deg", "birth_frames", "death_frames",
    "n_particles", "process_noise_sigma_deg", "likelihood_sigma_deg", "seed", "k", "period_s",
]
SWEEP_KEYS = [
    "subsets", "k_max_values", "scenario", "observation", "tracker", "gate_deg", "bootstrap",
    "seed",
]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and both infinities included
    | st.text(max_size=4)
    | st.sampled_from([*MODES, "pf", "oracle", "splitter", "swapper", "merger"])
)
extremes = st.sampled_from([-1, 2**63, 10**400, -(10**400)])
junk = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# Values of the right kind come often, so draws get past the first checks.
values = (
    st.integers(-2, 1002)
    | st.floats(-1.0, 200.0)
    | st.lists(st.floats(0.05, 10.0), min_size=2, max_size=2)
    | extremes
    | junk
)


def mostly(good, other=values):
    """Nine draws in ten from good, the rest from other."""
    return st.integers(0, 9).flatmap(lambda i: other if i == 9 else good)


def objects(keys, value=values):
    """JSON objects whose keys mix the real ones with junk."""
    return st.dictionaries(st.sampled_from(keys) | st.text(max_size=4), value, max_size=4)


def near(keys, **required):
    """JSON objects holding the required keys, and now and then one real
    key with any value; or objects() of the keys."""
    extra = st.dictionaries(st.sampled_from(keys), values, max_size=1)
    merged = st.builds(lambda req, ext: {**req, **ext}, st.fixed_dictionaries(required), extra)
    return mostly(merged, objects(keys))


scenarios = mostly(near(SCENARIO_KEYS, n_speakers=mostly(st.integers(1, 3))))
observations = mostly(near(OBSERVATION_KEYS))
tracker_types = st.sampled_from(["pf", "oracle", "splitter", "swapper", "merger"])
trackers = mostly(near(TRACKER_KEYS, type=mostly(tracker_types)))
subset = near(["name", "n_speakers", "n_scenes"], n_speakers=mostly(st.integers(1, 3)))
k_max = mostly(st.none() | st.integers(1, 4))
sweeps = mostly(
    near(
        SWEEP_KEYS,
        subsets=mostly(st.lists(subset, min_size=1, max_size=2)),
        k_max_values=mostly(st.lists(k_max, min_size=1, max_size=3)),
        scenario=scenarios,
        observation=observations,
        tracker=mostly(near(TRACKER_KEYS[1:])),
    )
)
seeds = mostly(st.integers(0, 9))


def _returns_or_rejects(plan, *args) -> bool:
    """True if plan returned, False if it raised InvalidConfig."""
    try:
        plan(*args)
    except InvalidConfig:
        return False
    return True


@settings(max_examples=300)
@given(sweeps, seeds)
def test_sweep_plan_returns_or_raises_invalid_config(doc, seed):
    _returns_or_rejects(_sweep_plan, doc, seed)


@settings(max_examples=300)
@given(scenarios, observations, mostly(st.integers(1, 3)), seeds)
def test_simulate_plan_returns_or_raises_invalid_config(scenario, observation, n_scenes, seed):
    _returns_or_rejects(_simulate_plan, scenario, observation, n_scenes, seed)


@settings(max_examples=300)
@given(trackers, mostly(st.none() | st.integers(1, 3)))
def test_tracker_spec_returns_or_raises_invalid_config(doc, default_max_active):
    _returns_or_rejects(_tracker_spec, doc, default_max_active)


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _assert_rejected(command: str, doc) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(doc), encoding="utf-8")
        code, err = _run([command, "--config", str(config), "--out", str(out)])
        assert code == 1, (doc, err)
        assert err.startswith("doatrack: config error: ") and err.count("\n") == 1, err
        assert "Traceback" not in err and not out.exists(), err


@given(sweeps)
def test_sweep_that_its_plan_rejects_exits_1_before_any_write(doc):
    assume(
        not isinstance(doc, dict) or not _returns_or_rejects(_sweep_plan, doc, doc.get("seed", 0))
    )
    _assert_rejected("sweep", doc)


simulate_docs = mostly(
    near(list(_SIMULATE_KEYS), scenario=scenarios, n_scenes=mostly(st.integers(1, 2)))
)


@given(simulate_docs)
def test_simulate_that_its_plan_rejects_exits_1_before_any_write(doc):
    assume(
        not isinstance(doc, dict)
        or bool(set(doc) - set(_SIMULATE_KEYS))
        or not _returns_or_rejects(
            _simulate_plan, doc.get("scenario", {}), doc.get("observation", {}),
            doc.get("n_scenes", 1), doc.get("seed", 0),
        )
    )
    _assert_rejected("simulate", doc)


manifests = mostly(
    near(
        ["frame_period_s", "n_frames", "n_scenes", "scenario"],
        frame_period_s=mostly(st.just(0.1)),
        n_frames=mostly(st.integers(1, 20)),
        n_scenes=mostly(st.integers(1, 4)),
        scenario=mostly(near(["n_speakers", "min_separation_deg", "mode"])),
    ),
    st.binary(max_size=12) | values,
)


@given(manifests, st.integers(0, 3))
def test_open_corpus_opens_or_raises_a_data_error(manifest, n_files):
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp)
        raw = manifest if isinstance(manifest, bytes) else json.dumps(manifest).encode()
        (corpus / "manifest.json").write_bytes(raw)
        for i in range(n_files):
            (corpus / f"scene_{i:04d}.gt.csv").write_text("", encoding="utf-8")
        try:
            _open_corpus(corpus)
        except DoatrackError as exc:
            assert not isinstance(exc, InvalidConfig), exc  # a data error: exit 2, not 1
