import hashlib
import json
import math
from pathlib import Path

import pytest

from doatrack import cli
from doatrack.cli import _available_cpus, _map_scenes, config_from_json, lint_corpus, main
from doatrack.errors import DoatrackError
from doatrack.geometry import Direction
from doatrack.trackers import TrackerConfig
from doatrack.trackmodel import (
    MAX_FRAMES,
    FrameGrid,
    TrackSet,
    read_manifest,
    read_trackset,
    write_manifest,
    write_trackset,
)


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def dir_digest(path: Path) -> dict:
    return {
        p.relative_to(path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file()
    }


def read_per_scene(path: Path) -> list[dict]:
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


SIM_DOC = {
    "scenario": {"n_speakers": 1, "mode": "jump"},
    "observation": {"angular_noise_sigma_deg": 2.0, "p_miss": 0.05, "clutter_rate": 0.2},
    "n_scenes": 3,
    "seed": 41,
}


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM_DOC)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == [
        "manifest.json",
        "scene_0000.gt.csv",
        "scene_0000.obs.csv",
        "scene_0001.gt.csv",
        "scene_0001.obs.csv",
        "scene_0002.gt.csv",
        "scene_0002.obs.csv",
    ]


def test_simulate_three_speaker_subset(tmp_path):
    doc = {**SIM_DOC, "scenario": {"n_speakers": 3}, "n_scenes": 2}
    cfg = write_config(tmp_path, "sim.json", doc)
    out = tmp_path / "corpus"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    grid, _ = read_manifest(out / "manifest.json")
    for i in range(2):
        gt = read_trackset(out / f"scene_{i:04d}.gt.csv", grid)
        assert len(gt.ids) == 3


def test_simulate_rejects_bad_config(tmp_path):
    bad_docs = [
        {"scenario": {"n_speakers": 0}},
        # booleans must be JSON booleans, integers integral: never coerced
        {"scenario": {"n_speakers": 1, "exclude_previous": "false"}},
        {"scenario": {"n_speakers": 2.7}},
        {"scenario": {"n_speakers": 1}, "n_scenes": 1.5},
    ]
    for doc in bad_docs:
        cfg = write_config(tmp_path, "sim.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1, doc


def test_simulate_rejects_unknown_keys(tmp_path):
    for doc in ({"scenario": {"n_speakers": 1, "typo": 1}},
                {"scenario": {"n_speakers": 1}, "n_scene": 3}):
        cfg = write_config(tmp_path, "sim.json", doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1, doc
        assert not (tmp_path / "x").exists(), doc


def test_lint_accepts_generated_corpus(tmp_path):
    cfg = write_config(tmp_path, "sim.json", SIM_DOC)
    out = tmp_path / "corpus"
    main(["simulate", "--config", cfg, "--out", str(out)])
    assert main(["lint", "--scenes", str(out)]) == 0


def test_lint_flags_corrupted_scene(tmp_path, capsys):
    cfg = write_config(tmp_path, "sim.json", SIM_DOC)
    out = tmp_path / "corpus"
    main(["simulate", "--config", cfg, "--out", str(out)])
    target = out / "scene_0001.gt.csv"
    lines = target.read_text().strip().split("\n")
    lines.append("bogus line without commas")
    target.write_text("\n".join(lines) + "\n")
    assert main(["lint", "--scenes", str(out)]) == 2
    assert "scene_0001" in capsys.readouterr().err
    # a file that is not UTF-8 fails its scene, not the command
    (out / "scene_0002.gt.csv").write_bytes(b"frame\xff\xfe\n")
    assert main(["lint", "--scenes", str(out)]) == 2
    err = capsys.readouterr().err
    assert "FAILED scene_0002: ParseError: not UTF-8" in err and "Traceback" not in err
    # so is a manifest that is not UTF-8, for the whole corpus
    (out / "manifest.json").write_bytes(b"{\xff}")
    assert main(["lint", "--scenes", str(out)]) == 2
    assert "data error: ParseError: bad manifest" in capsys.readouterr().err


def test_lint_flags_jump_track_geometry(tmp_path):
    grid = FrameGrid(0.1, 10)
    near, far = Direction.from_degrees(0.0, 0.0), Direction.from_degrees(10.0, 0.0)
    scene = TrackSet(grid, {
        # three runs on two positions 10 deg apart: one pair closer than 30 deg
        "a": {0: near, 1: near, 5: far, 6: far, 8: near, 9: near},
        "b": {0: near, 1: far},
        # three runs on three positions 5 deg apart: three close pairs, one problem
        "c": {0: near, 3: Direction.from_degrees(5.0, 0.0), 6: Direction.from_degrees(10.0, 0.0)},
    })
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_manifest(grid, corpus / "manifest.json",
                   extra={"scenario": {"mode": "jump", "min_separation_deg": 30.0}})
    write_trackset(scene, corpus / "scene_0000.gt.csv")
    # problems follow each track's first row, not id order: z starts first
    late_a = TrackSet(grid, {"a": {3: near, 4: far}, "z": {0: near, 1: far}})
    write_trackset(late_a, corpus / "scene_0001.gt.csv")
    assert lint_corpus(corpus) == [
        "scene_0000/a: positions closer than the minimum separation",
        "scene_0000/b: direction varies within an active run",
        "scene_0000/c: positions closer than the minimum separation",
        "scene_0001/z: direction varies within an active run",
        "scene_0001/a: direction varies within an active run",
    ]


def _simulated_corpus(tmp_path, doc=SIM_DOC):
    cfg = write_config(tmp_path, "sim.json", doc)
    out = tmp_path / "corpus"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return out


def test_oracle_track_then_evaluate_is_perfect(tmp_path):
    doc = {
        "scenario": {"n_speakers": 2},
        "observation": {"angular_noise_sigma_deg": 0.0, "p_miss": 0.0, "clutter_rate": 0.0},
        "n_scenes": 2,
        "seed": 5,
    }
    corpus = _simulated_corpus(tmp_path, doc)
    tcfg = write_config(tmp_path, "oracle.json", {"type": "oracle"})
    preds = tmp_path / "preds"
    assert main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(preds)]) == 0
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--gt", str(corpus), "--pred", str(preds), "--out", str(out),
        "--replicates", "5",
    ]) == 0
    for row in read_per_scene(out / "per_scene.csv"):
        assert float(row["tsr"]) == 0.0
        assert float(row["tfr"]) == 0.0
        assert float(row["mota"]) == 1.0
        assert float(row["ass_a"]) == 1.0
        assert float(row["ass_pr"]) == 1.0
        assert float(row["ass_re"]) == 1.0


def test_pf_with_k_max_two_on_three_speakers(tmp_path):
    doc = {**SIM_DOC, "scenario": {"n_speakers": 3}, "n_scenes": 2}
    corpus = _simulated_corpus(tmp_path, doc)
    tcfg = write_config(
        tmp_path, "pf.json", {"type": "pf", "k_max": 2, "max_active": 2, "seed": 3}
    )
    preds_dir = tmp_path / "preds"
    assert main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(preds_dir)]) == 0
    grid, _ = read_manifest(preds_dir / "manifest.json")
    for i in range(2):
        preds = read_trackset(preds_dir / f"scene_{i:04d}.pred.csv", grid)
        assert len(preds.ids) <= 2


def test_track_reports_missing_observation_file(tmp_path, capsys):
    corpus = _simulated_corpus(tmp_path)
    (corpus / "scene_0001.obs.csv").unlink()
    tcfg = write_config(tmp_path, "pf.json", {"type": "pf", "seed": 1})
    code = main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(tmp_path / "p")])
    assert code == 2
    err = capsys.readouterr().err
    assert "scene_0001" in err
    # other scenes still produced
    assert (tmp_path / "p" / "scene_0000.pred.csv").exists()
    assert (tmp_path / "p" / "scene_0002.pred.csv").exists()
    # a fractional k_max is a config error, raised before any scene runs
    tcfg = write_config(tmp_path, "pf.json", {"type": "pf", "k_max": 2.5, "seed": 1})
    code = main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(tmp_path / "q")])
    assert code == 1
    assert "k_max" in capsys.readouterr().err


def _write_manual_corpus(root: Path, scenes: dict[str, TrackSet], grid: FrameGrid):
    root.mkdir(parents=True, exist_ok=True)
    write_manifest(grid, root / "manifest.json", extra={"scenario": {"mode": "manual"}})
    for sid, ts in scenes.items():
        write_trackset(ts, root / f"{sid}.gt.csv")


def test_splitter_corpus_recall_is_exactly_half(tmp_path):
    # fully active single tracks with an even frame count: the k=2 split
    # halves are equal, so AssRe is exactly 0.5 on every scene
    grid = FrameGrid(0.1, 600)
    d = Direction.from_degrees(25.0, 10.0)
    scenes = {
        f"scene_{i:04d}": TrackSet(grid, {"g": {f: d for f in range(600)}})
        for i in range(3)
    }
    corpus = tmp_path / "corpus"
    _write_manual_corpus(corpus, scenes, grid)
    tcfg = write_config(tmp_path, "split.json", {"type": "splitter", "k": 2})
    preds = tmp_path / "preds"
    assert main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(preds)]) == 0
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--gt", str(corpus), "--pred", str(preds), "--out", str(out),
        "--replicates", "0",
    ]) == 0
    for row in read_per_scene(out / "per_scene.csv"):
        assert abs(float(row["ass_re"]) - 0.5) <= 1e-12
        assert float(row["ass_pr"]) == 1.0


def test_merger_corpus_on_disjoint_speakers(tmp_path):
    grid = FrameGrid(0.1, 400)
    a = Direction.from_degrees(0.0, 0.0)
    b = Direction.from_degrees(150.0, 20.0)
    scenes = {
        f"scene_{i:04d}": TrackSet(
            grid,
            {
                "g1": {f: a for f in range(200)},
                "g2": {f: b for f in range(200, 400)},
            },
        )
        for i in range(2)
    }
    corpus = tmp_path / "corpus"
    _write_manual_corpus(corpus, scenes, grid)
    tcfg = write_config(tmp_path, "merge.json", {"type": "merger"})
    preds = tmp_path / "preds"
    assert main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(preds)]) == 0
    out = tmp_path / "eval"
    assert main(["evaluate", "--gt", str(corpus), "--pred", str(preds), "--out", str(out)]) == 0
    for row in read_per_scene(out / "per_scene.csv"):
        assert float(row["ass_pr"]) == 0.5
        assert float(row["ass_re"]) == 1.0
        assert float(row["tsr"]) == 0.0


def test_evaluate_reports_nan_azimuth_per_scene(tmp_path, capsys):
    corpus = _simulated_corpus(tmp_path)
    tcfg = write_config(tmp_path, "oracle.json", {"type": "oracle"})
    preds = tmp_path / "preds"
    assert main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(preds)]) == 0
    target = preds / "scene_0001.pred.csv"
    header, first, *rest = target.read_text().split("\n")
    cells = first.split(",")
    cells[3] = "nan"
    target.write_text("\n".join([header, ",".join(cells), *rest]))
    assert main(["evaluate", "--gt", str(corpus), "--pred", str(preds)]) == 2
    err = capsys.readouterr().err
    assert "scene_0001" in err and "ParseError" in err
    assert "Traceback" not in err
    # a prediction file that is not UTF-8 fails its scene too
    (preds / "scene_0002.pred.csv").write_bytes(b"frame\xff\xfe\n")
    assert main(["evaluate", "--gt", str(corpus), "--pred", str(preds)]) == 2
    err = capsys.readouterr().err
    assert "FAILED scene_0001: ParseError" in err
    assert "FAILED scene_0002: ParseError: not UTF-8" in err and "Traceback" not in err


def test_evaluate_rejects_mismatched_scene_sets(tmp_path):
    corpus = _simulated_corpus(tmp_path)
    preds = tmp_path / "preds"
    tcfg = write_config(tmp_path, "oracle.json", {"type": "oracle"})
    main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(preds)])
    (preds / "scene_0002.pred.csv").unlink()
    assert main(["evaluate", "--gt", str(corpus), "--pred", str(preds)]) == 2


def _config_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err and "FAILED" not in err
    return err


def test_evaluate_rejects_gate_and_ospa_parameters_once(tmp_path, capsys):
    corpus = _simulated_corpus(tmp_path)
    tcfg = write_config(tmp_path, "oracle.json", {"type": "oracle"})
    preds = tmp_path / "preds"
    assert main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(preds)]) == 0
    capsys.readouterr()
    report = tmp_path / "report"
    for flags in (["--gate-deg", "0"], ["--gate-deg", "nan"], ["--ospa-cutoff-deg", "500"],
                  ["--ospa-order", "0.5"], ["--ospa-order", "11"], ["--replicates", "-3"],
                  ["--replicates", "1001"], ["--replicates", "1000000000000"], ["--seed", "-1"]):
        # checked before any scene is read: a missing corpus is not reached
        for gt in (corpus, tmp_path / "missing"):
            args = ["evaluate", "--gt", str(gt), "--pred", str(preds), "--out", str(report)]
            assert main([*args, *flags]) == 1, flags
            assert _config_error(capsys).count("\n") == 1, flags
            assert not report.exists(), flags
    base = {"subsets": [{"n_speakers": 1, "n_scenes": 1}], "k_max_values": [1]}
    for bad, word in (({"gate_deg": 0}, "gate"), ({"bootstrap": {"fraction": 0}}, "fraction"),
                      ({"bootstrap": {"fraction": 1.5}}, "fraction"),
                      ({"bootstrap": {"replicates": -5}}, "replicates"),
                      ({"bootstrap": {"replicates": 1001}}, "replicates"), ({"seed": -5}, "seed")):
        sweep = write_config(tmp_path, "sweep.json", {**base, **bad})
        assert main(["sweep", "--config", sweep, "--out", str(tmp_path / "sweep")]) == 1, bad
        err = _config_error(capsys)
        assert word in err and err.count("\n") == 1, bad
        assert not (tmp_path / "sweep").exists(), bad


def test_config_that_is_not_a_json_object_is_a_config_error(tmp_path, capsys):
    corpus = _simulated_corpus(tmp_path)
    capsys.readouterr()
    tcfg = write_config(tmp_path, "t.json", [1])
    assert main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(tmp_path / "p")]) == 1
    _config_error(capsys)
    scfg = write_config(tmp_path, "s.json", "scenario")
    assert main(["simulate", "--config", scfg, "--out", str(tmp_path / "x")]) == 1
    _config_error(capsys)
    # a file that is not UTF-8, or holds an integer too long to convert
    for raw in (b'{"seed": \xff}', b'{"seed": ' + b"1" * 5000 + b"}"):
        (tmp_path / "raw.json").write_bytes(raw)
        assert main(["simulate", "--config", str(tmp_path / "raw.json"), "--out", str(tmp_path / "x")]) == 1
        assert "malformed JSON" in _config_error(capsys)
    # one step past each scenario, observation, corpus-size and seed limit
    past_limits = ({"scenario": {"max_attempts": 0}}, {"scenario": {"max_attempts": 1001}},
                   {"scenario": {"mode": "static", "n_positions": 0}},
                   {"scenario": {"n_positions": 101}},
                   {"observation": {"clutter_rate": math.nextafter(100.0, math.inf)}},
                   # past the spherical-cap area bound, refused before any sampling
                   {"scenario": {"n_positions": 100, "max_attempts": 3}},
                   {"scenario": {"mode": "static", "n_positions": 3, "min_separation_deg": 180}})
    for bad in (*past_limits, {"scenario": {"n_speakers": 101}}, {"n_scenes": 10_001},
                {"seed": -1}, {"scenario": {"duration_s": 10**400}}):
        doc = {**bad, "scenario": {"n_speakers": 1, **bad.get("scenario", {})}}
        scfg = write_config(tmp_path, "s.json", doc)
        assert main(["simulate", "--config", scfg, "--out", str(tmp_path / "x")]) == 1, bad
        assert _config_error(capsys).count("\n") == 1, bad
        assert not (tmp_path / "x").exists(), bad
    scfg = write_config(tmp_path, "s.json", SIM_DOC)
    assert main(["simulate", "--config", scfg, "--out", str(tmp_path / "x"), "--seed", "-1"]) == 1
    assert "seed" in _config_error(capsys)
    assert not (tmp_path / "x").exists()
    # frame counts that round to 0 or to MAX_FRAMES + 1, or overflow round()
    frame_counts = ({"mode": "moving", "duration_s": 0.049, "frame_period_s": 0.1,
                     "gap_len_s": [0.01, 0.02]},
                    {"duration_s": 100000.1, "frame_period_s": 0.1},
                    {"duration_s": 1e308, "frame_period_s": 1e-10},
                    # a period the 6-decimal time_s column cannot carry
                    {"mode": "static", "duration_s": 1e-318, "frame_period_s": 1e-321,
                     "segment_len_s": [1e-320, 1e-319], "gap_len_s": [1e-321, 1e-320]})
    for scenario in frame_counts:
        scfg = write_config(tmp_path, "s.json", {"scenario": {"n_speakers": 1, **scenario}})
        assert main(["simulate", "--config", scfg, "--out", str(tmp_path / "x")]) == 1, scenario
        assert "frame count" in _config_error(capsys), scenario
        assert not (tmp_path / "x").exists(), scenario
    base = {"subsets": [{"n_speakers": 1, "n_scenes": 1}], "k_max_values": [1]}
    one = {"n_speakers": 1, "n_scenes": 1}
    for bad in ({"subsets": [3]}, {"subsets": [{"n_speakers": 1}, 3]},
                {"bootstrap": [1]}, {"tracker": [1]}, {"scenario": "jump"},
                # unknown keys at every level
                {"bootsrap": {"replicates": 0}}, {"bootstrap": {"fractoin": 0.5}},
                {"subsets": [{"n_speakers": 1, "n_scene": 1}]},
                {"scenario": {"typo": 1}}, {"observation": {"typo": 1}},
                # subset names: unique, and one plain path component
                {"subsets": [one, one]}, {"subsets": [one, {**one, "name": "1spk"}]},
                {"subsets": [{**one, "name": "../escaped"}]}, {"subsets": [{**one, "name": "a/b"}]},
                {"subsets": [{**one, "name": ".."}]}, {"subsets": [{**one, "name": ""}]},
                {"subsets": [{**one, "name": 7}]},
                # two k_max values that name one cell; a later subset without scenes
                {"k_max_values": [1, 1.0]},
                {"subsets": [{"n_speakers": 1, "n_scenes": 2}, {"n_speakers": 2, "n_scenes": 0}],
                 "k_max_values": [2]},
                *({"scenario": scenario} for scenario in frame_counts),
                # the limits, and a negative master seed
                *past_limits, {"subsets": [{**one, "n_scenes": 10_001}]},
                {"subsets": [{**one, "n_speakers": 101}], "k_max_values": [None]}, {"seed": -5}):
        cfg = write_config(tmp_path, "sweep.json", {**base, **bad})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 1, bad
        assert _config_error(capsys).count("\n") == 1, bad
        assert not (tmp_path / "sweep").exists(), bad
    assert not (tmp_path / "escaped").exists()


def test_adversary_parameters_checked_once_per_corpus(tmp_path, capsys):
    corpus = _simulated_corpus(tmp_path)
    capsys.readouterr()
    bad_docs = [
        {"type": "splitter", "k": 1.5},
        {"type": "splitter", "k": 0},
        {"type": "splitter"},
        {"type": "swapper", "period_s": 0},
        {"type": "swapper", "period_s": "2"},
        {"type": "teleporter"},
        {"type": 3},
        # each type takes only its own keys
        {"type": "pf", "k": 3, "period_s": 2},
        {"type": "oracle", "k_max": 1},
        {"type": "merger", "k": 2},
        {"type": "splitter", "k": 2, "period_s": 1.0},
        {"type": "swapper", "period_s": 1.0, "k": 2},
    ]
    for doc in bad_docs:
        tcfg = write_config(tmp_path, "adv.json", doc)
        out = tmp_path / "p"
        assert main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(out)]) == 1, doc
        assert _config_error(capsys).count("\n") == 1, doc
        assert not out.exists()


def test_failed_simulate_leaves_no_manifest_over_another_corpus(tmp_path, capsys):
    corpus = _simulated_corpus(tmp_path)
    tcfg = write_config(tmp_path, "oracle.json", {"type": "oracle"})
    # past the cap bound: refused before any write, the old corpus intact
    before = dir_digest(corpus)
    for scenario, code in (({"n_speakers": 2, "n_positions": 100, "max_attempts": 3}, 1),
                           # passes the bound, but 14 positions cannot lie 60 deg apart
                           ({"n_speakers": 2, "n_positions": 14, "max_attempts": 3}, 2)):
        sim = write_config(tmp_path, "sim.json", {**SIM_DOC, "scenario": scenario})
        capsys.readouterr()
        assert main(["simulate", "--config", sim, "--out", str(corpus)]) == code, scenario
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        if code == 1:
            assert "cannot lie" in err and dir_digest(corpus) == before
            continue
        assert "FeasibilityExhausted" in err, err
        assert not (corpus / "manifest.json").exists()
        for argv in (["lint", "--scenes", str(corpus)],
                     ["track", "--config", tcfg, "--scenes", str(corpus),
                      "--out", str(tmp_path / "preds")],
                     ["evaluate", "--gt", str(corpus), "--pred", str(corpus)]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "data error" in err and err.count("\n") == 1 and "Traceback" not in err, err
        assert not (tmp_path / "preds").exists()


def test_track_out_must_not_be_the_corpus(tmp_path, capsys):
    corpus = _simulated_corpus(tmp_path)
    tcfg = write_config(tmp_path, "oracle.json", {"type": "oracle"})
    before = dir_digest(corpus)
    (tmp_path / "link").symlink_to(corpus, target_is_directory=True)
    for out in (corpus, corpus / ".", tmp_path / "x" / ".." / "corpus", tmp_path / "link"):
        capsys.readouterr()
        assert main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(out)]) == 1
        assert _config_error(capsys).count("\n") == 1, out
        assert dir_digest(corpus) == before, out
    assert main(["lint", "--scenes", str(corpus)]) == 0


def test_stale_scenes_beyond_the_manifest_are_a_data_error(tmp_path, capsys):
    sim = write_config(tmp_path, "sim.json", {**SIM_DOC, "n_scenes": 4})
    corpus = tmp_path / "corpus"
    assert main(["simulate", "--config", sim, "--out", str(corpus)]) == 0
    tcfg = write_config(tmp_path, "oracle.json", {"type": "oracle"})
    preds = tmp_path / "preds"
    assert main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(preds)]) == 0
    # simulate removes the scenes of the earlier, larger corpus, and no other file
    (corpus / "notes.txt").write_text("kept")
    sim = write_config(tmp_path, "sim.json", {**SIM_DOC, "n_scenes": 2})
    assert main(["simulate", "--config", sim, "--out", str(corpus)]) == 0
    assert sorted(p.name for p in corpus.iterdir()) == [
        "manifest.json", "notes.txt", "scene_0000.gt.csv", "scene_0000.obs.csv",
        "scene_0001.gt.csv", "scene_0001.obs.csv",
    ]
    assert main(["lint", "--scenes", str(corpus)]) == 0
    # stale scenes put there some other way are still found, by every command
    for sid in ("scene_0002", "scene_0003"):
        for suffix in (".gt.csv", ".obs.csv"):
            (corpus / f"{sid}{suffix}").write_bytes((corpus / f"scene_0000{suffix}").read_bytes())
    capsys.readouterr()
    assert main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(tmp_path / "q")]) == 2
    assert main(["evaluate", "--gt", str(corpus), "--pred", str(preds)]) == 2
    assert main(["lint", "--scenes", str(corpus)]) == 2
    err = capsys.readouterr().err
    assert err.count("extra ['scene_0002', 'scene_0003']") == 3 and "Traceback" not in err
    # a scene missing from the corpus is named too
    (corpus / "scene_0003.gt.csv").unlink()
    (corpus / "scene_0002.gt.csv").unlink()
    (corpus / "scene_0001.gt.csv").unlink()
    assert main(["evaluate", "--gt", str(corpus), "--pred", str(preds)]) == 2
    assert "missing ['scene_0001']" in capsys.readouterr().err


def _edit_first_row(path: Path, column: int, value) -> int:
    """Set one cell of the first data row of a scene CSV; returns that row's frame."""
    header, first, *rest = path.read_text().split("\n")
    cells = first.split(",")
    cells[column] = value(int(cells[0])) if callable(value) else value
    path.write_text("\n".join([header, ",".join(cells), *rest]))
    return int(cells[0])


def test_time_column_is_cross_checked_against_the_frame(tmp_path, capsys):
    corpus = _simulated_corpus(tmp_path)
    oracle = write_config(tmp_path, "oracle.json", {"type": "oracle"})
    splitter = write_config(tmp_path, "splitter.json", {"type": "splitter", "k": 1})
    preds = tmp_path / "preds"
    # within the 1e-6 s tolerance, an extra decimal is accepted
    _edit_first_row(corpus / "scene_0000.obs.csv", 1, lambda f: f"{f * 0.1 + 4e-7:.7f}")
    assert main(["track", "--config", oracle, "--scenes", str(corpus), "--out", str(preds)]) == 0
    _edit_first_row(corpus / "scene_0001.gt.csv", 1, "99.000000")
    capsys.readouterr()
    assert main(["lint", "--scenes", str(corpus)]) == 2
    assert main(["evaluate", "--gt", str(corpus), "--pred", str(preds)]) == 2
    assert main(["track", "--config", splitter, "--scenes", str(corpus),
                 "--out", str(tmp_path / "split")]) == 2
    err = capsys.readouterr().err
    assert err.count("FAILED scene_0001: ParseError: line 2: time_s 99.000000 is not frame") == 3
    # beyond it, an observation row fails its scene too
    _edit_first_row(corpus / "scene_0002.obs.csv", 1, lambda f: f"{f * 0.1 + 2e-6:.7f}")
    assert main(["track", "--config", oracle, "--scenes", str(corpus),
                 "--out", str(tmp_path / "again")]) == 2
    assert "FAILED scene_0002: ParseError: line 2: time_s" in capsys.readouterr().err


def test_crlf_rows_under_an_lf_header_are_a_parse_error(tmp_path, capsys):
    # a source_id ending in "\r" would pass the reader and fail the writer
    corpus = _simulated_corpus(tmp_path)
    obs = corpus / "scene_0001.obs.csv"
    header, *rows = obs.read_text().split("\n")[:-1]
    obs.write_bytes(("\n".join([header, *(row + "\r" for row in rows)]) + "\n").encode())
    oracle = write_config(tmp_path, "oracle.json", {"type": "oracle"})
    capsys.readouterr()
    assert main(["lint", "--scenes", str(corpus)]) == 2
    assert main(["track", "--config", oracle, "--scenes", str(corpus),
                 "--out", str(tmp_path / "preds")]) == 2
    err = capsys.readouterr().err
    assert err.count("FAILED scene_0001: ParseError: line 2: carriage return") == 2, err
    assert err.count("\n") == 2 and "ValueError" not in err, err


def test_manifest_scenario_entry_is_checked(tmp_path, capsys):
    corpus = _simulated_corpus(tmp_path)
    manifest = json.loads((corpus / "manifest.json").read_text())
    pf = write_config(tmp_path, "pf.json", {"birth_frames": 2})
    track = ["track", "--config", pf, "--scenes", str(corpus), "--out", str(tmp_path / "preds")]
    lint = ["lint", "--scenes", str(corpus)]
    far = {**manifest["scenario"], "min_separation_deg": "far"}
    # n_speakers is the pf's default max_active: an integer >= 1
    speakers = [{**manifest["scenario"], "n_speakers": n} for n in ("abc", 0, 2.5, True, 101)]
    # lint reads the mode; an unknown one would skip every per-track check
    mode = {**manifest["scenario"], "mode": 7}
    for scenario, commands in (("jump", [lint, track]), (far, [lint]), (mode, [lint]),
                               *((spk, [lint, track]) for spk in speakers)):
        (corpus / "manifest.json").write_text(json.dumps({**manifest, "scenario": scenario}))
        for argv in commands:
            capsys.readouterr()
            assert main(argv) == 2, (scenario, argv[0])
            err = capsys.readouterr().err
            assert "data error: ParseError: bad manifest" in err, err
            assert err.count("\n") == 1 and "Traceback" not in err, err
        assert not (tmp_path / "preds").exists(), scenario
    # a manifest naming more scenes than four-digit names hold
    (corpus / "manifest.json").write_text(json.dumps({**manifest, "n_scenes": 10_001}))
    capsys.readouterr()
    assert main(lint) == 2 and main(track) == 2
    err = capsys.readouterr().err
    assert err.count("data error: ParseError: bad manifest") == 2 and "Traceback" not in err, err
    assert not (tmp_path / "preds").exists()


def test_sweep_checks_every_cell_tracker_before_any_work(tmp_path, capsys):
    base = {"subsets": [{"n_speakers": 1, "n_scenes": 1}], "k_max_values": [1]}
    for bad, word in (({"tracker": {"typo": 1}}, "typo"), ({"k_max_values": [1, 2.5]}, "k_max"),
                      ({"subsets": [{"n_speakers": 1, "n_scenes": 1}, {"n_speakers": 0.5}]},
                       "n_speakers"),
                      ({"tracker": {"type": "oracle"}}, "sweep supports only the pf tracker")):
        cfg = write_config(tmp_path, "sweep.json", {**base, **bad})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 1, bad
        assert word in _config_error(capsys), bad
        assert not (tmp_path / "sweep").exists(), bad


@pytest.mark.parametrize("stage, failed", [("pf_tracker", "had failures"),
                                           ("evaluate_scene", "evaluation failed")])
def test_sweep_cell_with_a_failed_scene_is_a_data_error(stage, failed, tmp_path, capsys,
                                                        monkeypatch):
    real, calls = getattr(cli, stage), []

    def fail_once(*args):
        calls.append(None)
        if len(calls) == 1:
            raise DoatrackError("injected scene failure")
        return real(*args)

    monkeypatch.setattr(cli, stage, fail_once)
    doc = {"subsets": [{"n_speakers": 1, "n_scenes": 2}], "k_max_values": [2],
           "scenario": {"duration_s": 5.0}, "bootstrap": {"replicates": 0}}
    with pytest.raises(DoatrackError, match=f"sweep cell 1spk/kmax_2 {failed}"):
        cli.run_sweep(doc, tmp_path / "direct", 0)
    calls.clear()
    cfg = write_config(tmp_path, "sweep.json", doc)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")]) == 2
    err = capsys.readouterr().err
    assert f"data error: DoatrackError: sweep cell 1spk/kmax_2 {failed}" in err, err
    assert "scene_0000: DoatrackError: injected scene failure" in err, err
    assert err.count("\n") == 1 and "Traceback" not in err, err


def test_a_fault_in_a_scene_worker_propagates(tmp_path, monkeypatch):
    # only data and file errors become FAILED lines; a bare ValueError is
    # a fault of the program, not of the scene
    cfg = write_config(tmp_path, "sim.json", SIM_DOC)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "corpus")]) == 0

    def broken(*args):
        raise ValueError("injected fault")

    monkeypatch.setattr(cli, "pf_tracker", broken)
    with pytest.raises(ValueError, match="injected fault"):
        cli.track_corpus(tmp_path / "corpus", {"type": "pf", "seed": 1}, tmp_path / "preds")


def test_sweep_produces_rows_per_subset_and_k(tmp_path):
    doc = {
        "subsets": [{"n_speakers": 1, "n_scenes": 3}],
        "k_max_values": [1, None],
        "scenario": {"mode": "jump"},
        "observation": {"angular_noise_sigma_deg": 1.0},
        "tracker": {"birth_frames": 2, "death_frames": 2},
        "gate_deg": 20.0,
        "bootstrap": {"replicates": 0},
        "seed": 13,
    }
    cfg = write_config(tmp_path, "sweep.json", doc)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "sweep.json").read_text())
    assert list(summary["subsets"]) == ["1spk"]
    assert list(summary["subsets"]["1spk"]) == ["1", "inf"]
    long_lines = (out / "sweep_long.csv").read_text().strip().split("\n")
    assert long_lines[0] == "subset,k_max,metric,mean,std"
    ass_re_rows = [l for l in long_lines if ",ass_re," in l]
    assert len(ass_re_rows) == 2
    # replicates=0: std column empty
    assert all(l.endswith(",") for l in ass_re_rows)


def test_oracle_aggregate_std_is_small_on_large_subset(tmp_path):
    # stable metrics on a 150-scene subset spread well below 1%
    doc = {
        "scenario": {"n_speakers": 1},
        "observation": {"angular_noise_sigma_deg": 1.0, "p_miss": 0.02},
        "n_scenes": 150,
        "seed": 77,
    }
    corpus = _simulated_corpus(tmp_path, doc)
    tcfg = write_config(tmp_path, "oracle.json", {"type": "oracle"})
    preds = tmp_path / "preds"
    assert main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(preds)]) == 0
    out = tmp_path / "eval"
    assert main(["evaluate", "--gt", str(corpus), "--pred", str(preds), "--out", str(out)]) == 0
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["metrics"]["ass_pr"]["mean"] == 1.0
    assert agg["metrics"]["ass_pr"]["std"] < 0.01
    assert agg["metrics"]["ass_re"]["std"] < 0.01


def test_sweep_trend_assertion_pass_and_fail(tmp_path, capsys):
    base = {
        "subsets": [{"n_speakers": 2, "n_scenes": 6}],
        "scenario": {"segment_len_s": [1.0, 4.0], "gap_len_s": [1.0, 3.0]},
        "observation": {"angular_noise_sigma_deg": 2.0},
        "tracker": {"birth_frames": 2, "death_frames": 2},
        "bootstrap": {"replicates": 20},
        "seed": 3,
    }
    ok = write_config(tmp_path, "ok.json", {**base, "k_max_values": [2, None]})
    assert main(["sweep", "--config", ok, "--out", str(tmp_path / "ok"), "--assert-trends"]) == 0
    # a series that is too short, or holds a metric no scene defined
    by_k = json.loads((tmp_path / "ok" / "sweep.json").read_text())["subsets"]["2spk"]
    too_short = [f"{m}: series undefined or too short" for m in cli.TREND_DIRECTIONS]
    assert cli.check_trends(by_k, ["2"]) == too_short
    by_k["inf"]["metrics"]["tsr"]["mean"] = None
    assert cli.check_trends(by_k, ["2", "inf"]) == ["tsr: series undefined or too short"]
    # reversing the budget order inverts every trend: exit code 3
    bad = write_config(tmp_path, "bad.json", {**base, "k_max_values": [None, 2]})
    assert main(["sweep", "--config", bad, "--out", str(tmp_path / "bad"), "--assert-trends"]) == 3
    assert "TREND VIOLATION" in capsys.readouterr().err


def test_evaluate_reports_grid_mismatch_per_scene(tmp_path, capsys):
    corpus = _simulated_corpus(tmp_path)
    tcfg = write_config(tmp_path, "oracle.json", {"type": "oracle"})
    preds = tmp_path / "preds"
    main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(preds)])
    grid, _ = read_manifest(preds / "manifest.json")
    write_manifest(FrameGrid(grid.frame_period * 2, grid.n_frames), preds / "manifest.json")
    code = main(["evaluate", "--gt", str(corpus), "--pred", str(preds)])
    assert code == 2
    assert "GridMismatch" in capsys.readouterr().err


def test_usage_error_for_missing_config(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1
    # argparse's own usage errors exit 1 too, with one error line
    for argv in (["simulate", "--out", str(tmp_path / "x")],
                 ["evaluate", "--gt", "c", "--pred", "p", "--seed", "abc"], ["track"], []):
        capsys.readouterr()
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "Traceback" not in err, err
    assert not (tmp_path / "x").exists()
    assert main(["sweep", "--help"]) == 0
    assert "--assert-trends" in capsys.readouterr().out


def test_jobs_flag_matches_serial_run(tmp_path):
    corpus = _simulated_corpus(tmp_path)
    tcfg = write_config(tmp_path, "pf.json", {"type": "pf", "seed": 9})
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(serial)]) == 0
    assert main([
        "track", "--config", tcfg, "--scenes", str(corpus), "--out", str(parallel),
        "--jobs", "2",
    ]) == 0
    assert dir_digest(serial) == dir_digest(parallel)
    eval_serial = tmp_path / "eval_serial"
    eval_parallel = tmp_path / "eval_parallel"
    assert main(["evaluate", "--gt", str(corpus), "--pred", str(serial), "--out", str(eval_serial)]) == 0
    assert main([
        "evaluate", "--gt", str(corpus), "--pred", str(parallel), "--out", str(eval_parallel),
        "--jobs", "2",
    ]) == 0
    assert dir_digest(eval_serial) == dir_digest(eval_parallel)


def test_pf_jobs_flag_matches_serial_run_under_clutter_and_id_reuse(tmp_path):
    # three speakers, clutter and an id budget below the speaker count:
    # births, deaths and id reuse reshape each scene's particle stack
    corpus = _simulated_corpus(tmp_path, {**SIM_DOC, "scenario": {"n_speakers": 3}, "n_scenes": 4})
    tcfg = write_config(
        tmp_path, "pf.json",
        {"type": "pf", "k_max": 2, "max_active": 2, "birth_frames": 2, "death_frames": 2, "seed": 5},
    )
    runs = {}
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main([
            "track", "--config", tcfg, "--scenes", str(corpus), "--out", str(out), "--jobs", jobs,
        ]) == 0
        runs[jobs] = dir_digest(out)
    assert runs["1"] == runs["2"]
    assert sum(name.endswith(".pred.csv") for name in runs["1"]) == 4


def test_pf_particle_stack_limits_are_config_errors(tmp_path, capsys):
    corpus = _simulated_corpus(tmp_path)
    capsys.readouterr()
    for key, value in (("n_particles", 100_001), ("max_active", 101), ("seed", -1),
                       ("likelihood_sigma_deg", 1e-170)):  # 1 / sigma**2 divides by zero
        tcfg = write_config(tmp_path, "pf.json", {"type": "pf", key: value})
        out = tmp_path / "preds"
        assert main(["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(out)]) == 1
        err = _config_error(capsys)
        assert key.removesuffix("_deg") in err and err.count("\n") == 1, err
        assert not out.exists()


def test_jobs_clamped_to_available_cpus(monkeypatch):
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    scenes = ["scene_0000", "scene_0001", "scene_0002"]
    for cpus, jobs, pools in ((2, 64, [2]), (8, 2, [2]), (1, 64, []), (8, 1, [])):
        started.clear()
        monkeypatch.setattr(cli, "_available_cpus", lambda: cpus)
        results, failures = _map_scenes(lambda i, sid: (i, sid), scenes, jobs)
        assert results == list(enumerate(scenes)) and failures == [], (cpus, jobs)
        assert started == pools, (cpus, jobs)
    monkeypatch.undo()
    assert _available_cpus() >= 1


# Every scenario and observation key, degree keys and tuple keys included.
# The manifest bytes were recorded before the config converter was
# generalized; the echo must not move by one byte.
FULL_SIM_DOC = {
    "scenario": {
        "n_speakers": 2, "mode": "jump", "n_positions": 5, "min_separation_deg": 60,
        "duration_s": 30, "frame_period_s": 0.1, "segment_len_s": [1, 4.5],
        "gap_len_s": [0.5, 2], "angular_speed_deg_s": 12.5, "exclude_previous": False,
        "max_attempts": 300,
    },
    "observation": {"angular_noise_sigma_deg": 3, "p_miss": 0.1, "clutter_rate": 0.25},
    "n_scenes": 1,
    "seed": 17,
}

FULL_SIM_MANIFEST = """{
  "frame_period_s": 0.1,
  "n_frames": 300,
  "n_scenes": 1,
  "observation": {
    "angular_noise_sigma_deg": 3.0000000000000004,
    "clutter_rate": 0.25,
    "p_miss": 0.1
  },
  "scenario": {
    "angular_speed_deg_s": 12.5,
    "duration_s": 30.0,
    "exclude_previous": false,
    "frame_period_s": 0.1,
    "gap_len_s": [
      0.5,
      2.0
    ],
    "max_attempts": 300,
    "min_separation_deg": 59.99999999999999,
    "mode": "jump",
    "n_positions": 5,
    "n_speakers": 2,
    "segment_len_s": [
      1.0,
      4.5
    ]
  },
  "seed": 17
}
"""


def test_simulate_manifest_echo_is_pinned(tmp_path):
    out = tmp_path / "corpus"
    cfg = write_config(tmp_path, "sim.json", FULL_SIM_DOC)
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "manifest.json").read_bytes() == FULL_SIM_MANIFEST.encode()


def test_tracker_config_from_every_json_key():
    doc = {
        "k_max": 6, "max_active": 3, "assoc_gate_deg": 12, "birth_frames": 4,
        "death_frames": 7, "n_particles": 50, "process_noise_sigma_deg": 0.75,
        "likelihood_sigma_deg": 4, "seed": 99,
    }
    assert config_from_json(TrackerConfig, doc, "tracker") == TrackerConfig(
        max_active=3,
        k_max=6,
        assoc_gate=0.20943951023931956,
        birth_frames=4,
        death_frames=7,
        n_particles=50,
        process_noise_sigma=0.013089969389957472,
        likelihood_sigma=0.06981317007977318,
        seed=99,
    )


def test_manifest_n_frames_and_frame_period_are_never_reinterpreted(tmp_path, capsys):
    corpus = _simulated_corpus(tmp_path)
    manifest = json.loads((corpus / "manifest.json").read_text())
    bad = [("n_frames", 2.7), ("n_frames", True), ("n_frames", "3"), ("n_frames", MAX_FRAMES + 1),
           ("frame_period_s", "0.1"), ("frame_period_s", False), ("frame_period_s", float("inf"))]
    for key, value in bad:
        (corpus / "manifest.json").write_text(json.dumps({**manifest, key: value}))
        capsys.readouterr()
        assert main(["lint", "--scenes", str(corpus)]) == 2, (key, value)
        err = capsys.readouterr().err
        assert f"data error: ParseError: bad manifest {corpus / 'manifest.json'}: {key} must be" in err, err
    # a period the 6-decimal time_s column cannot carry: one data error, nothing written
    (corpus / "manifest.json").write_text(json.dumps({**manifest, "frame_period_s": 1e-321}))
    tcfg = write_config(tmp_path, "oracle.json", {"type": "oracle"})
    out = tmp_path / "out"
    for argv in (["lint", "--scenes", str(corpus)],
                 ["track", "--config", tcfg, "--scenes", str(corpus), "--out", str(out)],
                 ["evaluate", "--gt", str(corpus), "--pred", str(corpus), "--out", str(out)]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "frame_period must be >= 1e-05 s" in err, err
        assert not out.exists(), argv
