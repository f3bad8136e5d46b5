"""Smoke tests of the experiment scripts: exit 0, the printed tables,
the sweep trees they write, and exit 1 on bad input.

The tables were recorded from the scripts' own output; they pin the
sweep path end to end. Both scripts score predictions read back from
their CSV files. The in-memory evaluation path (evaluate_scene on
TrackSets that never went through a CSV) is pinned by acceptance
criteria 2-8 and by
test_reporting.py::test_scores_do_not_move_when_time_runs_backwards.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

DISCONTINUITY_TABLE = """\
 variant     TSR     TFR   AssRe   AssPr  TSR=0
  moving   0.000   0.208   0.978   1.000   100%
  zeroed   0.258   0.367   0.073   1.000     0%
    jump   0.308   0.417   0.046   1.000     0%
"""

KMAX_TABLE = """\
 subset  k_max   ass_re   ass_pr    ass_a      tsr      tfr
-----------------------------------------------------------
   1spk      1    0.944    1.000    0.944    0.000    0.058
   1spk      2    0.806    1.000    0.806    0.017    0.075
   1spk      4    0.558    1.000    0.558    0.050    0.108
   1spk    inf    0.075    1.000    0.075    0.225    0.283
   2spk      2    0.516    0.547    0.374    0.275    0.425
   2spk      4    0.434    0.575    0.318    0.292    0.442
   2spk      8    0.305    0.651    0.237    0.325    0.475
   2spk    inf    0.076    1.000    0.076    0.442    0.592
   3spk      3    0.360    0.378    0.232    0.408    0.675
   3spk      6    0.306    0.429    0.205    0.433    0.700
   3spk     12    0.230    0.508    0.165    0.458    0.725
   3spk    inf    0.082    1.000    0.082    0.617    0.883
"""


def run_script(name: str, *args: str, cwd: Path, code: int = 0) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    assert done.returncode == code, done.stderr
    return done


def _digests(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_discontinuity_comparison_prints_its_table(tmp_path):
    # writes one sweep per variant, and a rerun writes the same bytes
    trees = []
    for run in ("a", "b"):
        out = tmp_path / run
        printed = run_script(
            "run_discontinuity_comparison.py", "--scenes", "2", "--out", str(out), cwd=tmp_path
        ).stdout
        assert printed == DISCONTINUITY_TABLE + f"\nfull reports under {out}/\n"
        for variant in ("moving", "zeroed", "jump"):
            assert (out / variant / "sweep.json").is_file()
        trees.append(_digests(out))
    assert trees[0] == trees[1]


def test_kmax_sweep_prints_its_table_and_writes_the_tree(tmp_path):
    out = tmp_path / "sweep"
    printed = run_script(
        "run_kmax_sweep.py", "--scenes", "2", "--out", str(out), cwd=tmp_path
    ).stdout
    assert printed == KMAX_TABLE + f"\nfull reports under {out}/\n"
    for j in (1, 2, 3):
        assert (out / f"{j}spk" / "sweep.json").is_file()
        assert (out / f"{j}spk" / "sweep_long.csv").is_file()


# Each bad input, and the key its one error line names.
BAD_INPUT_KEYS = {"--scenes=0": "n_scenes", "--seed=-1": "seed",
                  "--speakers 1 0": "n_speakers", "--jobs=0": "jobs"}


@pytest.mark.parametrize("script, bad", [
    *((script, bad) for script in ("run_kmax_sweep.py", "run_discontinuity_comparison.py")
      for bad in ("--scenes=0", "--seed=-1")),
    # the k_max script alone takes --speakers and --jobs; its bad second
    # subset is refused before the first subset's tree is written
    ("run_kmax_sweep.py", "--speakers 1 0"),
    ("run_kmax_sweep.py", "--jobs=0"),
])
def test_bad_input_exits_1_with_one_line_and_writes_nothing(tmp_path, script, bad):
    out = tmp_path / "out"
    done = run_script(script, *bad.split(), "--out", str(out), cwd=tmp_path, code=1)
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1 and "config error" in done.stderr
    assert f" {BAD_INPUT_KEYS[bad]} " in done.stderr
    assert not out.exists()
