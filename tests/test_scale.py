"""The scale probe of tools/scale.py, run at its tiny size."""

import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "scale.py"


def _load():
    spec = importlib.util.spec_from_file_location("scale", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_probe_runs_every_command_and_reports_one_json_object(tmp_path):
    # a copy of src, probed where bytecode may be written: the probe's
    # children keep theirs under its own temporary directory
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--tiny", "--rounds", "1", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert list(tmp_path.rglob("__pycache__")) == []
    report = json.loads(done.stdout)
    assert report["failures"] == [] and report["rounds"] == 1
    assert list(report["commands"]) == list(_load().commands(tiny=True))
    for name, entry in report["commands"].items():
        assert len(entry["sha256"]) == 1, name
        (tree,) = entry["trees"]
        assert len(tree["wall_s"]) == len(tree["cpu_s"]) == len(tree["maxrss_mb"]) == 1
        assert tree["median_wall_s"] > 0 and tree["median_maxrss_mb"] > 0
    # mul --p 2 --n 2 "1*[2,1]+2*[1,1]" "1*[2]-3*[1]", as the command line prints it
    mul = subprocess.run(
        [sys.executable, "-m", "heckealg.cli", *report["commands"]["mul"]["argv"]],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=60,
    )
    assert report["commands"]["mul"]["sha256"] == [hashlib.sha256(mul.stdout).hexdigest()]


def test_a_digest_that_differs_between_trees_fails_the_probe(monkeypatch):
    scale = _load()

    def fake(tree, argv, cache, scratch):
        return {"exit": 0, "stderr": "", "wall_s": 0.1, "cpu_s": 0.1, "maxrss_mb": 20.0,
                "sha256": "same" if argv[0] != "mul" or tree == "old" else "changed"}

    monkeypatch.setattr(scale, "run", fake)
    report, failures = scale.probe(["old", "new"], 2, tiny=True)
    assert failures == ["mul: stdout digests differ: ['changed', 'same']"]
    assert report["commands"]["mul"]["trees"][1]["wall_s"] == [0.1, 0.1]


def test_a_warm_cache_goes_only_to_the_commands_that_take_cache(tmp_path):
    scale = _load()
    report, failures = scale.probe([str(ROOT)], 1, warm_cache=str(tmp_path), tiny=True)
    assert failures == []
    # every command in CACHED is given a store, but only the two that ask
    # for b write one: a is computed, never stored
    stores = sorted(path.name for path in (tmp_path / "tree0").iterdir())
    argvs = list(scale.commands(tiny=True).values())
    assert stores == ["cmd3", "cmd5"]
    assert [" ".join(argvs[k][:2]) for k in (3, 5)] == ["table b", "verify inverse"]
    assert all(" ".join(argvs[k][:2]) in scale.CACHED for k in (2, 3, 4, 5, 6, 7))
