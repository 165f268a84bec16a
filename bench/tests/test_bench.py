"""Self-tests of the benchmark: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import FAMILIES, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _hook_targets():
    """(owner, attribute) for every place a hook replaces, found independently of Tracer."""
    import importlib

    out = []
    for modname, path, _, _ in spans.HOOKS:
        module = importlib.import_module(modname)
        if "." in path:
            clsname, attr = path.split(".")
            out.append((getattr(module, clsname), attr))
        else:
            original = getattr(module, path)
            out.extend((m, path) for name, m in sys.modules.items()
                       if name.startswith("fglab") and m.__dict__.get(path) is original)
    return out


def test_wrappers_install_and_restore():
    from fglab import adams, cannibal

    targets = _hook_targets()
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr in targets]
    # cannibal imported these names from adams: they must be wrapped there too
    assert (cannibal, "psi_tensor_apoly") in [(o, a) for o, a in targets]
    tracer = spans.Tracer()
    with tracer:
        for owner, attr, original in before:
            assert owner.__dict__[attr] is not original, (owner, attr)
        assert cannibal.psi_tensor_apoly is adams.psi_tensor_apoly
        start = time.perf_counter()
        red = adams.DReducer(4, adams.gen_2structure_relations(4))
        cannibal.thom_psi_dk(3, cannibal.theta3_direct(3), red)
        wall = time.perf_counter() - start
    for owner, attr, original in before:
        assert owner.__dict__[attr] is original, (owner, attr)

    summary = tracer.summary()
    for name in ("adams.relations", "adams.reducer_build", "cannibal.theta3",
                 "cannibal.thom_psi", "adams.psi_tensor", "adams.reduce", "series.mul"):
        assert summary[name]["calls"] >= 1, name
    by_index = tracer.spans
    parents = {by_index[p][0] for name, _, _, p in by_index
               if name == "adams.psi_tensor" and p >= 0}
    assert parents == {"cannibal.thom_psi"}
    assert tracer.counts["adams.relations_n"] >= 1
    assert tracer.root_s() <= wall


def test_self_time_and_nesting():
    t = spans.Tracer()
    t.spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["a", 2.0, 3.0, 1],   # a nested inside itself: not counted twice in total
        ["b", 5.0, 6.0, 0],
        ["c", 11.0, 12.0, -1],
    ]
    s = t.summary()
    assert s["a"] == {"calls": 2, "total_s": 10.0, "self_s": 6.0 + 1.0}
    assert s["b"] == {"calls": 2, "total_s": 4.0, "self_s": 2.0 + 1.0}
    assert t.root_s() == 11.0
    assert sum(row["self_s"] for row in s.values()) == t.root_s()


def test_tampered_stdout_is_flagged():
    w = WORKLOADS["paper"]
    op = run.run_op(w.argv)
    assert run.problems(op, w) == []
    tampered = replace(op, stdout=op.stdout.replace(b"MATCH", b"MATCH ", 1))
    assert any("sha256" in p for p in run.problems(tampered, w))
    assert run.problems(replace(op, exit_code=0), w)
    assert run.problems(replace(op, stderr=b"Traceback (most recent call last):"), w)


def test_hung_child_is_killed(monkeypatch):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.5)
    op = run.run_child(("-c", "import time; time.sleep(60)"))
    assert op.exit_code != 0
    assert op.wall_s < 30


def test_mismatch_counts_as_failed_not_timed():
    wrong = replace(WORKLOADS["paper"], stdout_sha256="0" * 64)
    result = run.gated_run(wrong, seed=5, seconds=0.1, trace=0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"] == {}


def test_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += list(WORKLOADS) + list(FAMILIES) + [n for n, _ in spans.LAYER_METRICS]
    for n in names:
        assert NAME.fullmatch(n), n
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.LAYER_METRICS)
    assert len({m["name"] for m in bench["per_layer"]}) == len(bench["per_layer"])


def test_golden_tables_match_package():
    from fglab import golden_data

    assert tuple(tid for tid, _, _ in golden_data.TABLES) == spans.GOLDEN_TABLES


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric(trace, section):
    res = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "paper",
                          "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
                         capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in bench[section]}
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in out["metrics"].values())
    else:
        # paper reaches every golden table
        assert all(out["metrics"][f"golden_data.{t}_s"]["value"] > 0 for t in spans.GOLDEN_TABLES)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout == ""
