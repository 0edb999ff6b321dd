"""Checks of the benchmark itself: every workload generator against the
sympy oracle at a small size, seeded determinism, and one short run of the
benchmark command in each tracing mode."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads as wl

sys.path.insert(0, str(wl.ROOT / "src"))
sys.path.insert(0, str(wl.ROOT / "tests"))

from support import brute_homology  # noqa: E402

from mbhomology.cli import morse_from_doc, presentation_from_doc  # noqa: E402
from mbhomology.flowdata import build_multicomplex, morse_to_flow  # noqa: E402
from mbhomology.morse import morse_complex  # noqa: E402
from mbhomology.multicomplex import totalize  # noqa: E402

HERE = Path(__file__).resolve().parent
SMALL = {"torus-grid": 3, "bott-twist": 3, "dim-padded": 4, "morse-random": 4}


def oracle_table(doc, degrees):
    if doc["kind"] == "morse":
        fp = morse_to_flow(morse_from_doc(doc))
    else:
        fp = presentation_from_doc(doc)
    cx = totalize(build_multicomplex(fp, check=True)).complex
    return tuple(brute_homology(cx, k) for k in degrees)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generator_matches_sympy_oracle(workload):
    calls = range(len(wl.PADDED_NAMES)) if workload == "dim-padded" \
        else range(2)
    for call in calls:
        doc, _, table = wl.make(workload, 7, call, SMALL[workload])
        assert oracle_table(doc, range(len(table))) == table


def test_morse_answer_matches_critical_point_complex():
    doc, _, table = wl.make("morse-random", 11, 0, 5)
    cm = morse_complex(morse_from_doc(doc))
    assert tuple(brute_homology(cm, k) for k in range(4)) == table


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_documents_follow_the_seed(workload):
    def texts(seed):
        return [wl.canonical(wl.make(workload, seed, call, SMALL[workload])[0])
                for call in range(3)]

    first = texts(5)
    assert first == texts(5)
    assert len(set(first)) == len(first)
    assert first != texts(6)


def run_bench(script, *args, cwd=wl.ROOT):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_prints_every_declared_metric(trace):
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text("utf-8"))
    done = run_bench(HERE / "run.py", "--workload", "torus-grid", "--seed",
                     "3", "--seconds", "0.3", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    if trace == "1":
        layers = {k: v["value"] for k, v in result["metrics"].items()}
        assert layers["chain.homology_s"] > 0
        assert layers["morse.phi_s"] == 0
        assert layers["input.cells"] == 6 * 5 * 5


def test_refuses_a_window_above_the_limit():
    done = run_bench(HERE / "run.py", "--workload", "torus-grid", "--seed",
                     "1", "--seconds", "121", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path / HERE.name / "run.py", "--workload",
                     "torus-grid", "--seed", "1", "--seconds", "1", "--trace",
                     "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
