"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
# roundtrip is not a BENCHMARK.json workload, but the harness still runs it.
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]] + ["roundtrip"])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "failed_ratio: 0/" in proc.stdout
        assert "op_s.tail: " in proc.stdout


def test_wrong_expected_value_is_counted_not_fatal(monkeypatch, capsys):
    monkeypatch.setitem(run.EXPECTED_ANALYZE, "zorn", (8, 1, 1, 15, True))
    code = run.main(["--workload", "analyze-dim16", "--seed", "3", "--seconds", "1", "--smoke"])
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert "failed_ratio: 1/2 = 0.5000" in out
    assert ("FAILED analyze zorn: analyze gave (8, 1, 1, 14, True), "
            "expected (8, 1, 1, 15, True)") in out


def test_split_check_rejects_broken_outputs(tmp_path):
    sys.path.insert(0, str(run.SRC))
    from altrings import catalog, jsonio, liederiv, peirce

    algebra = catalog.zorn()
    path = tmp_path / "zorn.json"
    jsonio.save_algebra(algebra, path)
    n, prods = run.read_products(path)
    budget = liederiv.SampleBudget(seed=5)
    spec = catalog.random_lie_derivation(algebra, budget)
    ctx = peirce.make_context(algebra, algebra.basis_element(0))
    result = liederiv.decompose(ctx, spec, budget)
    linear, terms = run.parse_map(jsonio.mapspec_to_dict(spec))
    delta = [list(r) for r in result.delta.rows]
    tau = [list(r) for r in result.tau.linear.rows]
    tau_terms = tuple((t.functional, t.poly, t.central) for t in result.tau.terms)
    assert run.split_failure(n, prods, linear, terms, delta, tau, tau_terms) is None

    delta[1][2] += 1
    assert "differs from the map" in run.split_failure(n, prods, linear, terms, delta, tau,
                                                       tau_terms)
    tau[1][2] -= 1  # reassembles again, but delta is no longer a derivation
    assert "Leibniz" in run.split_failure(n, prods, linear, terms, delta, tau, tau_terms)
    assert "central terms" in run.split_failure(n, prods, linear, terms, delta, tau, ())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "roundtrip", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
