#!/usr/bin/env python3
"""altrings benchmark: one closed-loop client, three workloads, exact output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (one op = one unit of user-visible work):

  analyze-dim16   cold `altrings analyze --json FILE`, one fresh process per op,
                  over the sedenions, matrix:4 and sum(zorn|zorn).
  roundtrip       in-process, warm per-algebra context: check_lie_law ->
                  check_hypotheses -> decompose on pre-generated maps, over
                  zorn, matrix:3 and matrix:4.  Not in BENCHMARK.json, whose
                  time budget allows long enough runs for two workloads only.
  cli-cold-small  cold CLI processes (analyze, peirce, decompose -o, fuzz) on
                  zorn and matrix:3.

All inputs are generated from --seed before anything is timed: algebra files
through the catalog constructors and `jsonio.save_algebra`, map files through
`catalog.random_lie_derivation` and `jsonio.save_mapspec`.  Ops run one after
another in rotation over the op list, at least one whole pass, until --seconds
of op time have been measured.
Every op's output is checked against expectations held here, not against the
report's own `ok`; a failing op is counted and the run goes on.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the run repeats its ops with the span tracer installed
(tracer.py) and carries the per-layer metrics instead.  Lines before it are a
human-readable record of the run.  --smoke runs one pass on the small
algebras only, to test the harness itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SEDENIONS = "cd:-1,-1,-1,-1"
SUM_ZORN = "sum(zorn|zorn)"

# (dim, nucleus_dim, center_dim, derivation_dim, is_alternative)
EXPECTED_ANALYZE = {
    "zorn": (8, 1, 1, 14, True),
    "matrix:3": (9, 9, 1, 8, True),
    "matrix:4": (16, 16, 1, 15, True),
    SEDENIONS: (16, 1, 1, 14, False),
    SUM_ZORN: (16, 2, 2, 28, True),
}
ANALYZE_KEYS = ("dim", "nucleus_dim", "center_dim", "derivation_dim", "is_alternative")
EXPECTED_PEIRCE_DIMS = {"zorn": (1, 3, 3, 1), "matrix:3": (1, 2, 2, 4)}

# The sedenions are not alternative and the canonical idempotent of
# sum(zorn|zorn) fails corner condition 2, so neither is used for peirce,
# decompose or fuzz: they would only add failures.
WORKLOADS = {
    "analyze-dim16": {"algebras": (SEDENIONS, "matrix:4", SUM_ZORN),
                      "smoke": ("zorn", "matrix:3"), "commands": ("analyze",)},
    "roundtrip": {"algebras": ("zorn", "matrix:3", "matrix:4"), "smoke": ("zorn",)},
    "cli-cold-small": {"algebras": ("zorn", "matrix:3"), "smoke": ("zorn", "matrix:3"),
                       "commands": ("analyze", "peirce", "decompose", "fuzz")},
}
ROUNDTRIP_MAPS = 6          # maps per algebra in one roundtrip pass
SAMPLES = 20                # the CLI's default --samples
FUZZ_TRIALS = 4
IMPORT_REPEATS = 7          # cold `import altrings.cli` samples for setup_s, plus one per pass
SETUP_REPEATS = 3           # cold roundtrip set-ups for setup_s
TAIL_PERCENTILES = (99, 95, 90, 75)

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("linalg.elim.calls", "calls/op"), ("linalg.elim.self_s", "s/op"),
    ("linalg.elim.cells", "cells/op"),
    ("linalg.matmul.calls", "calls/op"), ("linalg.matmul.self_s", "s/op"),
    ("linalg.member.calls", "calls/op"), ("linalg.member.self_s", "s/op"),
    ("linalg.self_s", "s/op"),
    ("algebra.mul_vec.calls", "calls/op"), ("algebra.mul_vec.self_s", "s/op"),
    ("algebra.mult_matrix.calls", "calls/op"), ("algebra.mult_matrix.self_s", "s/op"),
    ("algebra.identities.calls", "calls/op"), ("algebra.identities.self_s", "s/op"),
    ("algebra.self_s", "s/op"),
    ("structure.nucleus.self_s", "s/op"), ("structure.derivation_algebra.self_s", "s/op"),
    ("structure.is_derivation.calls", "calls/op"), ("structure.is_derivation.self_s", "s/op"),
    ("structure.self_s", "s/op"),
    ("structure.cache.hit_ratio", "ratio"), ("structure.cache.lookups", "calls/op"),
    ("peirce.make_context.self_s", "s/op"), ("peirce.check_conditions.self_s", "s/op"),
    ("peirce.verify_relations.self_s", "s/op"), ("peirce.self_s", "s/op"),
    ("liederiv.check_lie_law.self_s", "s/op"), ("liederiv.check_hypotheses.self_s", "s/op"),
    ("liederiv.normalize.self_s", "s/op"), ("liederiv.decompose.self_s", "s/op"),
    ("liederiv.split_diagonal.calls", "calls/op"), ("liederiv.split_diagonal.self_s", "s/op"),
    ("liederiv.self_s", "s/op"),
    ("catalog.self_s", "s/op"),
    ("jsonio.load.self_s", "s/op"), ("jsonio.save.self_s", "s/op"), ("jsonio.bytes", "bytes/op"),
    ("cli.main.self_s", "s/op"), ("cli.startup_s", "s/op"),
    ("trace.op_s", "s/op"), ("trace.untraced_op_s", "s/op"),
    ("trace.overhead_ratio", "ratio"), ("trace.unattributed_s", "s/op"),
)
MODULES = ("linalg", "algebra", "structure", "peirce", "liederiv", "catalog", "jsonio", "cli")
# Spans whose durations are printed per op label, next to the ROADMAP baseline.
FIGURE_SPANS = ("structure.derivation_algebra", "structure.nucleus", "algebra.check_alternative")


class Op:
    """One unit of work: a CLI argv, or a roundtrip (algebra, map) pair."""

    def __init__(self, label: str, recipe: str, command: str, args=(), map_index: int = 0):
        self.label = label
        self.recipe = recipe
        self.command = command
        self.args = list(args)
        self.map_index = map_index


# -- independent output checks ------------------------------------------------


def read_products(path: Path) -> tuple[int, dict]:
    """Structure constants of an algebra file as {(i, j): [(k, c), ...]}, zeros dropped."""
    data = json.loads(path.read_text(encoding="utf-8"))
    prods = {}
    for entry in data["constants"]:
        row = [(k, Fraction(x)) for k, x in enumerate(entry["value"])]
        prods[(entry["i"], entry["j"])] = [(k, c) for k, c in row if c]
    return data["dim"], prods


def leibniz_failure(n: int, prods: dict, d) -> str | None:
    """First basis pair where d(b_i b_j) != d(b_i) b_j + b_i d(b_j); column c of d is d(b_c)."""
    for i in range(n):
        for j in range(n):
            lhs = [Fraction(0)] * n
            for m, c in prods.get((i, j), ()):
                for k in range(n):
                    if d[k][m]:
                        lhs[k] += c * d[k][m]
            rhs = [Fraction(0)] * n
            for r in range(n):
                if d[r][i]:
                    for k, c in prods.get((r, j), ()):
                        rhs[k] += d[r][i] * c
                if d[r][j]:
                    for k, c in prods.get((i, r), ()):
                        rhs[k] += d[r][j] * c
            if lhs != rhs:
                return f"delta fails the Leibniz rule on (b{i}, b{j})"
    return None


def parse_map(data: dict) -> tuple[list, tuple]:
    linear = [[Fraction(x) for x in row] for row in data["linear"]]
    terms = tuple(
        (tuple(map(Fraction, t["functional"])), tuple(map(Fraction, t["poly"])),
         tuple(map(Fraction, t["central"])))
        for t in data["central_terms"]
    )
    return linear, terms


def split_failure(n, prods, linear, terms, delta, tau_linear, tau_terms) -> str | None:
    """delta + tau must reassemble the input map exactly, and delta must be a derivation."""
    for r in range(n):
        for c in range(n):
            if delta[r][c] + tau_linear[r][c] != linear[r][c]:
                return f"delta + tau differs from the map at ({r}, {c})"
    if tuple(tau_terms) != tuple(terms):
        return "tau's central terms differ from the map's"
    return leibniz_failure(n, prods, delta)


# -- inputs -------------------------------------------------------------------


def slug(recipe: str) -> str:
    return {SEDENIONS: "sedenions", SUM_ZORN: "zorn+zorn"}.get(recipe, recipe.replace(":", "-"))


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def map_seed(seed: int, recipe_index: int, k: int) -> int:
    return seed * 1000 + recipe_index * 100 + k


def make_inputs(workload: str, seed: int, smoke: bool, work: Path, record: dict) -> dict:
    """Write the algebra and map files for a run; returns what the ops need per recipe."""
    from altrings import catalog, jsonio
    from altrings.liederiv import SampleBudget

    spec = WORKLOADS[workload]
    recipes = spec["smoke" if smoke else "algebras"]
    maps_per_algebra = {"roundtrip": 1 if smoke else ROUNDTRIP_MAPS,
                        "cli-cold-small": 1}.get(workload, 0)
    inputs = {}
    for ri, recipe in enumerate(recipes):
        parsed = catalog.parse_recipe(recipe)
        algebra = catalog.build(parsed)
        path = work / f"{slug(recipe)}.json"
        jsonio.save_algebra(algebra, path, provenance=recipe)
        # analyze needs no idempotent, and the sedenions have no canonical one
        e1 = None if workload == "analyze-dim16" else catalog.canonical_idempotent(parsed, algebra)
        maps = []
        for k in range(maps_per_algebra):
            mseed = map_seed(seed, ri, k)
            mpath = work / f"{slug(recipe)}.map{k}.json"
            jsonio.save_mapspec(catalog.random_lie_derivation(algebra, SampleBudget(seed=mseed)),
                                mpath)
            maps.append((mseed, mpath))
            record["inputs"][mpath.name] = {"seed": mseed, "sha256": digest(mpath)}
        record["inputs"][path.name] = {"recipe": recipe, "sha256": digest(path)}
        inputs[recipe] = {
            "path": path,
            "idempotent": ",".join(jsonio.vector_to_json(e1.coeffs)) if e1 else None,
            "maps": maps,
        }
    clear_caches()
    return inputs


def clear_caches():
    from altrings import structure

    for name in ("nucleus", "center", "commutator_subspace", "derivation_algebra",
                 "derivation_span"):
        getattr(structure, name).cache_clear()


# -- CLI workloads ------------------------------------------------------------


def cli_ops(workload: str, seed: int, inputs: dict, work: Path) -> list[Op]:
    ops = []
    for command in WORKLOADS[workload]["commands"]:
        for recipe, inp in inputs.items():
            path = str(inp["path"])
            if command == "analyze":
                args = ["analyze", "--json", path]
            elif command == "peirce":
                args = ["peirce", path, "--idempotent", inp["idempotent"], "--seed", str(seed),
                        "--json"]
            elif command == "decompose":
                _, mpath = inp["maps"][0]
                args = ["decompose", path, "--idempotent", inp["idempotent"], "--map", str(mpath),
                        "--seed", str(seed), "-o", str(work / f"{slug(recipe)}.out"), "--json"]
            else:
                args = ["fuzz", recipe, "--trials", str(FUZZ_TRIALS), "--seed", str(seed),
                        "--json"]
            ops.append(Op(f"{command} {recipe}", recipe, command, args))
    return ops


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], out: Path, err: Path) -> tuple[float, int, int]:
    """Run argv to completion with stdout/stderr in files: (wall s, exit code, peak RSS KiB)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, child_env(), file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss


def check_cli(op: Op, inputs: dict, code: int, stdout: bytes, stderr: bytes,
              work: Path) -> str | None:
    if code != 0:
        return f"exit code {code}: {stderr.decode(errors='replace').strip()[-300:]}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON report"
    if op.command == "analyze":
        got = tuple(report.get(k) for k in ANALYZE_KEYS)
        want = EXPECTED_ANALYZE[op.recipe]
        return None if got == want else f"analyze gave {got}, expected {want}"
    if op.command == "peirce":
        if report.get("ok") is not True:
            return "peirce report not ok"
        dims = tuple(report.get("dims", ()))
        want = EXPECTED_PEIRCE_DIMS[op.recipe]
        return None if dims == want else f"peirce dims {dims}, expected {want}"
    if op.command == "fuzz":
        return None if report.get("ok") is True else "fuzz report not ok"
    if report.get("ok") is not True:
        return "decompose report not ok"
    prefix = work / f"{slug(op.recipe)}.out"
    try:
        delta = json.loads(Path(f"{prefix}.delta.json").read_text(encoding="utf-8"))
        tau = json.loads(Path(f"{prefix}.tau.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"decompose outputs unreadable: {exc}"
    n, prods = read_products(inputs[op.recipe]["path"])
    _, mpath = inputs[op.recipe]["maps"][0]
    linear, terms = parse_map(json.loads(mpath.read_text(encoding="utf-8")))
    delta_linear, delta_terms = parse_map(delta)
    if delta_terms:
        return "delta output carries central terms"
    tau_linear, tau_terms = parse_map(tau)
    return split_failure(n, prods, linear, terms, delta_linear, tau_linear, tau_terms)


def run_cli_op(op: Op, inputs: dict, work: Path, seen: dict, traced_id: int | None):
    """One cold process; returns (wall s, peak RSS KiB, failure or None, trace dump or None)."""
    for suffix in (".delta.json", ".tau.json"):
        Path(f"{work / slug(op.recipe)}.out{suffix}").unlink(missing_ok=True)
    out, err, trace_path = work / "stdout", work / "stderr", work / "trace.json"
    if traced_id is None:
        argv = [sys.executable, "-m", "altrings", *op.args]
    else:
        trace_path.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(traced_id), str(trace_path),
                "--", *op.args]
    wall, code, rss = spawn(argv, out, err)
    stdout, stderr = out.read_bytes(), err.read_bytes()
    failure = check_cli(op, inputs, code, stdout, stderr, work)
    key = tuple(op.args)
    if failure is None and seen.setdefault(key, stdout) != stdout:
        failure = "--json output differs from an earlier op with the same argv"
    dump = None
    if traced_id is not None and trace_path.exists():
        dump = json.loads(trace_path.read_text(encoding="utf-8"))
    return wall, rss, failure, dump


def cold_import_time(work: Path) -> float:
    wall, code, _ = spawn([sys.executable, "-c", "import altrings.cli"],
                          work / "stdout", work / "stderr")
    if code != 0:
        raise RuntimeError("import altrings.cli failed: "
                           + (work / "stderr").read_text(errors="replace"))
    return wall


# -- roundtrip workload -------------------------------------------------------


def roundtrip_setup(recipes, seed: int) -> tuple[float, dict]:
    """Cold per-algebra set-up, summed: build, make_context, check_conditions,
    the first center and derivation_algebra.  Caches are cleared first."""
    from altrings import catalog, peirce, structure

    clear_caches()
    contexts = {}
    total = 0.0
    for recipe in recipes:
        t0 = time.perf_counter()
        parsed = catalog.parse_recipe(recipe)
        algebra = catalog.build(parsed)
        ctx = peirce.make_context(algebra, catalog.canonical_idempotent(parsed, algebra))
        conditions = peirce.check_conditions(ctx, seed=seed, samples=SAMPLES)
        structure.center(algebra)
        structure.derivation_algebra(algebra)
        total += time.perf_counter() - t0
        if not conditions.all_hold:
            raise RuntimeError(f"corner conditions fail for {recipe}")
        contexts[recipe] = ctx
    return total, contexts


def roundtrip_ops(inputs: dict) -> list[Op]:
    count = len(next(iter(inputs.values()))["maps"])
    return [Op(f"roundtrip {recipe}", recipe, "roundtrip", map_index=k)
            for k in range(count) for recipe in inputs]


class Roundtrip:
    """Warm in-process state for the roundtrip ops: contexts, loaded maps, check data."""

    def __init__(self, inputs: dict, contexts: dict):
        from altrings import jsonio
        from altrings.liederiv import SampleBudget

        self.contexts = contexts
        self.maps = {}
        self.products = {}
        for recipe, inp in inputs.items():
            algebra = contexts[recipe].algebra
            self.products[recipe] = read_products(inp["path"])
            for k, (mseed, mpath) in enumerate(inp["maps"]):
                spec = jsonio.load_mapspec(mpath, algebra)
                data = parse_map(json.loads(mpath.read_text(encoding="utf-8")))
                budget = SampleBudget(seed=mseed, pair_samples=SAMPLES, element_samples=SAMPLES)
                self.maps[(recipe, k)] = (spec, budget, data)
        self.seen = {}

    def run(self, op: Op) -> tuple[float, str | None]:
        from altrings import liederiv

        ctx = self.contexts[op.recipe]
        spec, budget, (linear, terms) = self.maps[(op.recipe, op.map_index)]
        t0 = time.perf_counter()
        try:
            lie = liederiv.check_lie_law(spec, budget)
            hyp = liederiv.check_hypotheses(ctx, spec, budget)
            result = liederiv.decompose(ctx, spec, budget)
        except Exception as exc:  # a failing op is counted, never fatal
            return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if not (lie.ok and hyp.both_hold and result.ok):
            return wall, "a check in the Lie law, hypotheses or decomposition failed"
        tau = result.tau
        n, prods = self.products[op.recipe]
        tau_terms = tuple((t.functional, t.poly, t.central) for t in tau.terms)
        failure = split_failure(n, prods, linear, terms, result.delta.rows, tau.linear.rows,
                                tau_terms)
        answer = (result.delta.rows, tau.linear.rows, tau_terms)
        if failure is None and self.seen.setdefault((op.recipe, op.map_index), answer) != answer:
            failure = "decomposition differs from an earlier op on the same map"
        return wall, failure


# -- measurement --------------------------------------------------------------


def run_ops(ops, run_op, seconds: float, smoke: bool, count: int | None = None,
            before_pass=None):
    """Ops in rotation until `seconds` of op time, after at least one whole pass
    (or exactly `count` ops).  A smoke run stops after one pass."""
    results = []
    busy = 0.0
    while True:
        if before_pass and len(results) % len(ops) == 0:
            before_pass()
        op = ops[len(results) % len(ops)]
        res = run_op(op)
        busy += res[0]
        results.append((op, res))
        if count is not None:
            if len(results) >= count:
                break
        elif len(results) >= len(ops) and (smoke or busy >= seconds):
            break
    return results


def median_rate(results, passed: int) -> float:
    """Ops per second of the op mix at each op kind's median time, times the passing share.

    Per-kind medians keep a short slow or fast phase of the machine from moving
    the rate, and keep kinds that got one op more than others from tilting the mix."""
    times = {}
    for op, res in results:
        times.setdefault(op.label, []).append(res[0])
    pass_s = sum(statistics.median(t) for t in times.values())
    return passed / len(results) * len(times) / pass_s


def tail(times: list[float]):
    """Highest ladder percentile with at least ten samples beyond it, or None."""
    n = len(times)
    ordered = sorted(times)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def layer_totals(dumps, op_count: int) -> tuple[dict, dict]:
    """Per-group calls and self time, counters and cache counts over the given dumps."""
    calls, self_s, counters = {}, {}, {}
    hits = misses = 0
    for dump in dumps:
        groups = dump["groups"]
        for name, start, end, _parent, _op, child in dump["spans"]:
            g = groups[name]
            calls[g] = calls.get(g, 0) + 1
            self_s[g] = self_s.get(g, 0.0) + (end - start) - child
        for name, (n, _total, own) in dump["agg"].items():
            g = groups[name]
            calls[g] = calls.get(g, 0) + n
            self_s[g] = self_s.get(g, 0.0) + own
        for key, value in dump["counters"].items():
            counters[key] = counters.get(key, 0) + value
        hits += dump["cache"][0]
        misses += dump["cache"][1]
    per_op = {}
    for g, value in calls.items():
        per_op[f"{g}.calls"] = value / op_count
    for g, value in self_s.items():
        per_op[f"{g}.self_s"] = value / op_count
    for key, value in counters.items():
        per_op[key] = value / op_count
    for module in MODULES:
        per_op[f"{module}.self_s"] = sum(v for g, v in self_s.items()
                                         if g == module or g.startswith(module + ".")) / op_count
    lookups = hits + misses
    per_op["structure.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    per_op["structure.cache.lookups"] = lookups / op_count
    return per_op, {"cache_hits": hits, "cache_lookups": lookups}


def span_figures(dump: dict, op_id: int) -> dict:
    """Total duration (and self time) of FIGURE_SPANS within one op."""
    out = {}
    if dump is None:
        return out
    for name, start, end, _parent, op, child in dump["spans"]:
        if op == op_id and name in FIGURE_SPANS:
            total, own = out.get(name, (0.0, 0.0))
            out[name] = (total + end - start, own + end - start - child)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
            work: Path, record: dict) -> tuple[dict, int, int, list[str]]:
    sys.path.insert(0, str(SRC))
    inputs = make_inputs(workload, seed, smoke, work, record)
    setup = []
    if workload == "roundtrip":
        for _ in range(1 if (smoke or trace) else SETUP_REPEATS):
            total, contexts = roundtrip_setup(inputs, seed)
            setup.append(total)
        state = Roundtrip(inputs, contexts)
        ops = roundtrip_ops(inputs)

        def run_op(op, traced_id=None):
            wall, failure = state.run(op)
            return wall, failure, None
    else:
        cold_import_time(work)  # warm the page and bytecode caches
        if not trace:
            setup = [cold_import_time(work) for _ in range(1 if smoke else IMPORT_REPEATS)]
        ops = cli_ops(workload, seed, inputs, work)
        seen = {}

        def run_op(op, traced_id=None):
            wall, rss, failure, dump = run_cli_op(op, inputs, work, seen, traced_id)
            if traced_id is not None and dump is None:
                failure = failure or "traced child wrote no trace"
            return wall, failure, rss if traced_id is None else dump
    record["ops"] = [op.label for op in ops]
    if trace:
        return measure_traced(workload, ops, run_op, seconds, smoke)

    def sample_import():
        setup.append(cold_import_time(work))

    # CLI set-up samples also go between passes, so they span the run.
    results = run_ops(ops, run_op, seconds, smoke,
                      before_pass=None if workload == "roundtrip" or smoke else sample_import)
    times = [res[0] for _, res in results]
    failures = [(op.label, res[1]) for op, res in results if res[1]]
    if workload == "roundtrip":
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kib = max(res[2] for _, res in results)
    metrics = {
        "ops_per_s": median_rate(results, len(results) - len(failures)),
        "op_s.p50": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kib / 1024,
    }
    lines = [f"ops: {len(results)} over an op list of {len(ops)}; setup samples: "
             + ", ".join(f"{s:.4f}" for s in setup)]
    t = tail(times)
    lines.append(f"op_s.tail: p{t[0]} = {t[1]:.6f} s (n={len(times)})" if t else
                 f"op_s.tail: not emitted, {len(times)} ops leave fewer than ten "
                 f"beyond p{TAIL_PERCENTILES[-1]}")
    lines.append(f"op_s.p50 over n={len(times)} ops")
    for label in dict.fromkeys(op.label for op in ops):
        own = [res[0] for op, res in results if op.label == label]
        lines.append(f"op {label}: median {statistics.median(own):.4f} s (n={len(own)})")
    lines.append(f"failed_ratio: {len(failures)}/{len(results)} = "
                 f"{len(failures) / len(results):.4f}")
    lines += [f"FAILED {label}: {why}" for label, why in failures[:10]]
    return metrics, len(results), len(failures), lines


def measure_traced(workload: str, ops, run_op, seconds: float, smoke: bool):
    """Untraced ops for a third of the time, then as many ops traced."""
    base = run_ops(ops, run_op, seconds / 3, smoke)
    walls, op_dumps = [], {}
    if workload == "roundtrip":
        import altrings.cli  # noqa: F401  (loads every module the tracer wraps)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("altrings")
        hits0, misses0 = tracer.cache_counts()

        def traced(op):
            tracer.op = len(walls)
            res = run_op(op)
            walls.append(res[0])
            op_dumps[tracer.op] = None
            return res
    else:
        def traced(op):
            op_id = len(walls)
            res = run_op(op, op_id)
            walls.append(res[0])
            op_dumps[op_id] = res[2]
            return res

    results = run_ops(ops, traced, 0, smoke, count=len(base))
    if workload == "roundtrip":
        dump = tracer.dump()
        dump["cache"] = [dump["cache"][0] - hits0, dump["cache"][1] - misses0]
        op_dumps = dict.fromkeys(op_dumps, dump)
        dumps = [dump]
    else:
        dumps = [d for d in op_dumps.values() if d is not None]
    failures = [(op.label, res[1]) for op, res in base + results if res[1]]
    n = len(walls)
    per_op, cache = layer_totals(dumps, n)
    traced_op_s = sum(walls) / n
    untraced_op_s = sum(res[0] for _, res in base) / len(base)
    per_op["trace.op_s"] = traced_op_s
    per_op["trace.untraced_op_s"] = untraced_op_s
    per_op["trace.overhead_ratio"] = traced_op_s / untraced_op_s
    main_s = sum(end - start for d in dumps for name, start, end, parent, _op, _c in d["spans"]
                 if name == "cli.main" and parent == -1)
    per_op["cli.startup_s"] = traced_op_s - main_s / n if workload != "roundtrip" else 0.0
    attributed = sum(per_op.get(f"{m}.self_s", 0.0) for m in MODULES)
    per_op["trace.unattributed_s"] = traced_op_s - attributed
    metrics = {name: per_op.get(name, 0.0) for name, _ in PER_LAYER}

    lines = [
        f"traced: {len(results)} ops over an op list of {len(ops)}, untraced base "
        f"{untraced_op_s:.6f} s/op, "
        f"traced {traced_op_s:.6f} s/op",
        f"structure cache: {cache['cache_hits']} hits of {cache['cache_lookups']} lookups",
        "accounting per op: " + ", ".join(
            f"{m} {per_op.get(f'{m}.self_s', 0.0):.6f}" for m in MODULES)
        + f", unattributed {per_op['trace.unattributed_s']:.6f} = {traced_op_s:.6f} s",
    ]
    for label in dict.fromkeys(op.label for op in ops):
        ids = [i for i, (op, _) in enumerate(results) if op.label == label]
        figs = {}
        for op_id in ids:
            for name, (total, own) in span_figures(op_dumps[op_id], op_id).items():
                acc = figs.setdefault(name, [0.0, 0.0])
                acc[0] += total / len(ids)
                acc[1] += own / len(ids)
        untraced = statistics.median(res[0] for op, res in base if op.label == label)
        lines.append(f"figure {label}: untraced {untraced:.4f} s, traced "
                     f"{statistics.median(walls[i] for i in ids):.4f} s" + "".join(
                         f"; {name} {total:.4f} s (self {own:.4f} s)"
                         for name, (total, own) in figs.items()))
    lines += [f"FAILED {label}: {why}" for label, why in failures[:10]]
    (WORK / f"trace-{workload}.json").write_text(json.dumps(dumps), encoding="utf-8")
    return metrics, len(base) + len(results), len(failures), lines


# -- entry point --------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description="altrings benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass on the small algebras, to test the harness")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "altrings" / "__init__.py").is_file():
        print(f"perfbench: no altrings sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(), "inputs": {},
    }
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        metrics, attempted, failed, lines = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, work, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("run: " + json.dumps(record, sort_keys=True))
    for line in lines:
        print(line)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
