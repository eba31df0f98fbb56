"""Command-line surface: make / analyze / peirce / decompose / fuzz.

Exit codes: 0 success, 1 violated precondition or hypothesis, 2 bad input,
3 broken internal invariant (a bug); 141 (128 + SIGPIPE) when the program's
stdout is a pipe whose reader has gone.  With --json the report is emitted as
sorted-key JSON with no timing, so identical inputs and seed give
byte-identical output; human-readable reports add elapsed time at the end.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from . import catalog, jsonio, liederiv, peirce
from .algebra import Algebra, Element, check_alternative, check_associative, check_flexible
from .errors import (
    AltRingsError,
    HypothesisFailedError,
    InputError,
    InternalInvariantError,
    LieLawViolatedError,
    PreconditionError,
)
from . import report as verdicts  # lazy: runs on first use, which only peirce makes
from .structure import analyze, center

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141


def _echo(argv: list[str]) -> str:
    return "altrings " + " ".join(argv)


def _emit(report: dict, as_json: bool, started: float):
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    _print_human(report)
    print(f"elapsed: {time.perf_counter() - started:.2f}s")


def _print_human(report: dict, indent: str = ""):
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_human(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                if "name" in item:
                    line = f"{indent}  - {item['name']}: {'pass' if item.get('ok') else 'FAIL'}"
                    if "mode" in item:
                        line += f" [{item['mode']}]"
                    if item.get("witness"):
                        line += f" witness: {item['witness']}"
                    print(line)
                else:
                    print(f"{indent}  - {json.dumps(item, sort_keys=True)}")
        else:
            print(f"{indent}{key}: {value}")


def _count(text: str) -> int:
    """The value of --samples or --trials: an integer, at least 1."""
    count = int(text)
    if count < 1:
        raise ValueError(text)
    return count


def _parse_idempotent(spec: str, algebra: Algebra) -> Element:
    """Inline comma-separated rationals, or @path to a JSON list."""
    if spec.startswith("@"):
        data = jsonio._load_json(spec[1:])
        coeffs = jsonio.vector_from_json(data, algebra.dim)
    else:
        parts = [p.strip() for p in spec.split(",")]
        if len(parts) != algebra.dim:
            raise InputError(
                f"idempotent has {len(parts)} entries, algebra dimension is {algebra.dim}"
            )
        coeffs = tuple(jsonio.parse_rational(p) for p in parts)
    return Element(algebra, coeffs)


def _recipe_from_args(args) -> str:
    kind = args.kind
    if kind == "matrix":
        if args.n is None:
            raise InputError("make matrix requires --n")
        return f"matrix:{args.n}"
    if kind in ("cayley-dickson", "cd"):
        if not args.mus:
            raise InputError("make cayley-dickson requires --mus")
        return f"cayley-dickson:{args.mus}"
    return kind


def _build_recipe(text: str) -> tuple[catalog.ConstructionRecipe, Algebra]:
    """Parse and build a recipe; one nested past the recursion limit is bad input."""
    try:
        recipe = catalog.parse_recipe(text)
        return recipe, catalog.build(recipe)
    except RecursionError:
        raise InputError("recipe nested too deeply") from None


def cmd_make(args, argv) -> int:
    started = time.perf_counter()
    recipe, algebra = _build_recipe(_recipe_from_args(args))
    jsonio.save_algebra(algebra, args.output, provenance=recipe.describe())
    report = {
        "command": _echo(argv),
        "recipe": recipe.describe(),
        "dim": algebra.dim,
        "output": str(args.output),
        "identities": {
            "alternative": check_alternative(algebra),
            "flexible": check_flexible(algebra),
            "associative": check_associative(algebra),
        },
    }
    _emit(report, args.json, started)
    return EXIT_OK


def cmd_analyze(args, argv) -> int:
    started = time.perf_counter()
    algebra = jsonio.load_algebra(args.algebra)
    rep = analyze(algebra)
    report = {
        "command": _echo(argv),
        "dim": algebra.dim,
        "nucleus_dim": rep.nucleus.dim,
        "center_dim": rep.center.dim,
        "derivation_dim": rep.derivation_dim,
        "is_alternative": rep.is_alternative,
        "is_flexible": rep.is_flexible,
        "is_associative": rep.is_associative,
        "center_basis": [jsonio.vector_to_json(v) for v in rep.center.basis],
        "nucleus_basis": [jsonio.vector_to_json(v) for v in rep.nucleus.basis],
    }
    _emit(report, args.json, started)
    return EXIT_OK


def cmd_peirce(args, argv) -> int:
    started = time.perf_counter()
    algebra = jsonio.load_algebra(args.algebra)
    e1 = _parse_idempotent(args.idempotent, algebra)
    ctx = peirce.make_context(algebra, e1)
    relations = peirce.verify_relations(ctx)
    conditions = peirce.check_conditions(ctx, seed=args.seed, samples=args.samples)
    checks = list(conditions.checks)
    rel_check = verdicts.Check(
        "relations-i-iv", relations.ok, "exact",
        witness=None if relations.ok else
        f"{relations.violations[0].relation}: {relations.violations[0].x!r}"
        f" * {relations.violations[0].y!r} = {relations.violations[0].product!r}",
    )
    report = {
        "command": _echo(argv),
        "seed": args.seed,
        "dims": list(ctx.dims),
        "checks": [rel_check.to_dict()] + [c.to_dict() for c in checks],
    }
    if conditions.checks[0].ok and conditions.checks[1].ok and conditions.checks[2].ok:
        spade, club = peirce.verify_prop_spade_club(ctx)
        offdiag = peirce.verify_offdiag_centralizer(ctx)
        report["checks"] += [
            verdicts.Check("prop-spade", spade, "exact").to_dict(),
            verdicts.Check("prop-club", club, "exact").to_dict(),
            verdicts.Check("offdiag-centralizer", offdiag, "exact").to_dict(),
        ]
    report["ok"] = all(c["ok"] for c in report["checks"])
    _emit(report, args.json, started)
    return EXIT_OK


def cmd_decompose(args, argv) -> int:
    started = time.perf_counter()
    algebra = jsonio.load_algebra(args.algebra)
    e1 = _parse_idempotent(args.idempotent, algebra)
    ctx = peirce.make_context(algebra, e1)
    spec = jsonio.load_mapspec(args.map, algebra)
    budget = liederiv.SampleBudget(seed=args.seed)

    lie = liederiv.check_lie_law(spec, budget)
    if not lie.ok:
        raise LieLawViolatedError(f"LieLawViolated: witness {lie.witness}")
    conditions = peirce.check_conditions(ctx, seed=args.seed, samples=args.samples)
    if not conditions.all_hold:
        bad = conditions.failed()
        raise PreconditionError(f"ConditionsFailed: {bad.name} (witness {bad.witness})")
    hyp = liederiv.check_hypotheses(ctx, spec, budget)
    if not hyp.a.ok:
        raise HypothesisFailedError("a", f"HypothesisAFailed: {hyp.a.witness}")
    if not hyp.b.ok:
        raise HypothesisFailedError("b", f"HypothesisBFailed: {hyp.b.witness}")

    result = liederiv.decompose(ctx, spec, budget)
    outputs = {}
    if args.output:
        prefix = Path(args.output)
        delta_path = prefix.with_name(prefix.name + ".delta.json")
        tau_path = prefix.with_name(prefix.name + ".tau.json")
        jsonio.save_mapspec(liederiv.MapSpec(algebra, result.delta), delta_path)
        jsonio.save_mapspec(result.tau, tau_path)
        outputs = {"delta": str(delta_path), "tau": str(tau_path)}

    report = {
        "command": _echo(argv),
        "seed": args.seed,
        "samples": args.samples,
        "checks": [lie.to_dict(), *(c.to_dict() for c in conditions.checks),
                   hyp.a.to_dict(), hyp.b.to_dict(),
                   *(c.to_dict() for c in result.checks)],
        "tau_identically_zero": result.tau.is_identically_zero,
        "ok": result.ok,
    }
    if outputs:
        report["outputs"] = outputs
    _emit(report, args.json, started)
    return EXIT_OK


def _fuzz_trial(ctx, algebra, trial: int, master_seed: int) -> dict:
    trial_seed = master_seed * 1_000_003 + trial
    budget = liederiv.SampleBudget(seed=trial_seed)
    spec = catalog.random_lie_derivation(algebra, budget)
    try:
        result = liederiv.decompose(ctx, spec, budget)
    except AltRingsError as exc:
        return {"trial": trial, "seed": trial_seed, "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "replay_map": jsonio.mapspec_to_dict(spec)}
    cen = center(algebra)
    diff = result.delta - spec.linear
    drift_central = all(cen.contains_vector(diff.col(k)) for k in range(algebra.dim))
    ok = result.ok and drift_central
    entry = {
        "trial": trial,
        "seed": trial_seed,
        "ok": ok,
        "delta_drift_central": drift_central,
        "failed_checks": [c.to_dict() for c in result.checks if not c.ok],
    }
    if not ok:
        entry["replay_map"] = jsonio.mapspec_to_dict(spec)
    return entry


def cmd_fuzz(args, argv) -> int:
    started = time.perf_counter()
    recipe, algebra = _build_recipe(args.recipe)
    e1 = catalog.canonical_idempotent(recipe, algebra)
    ctx = peirce.make_context(algebra, e1)
    conditions = peirce.check_conditions(ctx, seed=args.seed, samples=args.samples)
    if not conditions.all_hold:
        bad = conditions.failed()
        raise PreconditionError(
            f"ConditionsFailed: {bad.name} for the canonical idempotent "
            f"(witness {bad.witness})"
        )
    results = [_fuzz_trial(ctx, algebra, t, args.seed) for t in range(args.trials)]
    ok = all(r["ok"] for r in results)
    report = {
        "command": _echo(argv),
        "recipe": recipe.describe(),
        "seed": args.seed,
        "trials": args.trials,
        "samples": args.samples,
        "idempotent": jsonio.vector_to_json(e1.coeffs),
        "results": results,
        "ok": ok,
    }
    _emit(report, args.json, started)
    if not ok:
        first_bad = next(r for r in results if not r["ok"])
        print(f"fuzz trial {first_bad['trial']} (seed {first_bad['seed']}) failed; "
              "replay map embedded in report", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


USAGE = """\
usage: altrings make KIND -o FILE [--n N] [--mus M1,M2,...]
       altrings analyze ALGEBRA
       altrings peirce ALGEBRA --idempotent E [--seed N] [--samples N]
       altrings decompose ALGEBRA --idempotent E --map MAP [-o PREFIX] [--seed N] [--samples N]
       altrings fuzz RECIPE [--trials N] [--seed N] [--samples N]
Every command takes --json. KIND is zorn, matrix (with --n), cayley-dickson (with
--mus) or a recipe such as sum(zorn|matrix:1); E is comma-separated rationals or
@file.json. An option's value follows it (--opt value) or is joined to it (--opt=value)."""

REQUIRED = object()
SEED_SAMPLES = {"--seed": (int, 0), "--samples": (_count, 20)}
# command -> (handler, positional, {option: (type, default)}); every command also
# takes the flag --json, and -o stands for --output
COMMANDS = {
    "make": (cmd_make, "kind",
             {"--output": (str, REQUIRED), "--n": (int, None), "--mus": (str, None)}),
    "analyze": (cmd_analyze, "algebra", {}),
    "peirce": (cmd_peirce, "algebra", {"--idempotent": (str, REQUIRED), **SEED_SAMPLES}),
    "decompose": (cmd_decompose, "algebra", {"--idempotent": (str, REQUIRED),
                                             "--map": (str, REQUIRED), "--output": (str, None),
                                             **SEED_SAMPLES}),
    "fuzz": (cmd_fuzz, "recipe", {"--trials": (_count, 10), **SEED_SAMPLES}),
}


def parse_args(argv: list[str]):
    """(handler, args) for argv read against COMMANDS, or None once -h/--help has
    printed USAGE. An option's value is the next argument, whatever it starts
    with; names are exact, never abbreviated. Bad arguments raise InputError."""
    if "-h" in argv or "--help" in argv:
        print(USAGE)
        return None
    if not argv or argv[0] not in COMMANDS:
        what = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise InputError(f"{what}; choose one of {', '.join(COMMANDS)}")
    name, tokens = argv[0], iter(argv[1:])
    fn, positional, options = COMMANDS[name]
    values = {"command": name, positional: REQUIRED, "json": False,
              **{opt[2:]: default for opt, (_, default) in options.items()}}
    for token in tokens:
        if not token.startswith("-") or token == "-":
            if values[positional] is not REQUIRED:
                raise InputError(f"{name}: unexpected argument {token!r}")
            values[positional] = token
            continue
        opt, eq, value = token.partition("=")
        opt = "--output" if opt == "-o" else opt
        if opt == "--json" and not eq:
            values["json"] = True
            continue
        if opt not in options:
            raise InputError(f"{name}: unknown option {token}")
        if not eq and (value := next(tokens, None)) is None:
            raise InputError(f"{name}: {opt} needs a value")
        try:
            values[opt[2:]] = options[opt][0](value)
        except ValueError:
            kind = "an integer of at least 1" if options[opt][0] is _count else "an integer"
            raise InputError(f"{name}: {opt} must be {kind} (got {value!r})") from None
    for key, value in values.items():
        if value is REQUIRED:
            raise InputError(f"{name}: missing {key.upper() if key == positional else '--' + key}")
    return fn, SimpleNamespace(**values)


def main(argv=None) -> int:
    """Run one command and return its exit code.

    With argv None, `main` is the program (`python -m altrings`, the `altrings`
    script): it runs `sys.argv[1:]` with the garbage collector off (a command
    leaves a small, fixed amount of cyclic garbage), flushes stdout and stderr
    and ends the process with `os._exit`, skipping interpreter teardown; a
    closed stdout pipe ends it with EXIT_BROKEN_PIPE and no traceback, and any
    other exception that escapes exits the normal way. A library call leaves
    the collector alone and returns the code."""
    if argv is None:
        gc.disable()
        try:
            code = main(sys.argv[1:])
            sys.stdout.flush()
        except BrokenPipeError:  # the reader has gone; no later flush may write to it
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code = EXIT_BROKEN_PIPE
        sys.stderr.flush()
        os._exit(code)
    argv = list(argv)
    try:
        parsed = parse_args(argv)
        return EXIT_OK if parsed is None else parsed[0](parsed[1], argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except AltRingsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
