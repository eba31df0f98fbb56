"""Command-line surface: make / analyze / peirce / decompose / fuzz.

Exit codes: 0 success, 1 violated precondition or hypothesis, 2 bad input,
3 a failed self-check (a `decompose` verdict or a `fuzz` trial); 141 (128 +
SIGPIPE) when the program's stdout is a pipe whose reader has gone.  Each
`cmd_*` handler returns its report and the stderr line of a failed self-check
(or None); `main` is the one place that prints a report.  With --json the
report is emitted as sorted-key JSON with no timing, so identical inputs and
seed give byte-identical output; human-readable reports end with the time
elapsed since argument parsing began.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from types import SimpleNamespace

from . import catalog, jsonio, liederiv, peirce
from .algebra import Algebra, Element, check_alternative, check_associative, check_flexible
from .errors import (
    AltRingsError,
    HypothesisFailedError,
    InputError,
    LieLawViolatedError,
    PreconditionError,
)
from .structure import analyze

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_INPUT = 2
EXIT_SELF_CHECK = 3
EXIT_BROKEN_PIPE = 141


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
    data = jsonio._load_json(spec[1:]) if spec[:1] == "@" else [p.strip() for p in spec.split(",")]
    return Element(algebra, jsonio.vector_from_json(data, algebra.dim))


def _build_recipe(text: str) -> tuple[catalog.ConstructionRecipe, Algebra]:
    """Parse and build a recipe; one nested past the recursion limit is bad input."""
    try:
        recipe = catalog.parse_recipe(text)
        return recipe, catalog.build(recipe)
    except RecursionError:
        raise InputError("recipe nested too deeply") from None


def _check_output_dir(path: str):
    """Refuse, before any work and as a failed write would, an empty path, a path in
    a missing directory and an existing directory."""
    if not path or not os.path.isdir(os.path.dirname(path) or "."):
        raise InputError(f"cannot write {path}: No such file or directory")
    if os.path.isdir(path):
        raise InputError(f"cannot write {path}: Is a directory")


def _conditions(ctx, args, where: str = "") -> peirce.ConditionsReport:
    """The corner conditions of ctx; PreconditionError names the first that fails."""
    conditions = peirce.check_conditions(ctx, seed=args.seed, samples=args.samples)
    for c in conditions.checks:
        if not c.ok:
            raise PreconditionError(f"ConditionsFailed: {c.name}{where} (witness {c.witness})")
    return conditions


def cmd_make(args):
    _check_output_dir(args.output)
    recipe, algebra = _build_recipe(args.recipe)
    jsonio.save_algebra(algebra, args.output, provenance=recipe.describe())
    return {
        "recipe": recipe.describe(),
        "dim": algebra.dim,
        "output": args.output,
        "identities": {
            "alternative": check_alternative(algebra),
            "flexible": check_flexible(algebra),
            "associative": check_associative(algebra),
        },
    }, None


def cmd_analyze(args):
    algebra = jsonio.load_algebra(args.algebra)
    rep = analyze(algebra)
    return {
        "dim": algebra.dim,
        "nucleus_dim": rep.nucleus.dim,
        "center_dim": rep.center.dim,
        "derivation_dim": rep.derivation_dim,
        "is_alternative": rep.is_alternative,
        "is_flexible": rep.is_flexible,
        "is_associative": rep.is_associative,
        "center_basis": [jsonio.vector_to_json(v) for v in rep.center.basis],
        "nucleus_basis": [jsonio.vector_to_json(v) for v in rep.nucleus.basis],
    }, None


def cmd_peirce(args):
    algebra = jsonio.load_algebra(args.algebra)
    e1 = _parse_idempotent(args.idempotent, algebra)
    ctx = peirce.make_context(algebra, e1)
    checks = [peirce.verify_relations(ctx),
              *peirce.check_conditions(ctx, seed=args.seed, samples=args.samples).checks]
    if all(c.ok for c in ctx.conditions_123):
        checks += [*peirce.verify_prop_spade_club(ctx), peirce.verify_offdiag_centralizer(ctx)]
    return {
        "seed": args.seed,
        "dims": list(ctx.dims),
        "checks": [c.to_dict() for c in checks],
        "ok": all(c.ok for c in checks),
    }, None


def cmd_decompose(args):
    if args.output is not None and os.path.basename(args.output) in ("", ".", ".."):
        raise InputError(f"decompose: -o PREFIX must end in a file name (got {args.output!r})")
    for suffix in (".delta.json", ".tau.json") if args.output else ():
        _check_output_dir(args.output + suffix)
    algebra = jsonio.load_algebra(args.algebra)
    e1 = _parse_idempotent(args.idempotent, algebra)
    ctx = peirce.make_context(algebra, e1)
    spec = jsonio.load_mapspec(args.map, algebra)
    budget = liederiv.SampleBudget(seed=args.seed)

    lie = liederiv.check_lie_law(spec, budget)
    if not lie.ok:
        raise LieLawViolatedError(f"LieLawViolated: witness {lie.witness}")
    conditions = _conditions(ctx, args)
    hyp = liederiv.check_hypotheses(ctx, spec, budget)
    if not hyp.a.ok:
        raise HypothesisFailedError(f"HypothesisAFailed: {hyp.a.witness}")
    if not hyp.b.ok:
        raise HypothesisFailedError(f"HypothesisBFailed: {hyp.b.witness}")

    result = liederiv.decompose(ctx, spec, budget)
    report = {
        "seed": args.seed,
        "samples": args.samples,
        "checks": [lie.to_dict(), *(c.to_dict() for c in conditions.checks),
                   hyp.a.to_dict(), hyp.b.to_dict(),
                   *(c.to_dict() for c in result.checks)],
        "tau_identically_zero": result.tau.is_identically_zero,
        "ok": result.ok,
    }
    if args.output:
        delta_path, tau_path = args.output + ".delta.json", args.output + ".tau.json"
        jsonio.save_mapspec(liederiv.MapSpec(algebra, result.delta), delta_path)
        jsonio.save_mapspec(result.tau, tau_path)
        report["outputs"] = {"delta": delta_path, "tau": tau_path}
    return report, next((f"decompose check {c.name} failed (witness {c.witness})"
                         for c in result.checks if not c.ok), None)


def _fuzz_trial(ctx, trial: int, master_seed: int) -> dict:
    trial_seed = master_seed * 1_000_003 + trial
    budget = liederiv.SampleBudget(seed=trial_seed)
    spec = catalog.random_lie_derivation(ctx.algebra, budget)
    try:
        result = liederiv.decompose(ctx, spec, budget)
    except AltRingsError as exc:
        return {"trial": trial, "seed": trial_seed, "ok": False,
                "error": f"{type(exc).__name__}: {exc}",
                "replay_map": jsonio.mapspec_to_dict(spec)}
    entry = {
        "trial": trial,
        "seed": trial_seed,
        "ok": result.ok,
        "failed_checks": [c.to_dict() for c in result.checks if not c.ok],
    }
    if not result.ok:
        entry["replay_map"] = jsonio.mapspec_to_dict(spec)
    return entry


def cmd_fuzz(args):
    recipe, algebra = _build_recipe(args.recipe)
    e1 = catalog.canonical_idempotent(recipe, algebra)
    ctx = peirce.make_context(algebra, e1)
    _conditions(ctx, args, " for the canonical idempotent")
    results = [_fuzz_trial(ctx, t, args.seed) for t in range(args.trials)]
    report = {
        "recipe": recipe.describe(),
        "seed": args.seed,
        "trials": args.trials,
        "samples": args.samples,
        "idempotent": jsonio.vector_to_json(e1.coeffs),
        "results": results,
        "ok": all(r["ok"] for r in results),
    }
    return report, next((f"fuzz trial {r['trial']} (seed {r['seed']}) failed; "
                         "replay map embedded in report" for r in results if not r["ok"]), None)


USAGE = """\
usage: altrings make RECIPE -o FILE
       altrings analyze ALGEBRA
       altrings peirce ALGEBRA --idempotent E [--seed N] [--samples N]
       altrings decompose ALGEBRA --idempotent E --map MAP [-o PREFIX] [--seed N] [--samples N]
       altrings fuzz RECIPE [--trials N] [--seed N] [--samples N]
Every command takes --json. RECIPE is zorn, matrix:N, cayley-dickson:M1,M2,...
(or cd:M1,M2,...), m2m2, zornq or sum(R1|R2); E is comma-separated rationals or
@file.json. An option's value follows it (--opt value) or is joined to it (--opt=value)."""

REQUIRED = object()
SEED_SAMPLES = {"--seed": (int, 0), "--samples": (_count, 20)}
# command -> (handler, positional, {option: (type, default)}); every command also
# takes the flag --json, and -o stands for --output
COMMANDS = {
    "make": (cmd_make, "recipe", {"--output": (str, REQUIRED)}),
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


def _writable(stream) -> bool:
    """False for a stream Python set to None (its fd was closed at start-up, and
    print(file=None) would write to stdout) or whose fd rejects a zero-byte write
    (EBADF: the fd is open read-only)."""
    try:
        os.write(stream.fileno(), b"")
    except (AttributeError, OSError):  # None has no fileno()
        return False
    return True


def main(argv=None) -> int:
    """Run one command and return its exit code.

    `main` parses argv, runs the command's handler and prints its report, with
    `command` echoing argv: sorted-key JSON with --json, otherwise human lines
    and `elapsed:`, counted from the start of argument parsing.  A failed
    self-check then prints its one line on stderr and returns EXIT_SELF_CHECK.

    With argv None, `main` is the program (`python -m altrings`, the `altrings`
    script): it runs `sys.argv[1:]` with the garbage collector off (a command
    leaves a small, fixed amount of cyclic garbage), flushes stdout and stderr
    and ends the process with `os._exit`, skipping interpreter teardown; a
    stream closed or read-only at start-up writes to os.devnull, a closed
    stdout pipe ends it with EXIT_BROKEN_PIPE and no traceback, and any other
    exception that escapes exits the normal way. A library call leaves the
    collector alone and returns the code."""
    if argv is None:
        gc.disable()
        sys.stdout, sys.stderr = (stream if _writable(stream) else open(os.devnull, "w")
                                  for stream in (sys.stdout, sys.stderr))
        try:
            code = main(sys.argv[1:])
            sys.stdout.flush()
        except BrokenPipeError:  # the reader has gone; no later flush may write to it
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code = EXIT_BROKEN_PIPE
        sys.stderr.flush()
        os._exit(code)
    argv = list(argv)
    started = time.perf_counter()
    try:
        parsed = parse_args(argv)
        if parsed is None:
            return EXIT_OK
        handler, args = parsed
        report, failure = handler(args)
    except AltRingsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, InputError) else EXIT_PRECONDITION
    report["command"] = "altrings " + " ".join(argv)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_human(report)
        print(f"elapsed: {time.perf_counter() - started:.2f}s")
    if failure:
        print(failure, file=sys.stderr)
        return EXIT_SELF_CHECK
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
