"""Span tracer installed around the public entry points of the altrings modules.

Nothing under src/ knows about it: `install` replaces each target function
with a timing wrapper on every module binding that refers to it, because
`from .structure import center` copies the name into the importing module.

Every wrapped call pushes a frame so that its parent learns how much of its
own duration was spent in children.  Ordinary entry points record a span
(name, start, end, parent, op id, time covered by children).  Very hot entry
points (`mul_vec`, the membership tests, `Matrix.__mul__`) only add to an
aggregated count, total and self time per name.  Spans stay in memory until
`dump` writes them out.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

# (module, attribute, layer metric group, hot).  "Class.method" names a method.
TARGETS = (
    ("linalg", "rref", "linalg.elim", False),
    ("linalg", "kernel", "linalg.elim", False),
    ("linalg", "solve", "linalg.elim", False),
    ("linalg", "invert", "linalg.elim", False),
    ("linalg", "Subspace.span", "linalg.elim", False),
    ("linalg", "Matrix.__mul__", "linalg.matmul", True),
    ("linalg", "Subspace.reduce_vector", "linalg.member", True),
    ("linalg", "Subspace.contains_vector", "linalg.member", True),
    ("linalg", "Subspace.contains", "linalg.member", True),
    ("linalg", "rank", "linalg.other", False),
    ("linalg", "column_space", "linalg.other", False),
    ("linalg", "restrict_map", "linalg.other", False),
    ("linalg", "stack", "linalg.other", False),
    ("linalg", "Subspace.__and__", "linalg.other", False),
    ("linalg", "Subspace.__add__", "linalg.other", False),
    ("linalg", "Subspace.image_under", "linalg.other", False),
    ("algebra", "Algebra.mul_vec", "algebra.mul_vec", True),
    ("algebra", "Algebra.left_mult_matrix", "algebra.mult_matrix", False),
    ("algebra", "Algebra.right_mult_matrix", "algebra.mult_matrix", False),
    ("algebra", "check_alternative", "algebra.identities", False),
    ("algebra", "check_flexible", "algebra.identities", False),
    ("algebra", "check_associative", "algebra.identities", False),
    ("structure", "nucleus", "structure.nucleus", False),
    ("structure", "derivation_algebra", "structure.derivation_algebra", False),
    ("structure", "is_derivation", "structure.is_derivation", False),
    ("structure", "center", "structure.other", False),
    ("structure", "centralizer", "structure.other", False),
    ("structure", "commutator_subspace", "structure.other", False),
    ("structure", "derivation_span", "structure.other", False),
    ("structure", "verify_idempotent", "structure.other", False),
    ("structure", "analyze", "structure.other", False),
    ("peirce", "make_context", "peirce.make_context", False),
    ("peirce", "check_conditions", "peirce.check_conditions", False),
    ("peirce", "verify_relations", "peirce.verify_relations", False),
    ("peirce", "verify_prop_spade_club", "peirce.other", False),
    ("peirce", "verify_offdiag_centralizer", "peirce.other", False),
    ("liederiv", "check_lie_law", "liederiv.check_lie_law", False),
    ("liederiv", "check_hypotheses", "liederiv.check_hypotheses", False),
    ("liederiv", "normalize_at_idempotent", "liederiv.normalize", False),
    ("liederiv", "decompose", "liederiv.decompose", False),
    ("liederiv", "split_diagonal", "liederiv.split_diagonal", False),
    ("liederiv", "inner_f", "liederiv.other", False),
    ("liederiv", "compose", "liederiv.other", False),
    ("catalog", "parse_recipe", "catalog", False),
    ("catalog", "build", "catalog", False),
    ("catalog", "canonical_idempotent", "catalog", False),
    ("catalog", "random_lie_derivation", "catalog", False),
    ("jsonio", "load_algebra", "jsonio.load", False),
    ("jsonio", "load_mapspec", "jsonio.load", False),
    ("jsonio", "save_algebra", "jsonio.save", False),
    ("jsonio", "save_mapspec", "jsonio.save", False),
    ("cli", "main", "cli.main", False),
)

CACHED = ("nucleus", "center", "commutator_subspace", "derivation_algebra", "derivation_span")

# Elimination entry points whose argument is a Matrix; Subspace.span gets
# (ambient_dim, vectors).  Cells count only the outermost elimination call,
# so kernel -> rref -> span is one system, not three.
_MATRIX_ARG = {"linalg.rref", "linalg.kernel", "linalg.solve", "linalg.invert"}


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent index or -1, op, child_s]
        self.agg = {}      # name -> [calls, total_s, self_s]
        self.counters = {"linalg.elim.cells": 0, "jsonio.bytes": 0}
        self.groups = {}   # span or aggregate name -> layer metric group
        self.op = 0
        self._stack = []   # frames: [span index or -1, child_s, is_elim]
        self._cached = []

    # -- installation --

    def install(self, package):
        """Wrap every TARGETS entry point on every binding in the loaded package."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        for modname, attr, group, hot in TARGETS:
            mod = sys.modules[f"{package}.{modname}"]
            name = f"{modname}.{attr}"
            self.groups[name] = group
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__, hot)))
                else:
                    setattr(cls, meth, self._wrap(name, raw, hot))
                continue
            orig = getattr(mod, attr)
            if attr in CACHED:
                self._cached.append(orig)
            wrapper = self._wrap(name, orig, hot)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)

    def cache_counts(self) -> tuple[int, int]:
        """(hits, misses) summed over the lru-cached structure functions."""
        infos = [f.cache_info() for f in self._cached]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def _wrap(self, name, fn, hot):
        stack = self._stack
        spans = self.spans
        agg = self.agg.setdefault(name, [0, 0.0, 0.0]) if hot else None
        is_elim = self.groups[name] == "linalg.elim"
        counters = self.counters
        sized_io = name.startswith(("jsonio.load", "jsonio.save"))

        def cells(args):
            if name in _MATRIX_ARG:
                m = args[0]
                return m.nrows * (m.cols + (1 if name == "linalg.solve" else 0))
            dim, vectors = args[1], args[2]
            return dim * (len(vectors) if hasattr(vectors, "__len__") else 0)

        if hot:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [-1, 0.0, False]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += dur
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[1]
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if is_elim and not (parent and parent[2]):
                counters["linalg.elim.cells"] += cells(args)
            index = len(spans)
            record = [name, 0.0, 0.0, parent[0] if parent else -1, self.op, 0.0]
            spans.append(record)
            frame = [index, 0.0, is_elim or bool(parent and parent[2])]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                record[1], record[2], record[5] = t0, t1, frame[1]
                if sized_io:
                    path = args[1] if name.startswith("jsonio.save") else args[0]
                    try:
                        counters["jsonio.bytes"] += os.path.getsize(path)
                    except OSError:
                        pass
        return wrapper

    # -- output --

    def dump(self) -> dict:
        hits, misses = self.cache_counts()
        return {
            "spans": self.spans,
            "agg": self.agg,
            "counters": self.counters,
            "groups": self.groups,
            "cache": [hits, misses],
        }
