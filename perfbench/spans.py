"""Tracing from outside the library: span wrappers, counters and self time.

`install_spans` wraps every public function of the satkit modules, in every
module namespace that binds it, plus the methods in METHODS; only the
per-term helpers in UNSPANNED are left out.  Each call
records a span [name, start, end, parent, job, error] in memory; the
benchmark reads them out when the pass ends.  `install_counts` wraps only
LaurentPoly.__add__ and __mul__, which are called far too often to carry a
span; it runs in a pass of its own so that its cost stays out of the span
self times.

Nothing here changes what a job prints.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from math import factorial
from time import perf_counter
from typing import Dict, Iterable, List, Sequence

MODULES = ("satkit", "satkit.laurent", "satkit.rootdata", "satkit.satake", "satkit.characters", "satkit.cli")

# Public methods that carry spans: (module, class, method).
METHODS = (
    ("satkit.satake", "HeckeRing", "weyl"),
    ("satkit.satake", "HeckeRing", "contains"),
    ("satkit.characters", "KostantDatum", "coset_reps"),
    ("satkit.characters", "KostantDatum", "levi_group"),
)

# Per-term helpers, called once per monomial, term pair or permutation: a span
# on each would cost more than the work it times.  Their time stays in the
# self time of their callers.
UNSPANNED = frozenset({
    "laurent.tor",
    "laurent.sim_factor",
    "laurent.mono_mul",
    "laurent.mono_pow",
    "characters.pairing_pi",
    "characters.pairing_coroot",
})

NAME, START, END, PARENT, JOB, ERROR = range(6)


class Recorder:
    """Spans and counters of one pass, kept in memory."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.job = -1
        self.counters: Counter = Counter()


# Counters read off a call's arguments and result: span name -> fn(counters, args, result).
def _weyl_group(c, args, result):
    c["laurent.weyl_group.elements"] += len(result)


def _symmetrize(c, args, result):
    f, group = args[0], args[1]
    c["laurent.symmetrize.useful"] += len(result)
    c["laurent.symmetrize.attempts"] += len(f) * len(group)


def _coset_reps(c, args, result):
    c["characters.KostantDatum.coset_reps.kept"] += len(result)
    c["characters.KostantDatum.coset_reps.tried"] += factorial(args[0].n)


def _transfer_square(c, args, result):
    c["satake.verify_transfer_square.cases"] += result["cases"]


OBSERVERS = {
    "laurent.weyl_group": _weyl_group,
    "laurent.symmetrize": _symmetrize,
    "characters.KostantDatum.coset_reps": _coset_reps,
    "satake.verify_transfer_square": _transfer_square,
}


def _span_wrapper(fn, name: str, rec: Recorder):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.job, None]
        rec.stack.append(len(rec.spans))
        rec.spans.append(span)
        span[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = perf_counter()
            rec.stack.pop()
        if observe is not None:
            observe(rec.counters, args, result)
        return result

    return wrapper


def public_functions(modules: Sequence) -> Dict[int, tuple]:
    """id(fn) -> (fn, span name) for each public satkit function the modules bind,
    per-term helpers (UNSPANNED) left out."""
    found = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__.startswith("satkit."):
                name = f"{obj.__module__[len('satkit.'):]}.{obj.__name__}"
                if name not in UNSPANNED:
                    found[id(obj)] = (obj, name)
    return found


def install_spans(modules: Sequence, rec: Recorder, extra: Iterable = ()) -> None:
    """Wrap the public functions in every namespace that binds them.

    `extra` holds further (owner, attribute, span name) triples, such as a
    parse method of the standard library that a job's parse time runs in.
    """
    functions = public_functions(modules)
    wrappers = {key: _span_wrapper(fn, name, rec) for key, (fn, name) in functions.items()}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                setattr(mod, attr, wrappers[id(obj)])
    by_name = {mod.__name__: mod for mod in modules}
    for mod_name, cls_name, meth in METHODS:
        cls = getattr(by_name[mod_name], cls_name)
        span = f"{mod_name[len('satkit.'):]}.{cls_name}.{meth}"
        setattr(cls, meth, _span_wrapper(vars(cls)[meth], span, rec))
    for owner, attr, span in extra:
        setattr(owner, attr, _span_wrapper(getattr(owner, attr), span, rec))


def install_counts(poly_cls, rec: Recorder) -> None:
    """Count LaurentPoly additions (terms copied) and products (term pairs).

    Only the operators the class defines are wrapped, and only calls that do
    not return NotImplemented are counted, so counting passes run the same
    library as plain ones.
    """
    c = rec.counters

    def counting_add(add):
        def counted_add(self, other):
            out = add(self, other)
            if out is not NotImplemented:
                c["laurent.add.calls"] += 1
                # __add__ copies the left operand's dict, then rebuilds the result's
                c["laurent.add.terms_copied"] += len(self) + len(out)
            return out
        return counted_add

    def counting_mul(mul):
        def counted_mul(self, other):
            out = mul(self, other)
            if out is not NotImplemented:
                c["laurent.mul.calls"] += 1
                c["laurent.mul.term_pairs"] += len(self) * (len(other) if isinstance(other, poly_cls) else 1)
            return out
        return counted_mul

    own = vars(poly_cls)
    for attr, wrap in (("__add__", counting_add), ("__radd__", counting_add),
                       ("__mul__", counting_mul), ("__rmul__", counting_mul)):
        if attr in own:
            setattr(poly_cls, attr, wrap(own[attr]))


# -- analysis -------------------------------------------------------------------------


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: Dict[int, List[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        cursor = start
        for j in sorted(children.get(i, ()), key=lambda k: spans[k][START]):
            a, b = max(spans[j][START], cursor), min(spans[j][END], end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((end - start) - covered)
    return out


def summarize(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self time, and calls that raised, by exception name."""
    table: Dict[str, Dict[str, float]] = {}
    for s, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "errors": Counter()})
        row["calls"] += 1
        row["self_s"] += self_s
        if s[ERROR]:
            row["errors"][s[ERROR]] += 1
    return table
