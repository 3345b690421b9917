"""Outside-in tracing of the engine's public functions.

Each target is wrapped where it is defined, and every module-level binding
of the original inside the `nilbott` package is replaced too, because
modules import names such as `verify_isomorphism` and `nf_multiply`
directly.  Methods are wrapped on their class.  Spans (name, start, end,
parent, item) stay in memory until the run ends.  Nothing inside the
package is edited; the untraced workers never import this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
from collections import Counter
from time import perf_counter

#: (metric prefix, module, attribute path); one prefix may cover several
#: attributes (the flat and nil fixed-point solvers)
TARGETS = (
    ("polycyclic.PcPresentation", "nilbott.polycyclic", "PcPresentation.__init__"),
    ("polycyclic.consistency_check", "nilbott.polycyclic", "consistency_check"),
    ("polycyclic.collect", "nilbott.polycyclic", "collect"),
    ("polycyclic.substitute", "nilbott.polycyclic", "substitute"),
    ("polycyclic.verify_homomorphism", "nilbott.polycyclic", "verify_homomorphism"),
    ("polycyclic.verify_isomorphism", "nilbott.polycyclic", "verify_isomorphism"),
    ("polycyclic.nf_multiply", "nilbott.polycyclic", "nf_multiply"),
    ("towers.classify_tower", "nilbott.towers", "classify_tower"),
    ("towers.build_extension", "nilbott.towers", "build_extension"),
    ("catalogue.catalogue_pc", "nilbott.catalogue", "catalogue_pc"),
    ("catalogue.compose_maps", "nilbott.catalogue", "compose_maps"),
    ("catalogue.base_identification", "nilbott.catalogue", "base_identification"),
    ("catalogue.reduction_maps", "nilbott.catalogue", "reduction_maps"),
    ("cohomology.h2_one_relator", "nilbott.cohomology", "h2_one_relator"),
    ("cohomology.class_order", "nilbott.cohomology", "class_order"),
    ("cohomology.restriction_nonzero", "nilbott.cohomology", "restriction_nonzero"),
    ("exact.smith_normal_form", "nilbott.exact", "smith_normal_form"),
    ("exact.solve_rational", "nilbott.exact", "solve_rational"),
    ("geometry.freeness_sample", "nilbott.geometry", "freeness_sample"),
    ("geometry.rep_evaluate", "nilbott.geometry", "rep_evaluate"),
    ("geometry.fixed_point", "nilbott.geometry", "FlatAffineMap.fixed_point"),
    ("geometry.fixed_point", "nilbott.geometry", "HeisAffineMap.fixed_point"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

#: counts that depend only on the inputs and the engine's semantics
EXACT_COUNTS = (
    "words.syllables_built",
    "polycyclic.substitute.letters_in",
    "towers.build_extension.rejected",
    "geometry.words_checked",
)
COUNTS = ("words.Word.built",) + EXACT_COUNTS


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, item)
        self.counts: Counter = Counter({name: 0 for name in COUNTS})
        self.item = -1
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, before=None, after=None, rejects=()):
        """fn, recording a span per call; the hooks see the arguments and
        the result, and `rejects` exceptions are counted and re-raised."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except rejects:
                counts[name + ".rejected"] += 1
                raise
            finally:
                spans[sid] = (name, start, perf_counter(), parent, self.item)
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def install(self):
        """Wrap every target and the Word constructor; returns self."""
        from nilbott.towers import ExtensionError
        from nilbott.words import Word

        _import_package()
        counts = self.counts
        hooks = {
            "polycyclic.substitute": {
                "before": lambda args: counts.update(
                    {"polycyclic.substitute.letters_in": len(args[0])}
                )
            },
            "towers.build_extension": {"rejects": (ExtensionError, ValueError)},
            "geometry.freeness_sample": {
                "after": lambda report: counts.update(
                    {"geometry.words_checked": report.words_checked}
                )
            },
        }
        for name, module, path in TARGETS:
            owner = importlib.import_module(module)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(f"{module}.{path}")
                continue
            wrapped = self.wrap(name, orig, **hooks.get(name, {}))
            if cls_path:
                setattr(owner, attr, wrapped)
            else:
                _rebind(orig, wrapped)

        word_init = Word.__init__

        def counted_init(word, syllables=()):
            if not isinstance(syllables, (tuple, list)):
                syllables = tuple(syllables)
            counts["words.Word.built"] += 1
            counts["words.syllables_built"] += len(syllables)
            word_init(word, syllables)

        Word.__init__ = counted_init
        return self

    def self_times(self) -> dict[str, float]:
        """Per-name self time: span time minus the time its child spans
        cover (children of one synchronous span never overlap)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = {name: 0.0 for name in SPAN_NAMES}
        for (name, *_), t in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def calls(self) -> dict[str, int]:
        out = Counter({name: 0 for name in SPAN_NAMES})
        out.update(name for name, *_ in self.spans)
        return dict(out)

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, start, end, parent, item]) + "\n")


def _import_package():
    import nilbott

    for info in pkgutil.iter_modules(nilbott.__path__):
        importlib.import_module(f"nilbott.{info.name}")


def _rebind(orig, wrapped):
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "nilbott" or mod_name.startswith("nilbott.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)
