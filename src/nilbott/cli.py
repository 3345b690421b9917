"""Command-line surface: cohomology values, tower classification, the
realization tables, and aggregated verification certificates.

The tables and the paper suite walk the seven cases of towers.CASES; each
table cell is computed by h2_one_relator and classify_tower.  `verify`
takes --kmax up to KMAX_LIMIT, since the paper suite is linear in it.

Exit codes: 0 all good, 1 verification failure, 2 input error.  Output is
deterministic: identical invocations produce identical bytes.  Set
NILBOTT_OUTPUT_DIR to also write JSON (and markdown for `tables`) files;
it is made before the command runs, which exits 2 if it cannot be made,
or if a file in it cannot be written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from . import __version__
from .catalogue import BASES, catalogue_pc
from .cohomology import (
    class_order,
    h2_one_relator,
    restriction_nonzero,
    transfer_identity_check,
)
from .geometry import (
    FREENESS_LIMIT,
    catalogue_representation,
    euler_number,
    freeness_sample,
    klein_quotient_check,
    l1_ball_size,
    verify_relations_in_rep,
)
from .invariants import catalogue_report
from .towers import (
    CASES,
    ExtensionError,
    TowerSpec,
    VerificationError,
    build_extension,
    classify_tower,
    parse_signs,
    parse_tower_spec,
)


ENGINE = f"nilbott {__version__}"
SCHEMA_VERSION = 1


@dataclass
class Certificate:
    claim: str
    inputs: dict
    verdict: str  # "pass" | "fail"
    witness: dict = field(default_factory=dict)
    engine: str = ENGINE

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "claim": self.claim,
            "inputs": self.inputs,
            "verdict": self.verdict,
            "witness": self.witness,
            "engine": self.engine,
        }


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _output_dir():
    return os.environ.get("NILBOTT_OUTPUT_DIR")


class _OutputError(Exception):
    """A file of NILBOTT_OUTPUT_DIR that cannot be written; main reports
    it as an input error."""


def _write_out(filename: str, text: str):
    outdir = _output_dir()
    if outdir:
        try:
            with open(os.path.join(outdir, filename), "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _OutputError(exc) from None


# -- cohomology command -------------------------------------------------------


def cmd_cohomology(args) -> int:
    if args.base not in BASES:
        print(f"error: unknown base {args.base!r} (use klein or torus)", file=sys.stderr)
        return 2
    base = catalogue_pc(BASES[args.base])
    try:
        items = [
            tuple(t.strip() for t in item.partition("=")[::2])
            for item in args.phi.split(",")
        ]
        signs = parse_signs(items, base.names)
        h2 = h2_one_relator(base, signs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"H^2_phi({args.base}; Z) = {h2}")
    print(f"distinguished class image = {h2.generator_image}")
    payload = {
        "schema_version": SCHEMA_VERSION,
        "base": args.base,
        "phi": {n: s for n, s in zip(base.names, signs)},
        "h2": str(h2),
        "free_rank": h2.free_rank,
        "torsion": list(h2.torsion),
        "generator_image": h2.generator_image,
    }
    if args.json:
        sys.stdout.write(_dump(payload))
    _write_out(f"cohomology_{args.base}.json", _dump(payload))
    return 0


# -- classify command ---------------------------------------------------------


def cmd_classify(args) -> int:
    try:
        with open(args.specfile) as fh:
            spec = parse_tower_spec(fh.read())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: bad tower spec: {exc}", file=sys.stderr)
        return 2
    try:
        verdict = classify_tower(spec)
    except (ValueError, ExtensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"label: {verdict.label}")
    print(f"type: {verdict.type}")
    for name in sorted(verdict.witness_fwd):
        print(f"witness {name} -> {verdict.witness_fwd[name]}")
    cert = Certificate(
        claim=f"classify/{os.path.basename(args.specfile)}",
        inputs={"spec": os.path.basename(args.specfile), "depth": spec.depth},
        verdict="pass",
        witness=verdict.to_dict(),
    )
    text = _dump(cert.to_dict())
    if args.json:
        sys.stdout.write(text)
    _write_out("classification.json", text)
    return 0


# -- tables command -----------------------------------------------------------


def tables_data():
    """Both realization tables, keyed by twist signs: H^2 from
    h2_one_relator, the labels from classify_tower at k = 0 and k = 1."""
    tables = {}
    for case, (kind, signs) in sorted(CASES.items()):
        base = BASES[kind]
        base_group = catalogue_pc(base)
        h2 = h2_one_relator(base_group, signs)
        nonzero = classify_tower(TowerSpec.depth3(base, signs, 1))
        tables.setdefault(base, []).append({
            "phi": dict(zip(base_group.names, signs)),
            "case": case,
            "h2": str(h2),
            "class_zero": classify_tower(TowerSpec.depth3(base, signs, 0)).label,
            "nonzero_torsion": nonzero.label if h2.torsion else None,
            "torsionfree": None if h2.torsion else f"{nonzero.target}(k)",
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "tables": [{"base": base, "columns": cols} for base, cols in tables.items()],
    }


def _table_markdown(table) -> str:
    cols = table["columns"]
    names = sorted(cols[0]["phi"])
    heads = [
        "phi=(" + ",".join(f"{n}:{'+' if c['phi'][n] > 0 else ''}{c['phi'][n]}" for n in names) + ")"
        for c in cols
    ]
    lines = [f"### base {table['base']}", ""]
    lines.append("| | " + " | ".join(heads) + " |")
    lines.append("|---" * (len(cols) + 1) + "|")
    rows = [
        ("H^2_phi", "h2"),
        ("[f]=0", "class_zero"),
        ("[f]!=0 torsion", "nonzero_torsion"),
        ("[f] torsionfree", "torsionfree"),
    ]
    for title, key in rows:
        cells = [c[key] if c[key] else "-" for c in cols]
        lines.append(f"| {title} | " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)


def cmd_tables(args) -> int:
    data = tables_data()
    md = "\n".join(_table_markdown(t) for t in data["tables"])
    if args.format in ("markdown", "both"):
        print(md)
    if args.format in ("json", "both"):
        sys.stdout.write(_dump(data))
    _write_out("tables.json", _dump(data))
    _write_out("tables.md", md + "\n")
    return 0


# -- verify command -----------------------------------------------------------


#: the paper suite is linear in kmax: about 2 s at the limit
KMAX_LIMIT = 100

_H2_EXPECTED = {1: "Z_2", 2: "Z_2", 3: "Z", 4: "Z_2", 5: "Z", 6: "Z_2", 7: "Z_2"}


def _suite_paper(kmax: int) -> list[Certificate]:
    ks = range(-kmax, kmax + 1)
    certs = []
    for case, (kind, signs) in sorted(CASES.items()):
        base = BASES[kind]
        base_group = catalogue_pc(base)
        h2 = str(h2_one_relator(base_group, signs))
        certs.append(
            Certificate(
                claim=f"h2/{kind}/case{case}",
                inputs={"phi": list(signs)},
                verdict="pass" if h2 == _H2_EXPECTED[case] else "fail",
                witness={"computed": h2, "expected": _H2_EXPECTED[case]},
            )
        )
        # catalogue identifications via the classifier (witnesses re-verified)
        for k in ks:
            try:
                verdict = classify_tower(TowerSpec.depth3(base, signs, k))
                outcome = "pass"
                witness = {"label": verdict.label, "type": verdict.type}
            except Exception as exc:  # classification must never throw here
                outcome = "fail"
                witness = {"error": str(exc)}
            certs.append(
                Certificate(
                    claim=f"identification/case{case}/k={k}",
                    inputs={"base": base, "phi": list(signs), "k": k},
                    verdict=outcome,
                    witness=witness,
                )
            )
        # type dichotomy: class order vs lattice restriction, an
        # independent criterion
        infinite = [not class_order(base_group, signs, (k,)).is_finite for k in ks]
        exts = (build_extension(base_group, signs, [k], "n") for k in ks)
        agree = all(restriction_nonzero(ext) == inf for ext, inf in zip(exts, infinite))
        expected = infinite == [case in (3, 5) and k != 0 for k in ks]
        certs.append(
            Certificate(
                claim=f"type-dichotomy/case{case}",
                inputs={"k_range": [-kmax, kmax]},
                verdict="pass" if (agree and expected) else "fail",
                witness={"criteria_agree": agree, "matches_table": expected},
            )
        )
        # transfer identity on the twisted cases
        if -1 in signs:
            ok = all(transfer_identity_check(base_group, signs, k) for k in ks)
            certs.append(
                Certificate(
                    claim=f"transfer/case{case}",
                    inputs={"k_range": [-kmax, kmax]},
                    verdict="pass" if ok else "fail",
                )
            )
    # relations in the Delta and Gamma models, euler numbers, quotient action
    for k in ks:
        euler = abs(euler_number(k))
        ok = euler == abs(k)
        if k != 0:
            gam = catalogue_pc("Gamma", k)
            ok = ok and verify_relations_in_rep(gam, catalogue_representation("Gamma", k))[0]
            delta = catalogue_pc("Delta", k)
            ok = ok and verify_relations_in_rep(delta, catalogue_representation("Delta", k))[0]
            ok = ok and klein_quotient_check(k)
        certs.append(
            Certificate(
                claim=f"nil-relations/k={k}",
                inputs={"k": k},
                verdict="pass" if ok else "fail",
                witness={"euler_magnitude": euler},
            )
        )
    # invariants of the finite-type catalogue
    for label in ("B1", "B2", "B3", "B4", "G2", "T3"):
        rep = catalogue_report(label)
        # holonomy_is_elementary_2 holds by construction (diagonal signs) and
        # stays in the witness only
        ok = rep.center_rank == rep.h1[0] and rep.hom_inj_pass and rep.hc_pass
        certs.append(
            Certificate(
                claim=f"invariants/{label}",
                inputs={"label": label},
                verdict="pass" if ok else "fail",
                witness=rep.to_dict(),
            )
        )
    return certs


FREENESS_ENTRIES = (("B1", None), ("B2", None), ("B3", None), ("B4", None),
                    ("Delta", 2), ("G2", None), ("Gamma", 2), ("K", None),
                    ("T2", None), ("T3", None))


def _suite_freeness(maxlen: int) -> list[Certificate]:
    certs = []
    for label, k in FREENESS_ENTRIES:
        group = catalogue_pc(label, k)
        rep = catalogue_representation(label, k)
        report = freeness_sample(group, rep, maxlen)
        certs.append(
            Certificate(
                claim=f"freeness/{label}" + (f"(k={k})" if k is not None else ""),
                inputs={"max_word_len": maxlen},
                verdict="pass" if report.is_free_sample else "fail",
                witness={"words_checked": report.words_checked,
                         "fixed_points": len(report.fixed_points)},
            )
        )
    return certs


def cmd_verify(args) -> int:
    if not args.suite:
        print("error: empty suite name", file=sys.stderr)
        return 2
    if args.maxlen < 1:
        print(f"error: --maxlen must be at least 1, got {args.maxlen}", file=sys.stderr)
        return 2
    if args.kmax < 0:
        print(f"error: --kmax must be at least 0, got {args.kmax}", file=sys.stderr)
        return 2
    if args.kmax > KMAX_LIMIT:
        print(f"error: --kmax {args.kmax} is above the limit of {KMAX_LIMIT}",
              file=sys.stderr)
        return 2
    if args.suite in ("freeness", "all"):
        # the ball size in closed form, before any power table is built
        ngens = max(catalogue_pc(label, k).ngens for label, k in FREENESS_ENTRIES)
        forms = l1_ball_size(ngens, args.maxlen)
        if forms > FREENESS_LIMIT:
            print(f"error: --maxlen {args.maxlen} gives up to {forms} normal forms "
                  f"per entry, above the limit of {FREENESS_LIMIT}", file=sys.stderr)
            return 2
    if args.suite == "paper":
        certs = _suite_paper(args.kmax)
    elif args.suite == "freeness":
        certs = _suite_freeness(args.maxlen)
    elif args.suite == "all":
        certs = _suite_paper(args.kmax) + _suite_freeness(args.maxlen)
    else:
        print(f"error: unknown suite {args.suite!r}", file=sys.stderr)
        return 2
    certs.sort(key=lambda c: c.claim)
    failed = 0
    for cert in certs:
        print(f"{'PASS' if cert.ok else 'FAIL'} {cert.claim}")
        if not cert.ok:
            failed += 1
    print(f"{len(certs) - failed}/{len(certs)} certificates passed")
    _write_out(
        f"verify_{args.suite}.json", _dump([c.to_dict() for c in certs])
    )
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilbott",
        description="exact engine for iterated circle-bundle groups over "
                    "flat 2-dimensional bases",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("cohomology", help="twisted H^2 of a base group")
    p.add_argument("--base", required=True, help="klein or torus")
    p.add_argument("--phi", required=True, help="signs, e.g. g=-1,h=+1")
    p.add_argument("--json", action="store_true", help="also print JSON")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("classify", help="classify a tower spec file")
    p.add_argument("specfile")
    p.add_argument("--json", action="store_true", help="also print JSON")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("tables", help="emit both realization tables")
    p.add_argument(
        "--format", choices=("markdown", "json", "both"), default="markdown"
    )
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="", help="paper, freeness or all")
    p.add_argument("--maxlen", type=int, default=4, help="freeness word length")
    p.add_argument("--kmax", type=int, default=5, help="twisting range bound")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        if _output_dir():  # made before any work
            os.makedirs(_output_dir(), exist_ok=True)
    except OSError as exc:
        print(f"error: cannot make NILBOTT_OUTPUT_DIR: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except _OutputError as exc:
        print(f"error: cannot write to NILBOTT_OUTPUT_DIR: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
