"""Fresh-process import time of the package and its lazy set-up, or of
the reference: the standard-library modules a command-line start needs.
Prints {"import_s": ...}.

    python3 perfbench/setup_probe.py nilbott|reference

Run with nothing imported beforehand, so both probes pay for the same
modules; the reference is the host-speed yardstick for set-up time.
"""

import sys
from time import perf_counter

REFERENCE_MODULES = ("argparse", "dataclasses", "fractions", "importlib.resources", "json")


def main() -> int:
    which = sys.argv[1] if len(sys.argv) > 1 else ""
    if which not in ("nilbott", "reference"):
        print(__doc__, file=sys.stderr)
        return 2
    start = perf_counter()
    if which == "reference":
        for name in REFERENCE_MODULES:
            __import__(name)
    else:
        from pathlib import Path

        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import nilbott.cli  # noqa: F401  (what a command-line run imports)
        from nilbott.geometry import catalogue_representation

        catalogue_representation("B1")
    elapsed = perf_counter() - start

    import json

    print(json.dumps({"import_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
