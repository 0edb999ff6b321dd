"""In-process timing of the read, the build, the validation, the report
and the whole `homology --json` call on seeded benchmark documents
(perfbench/workloads.py): `torus-grid` at n = 20, 40 and 80, one simplicial
row whose cost is per simplex; `bott-twist` at n = 8, 16 and 32, where the
covering d[1] is a large share of a call; and `dim-padded` at dim n = 55,
550 and 5500, a shipped presentation whose report has one row per degree
0..dim; and `morse-random` at n = 8, 32 and 128 points per index, run
through the `morse` command, whose cost should follow the flow-line
counts.

Each stage is timed as the best of `--repeat` runs on the document of
seed 1, call 0, written to a temporary file, with the garbage collector
off inside each timed run (a collection is made before it), since with it
on whole-call times swing by about 15% on a busy host:

- load: `schema.presentation_from_file`, which reads and checks the file;
- build: `build_multicomplex(presentation, check=False)`, as the command
  line calls it;
- validate: `validate_multicomplex` on that build;
- report: from the homology table in degrees 0..dim to the JSON text,
  `group_to_data` for each degree and `canonical_json` of the result;
- whole: `cli.main(["homology", FILE, "--json"])`, its output discarded.

A `morse-random` document has the columns of the `morse` command instead:

- read: `schema.presentation_from_file`, which reads the file and makes
  the flow presentation (`morse_to_flow`);
- build: as above;
- compare: `morse.is_critical_point_complex`, the check of the validated
  build against the flow-line counts;
- whole: `cli.main(["morse", FILE, "--json"])`, its output discarded.

The documents do not depend on the program, so two checkouts time the
same inputs: run it in both, alternately, and compare.

    python3 scripts/stage_timing.py [--repeat 5]
"""

import argparse
import gc
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from mbhomology import cli  # noqa: E402
from mbhomology.flowdata import build_multicomplex  # noqa: E402
from mbhomology.morse import is_critical_point_complex  # noqa: E402
from mbhomology.multicomplex import validate_multicomplex  # noqa: E402
from mbhomology.pipeline import homology_table  # noqa: E402
from mbhomology.schema import (  # noqa: E402
    canonical_json,
    presentation_from_file,
)

SIZES = {"torus-grid": (20, 40, 80), "bott-twist": (8, 16, 32),
         "dim-padded": (55, 550, 5500), "morse-random": (8, 32, 128)}


def best_ms(repeat, run):
    times = []
    for _ in range(repeat):
        gc.collect()
        gc.disable()
        try:
            start = perf_counter()
            run()
            times.append(perf_counter() - start)
        finally:
            gc.enable()
    return 1000 * min(times)


def report(mc, table):
    dim = mc.ambient_dim
    return canonical_json({"valid": True, "homology": [
        cli.group_to_data(k, group, dim) for k, group in enumerate(table)]})


def whole(command, path):
    with redirect_stdout(io.StringIO()):
        assert cli.main([command, path, "--json"]) == cli.EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for workload, sizes in SIZES.items():
            for n in sizes:
                doc = workloads.make(workload, 1, 0, size=n)[0]
                path = str(Path(tmp) / f"{workload}-{n}.json")
                Path(path).write_text(json.dumps(doc), encoding="utf-8")
                fp, md, _ = presentation_from_file(path)
                mc = build_multicomplex(fp, check=False)
                load = best_ms(args.repeat,
                               lambda: presentation_from_file(path))
                build = best_ms(args.repeat,
                                lambda: build_multicomplex(fp, check=False))
                if md is not None:
                    check = best_ms(args.repeat, lambda:
                                    is_critical_point_complex(md, fp, mc))
                    call = best_ms(args.repeat, lambda: whole("morse", path))
                    print(f"{workload:<10} n={n:<4} read {load:7.2f} ms  "
                          f"build {build:7.2f} ms  compare {check:7.3f} ms  "
                          f"whole {call:7.2f} ms")
                    continue
                check = best_ms(args.repeat, lambda: validate_multicomplex(mc))
                table = homology_table(mc, range(mc.ambient_dim + 1))
                text = best_ms(args.repeat, lambda: report(mc, table))
                call = best_ms(args.repeat, lambda: whole("homology", path))
                print(f"{workload:<10} n={n:<4} load {load:7.1f} ms  "
                      f"build {build:7.1f} ms  validate {check:7.1f} ms  "
                      f"report {text:7.2f} ms  whole {call:7.1f} ms")


if __name__ == "__main__":
    main()
