"""Command-line interface.

Documents are read through `schema`; every homology table comes from
`pipeline`.  Exit codes are a stable contract: 0 for success/match, 1 for a
semantic failure (invalid multicomplex, inconsistent flow data, mismatch,
non-isomorphic comparison), 2 for unreadable or malformed input.
"""

import argparse
import functools
import re
import sys

from .chain import HomologyGroup
from .flowdata import build_multicomplex
from .multicomplex import InvalidMulticomplex, validate_multicomplex
from .pipeline import compare_tables, expected_mismatches, homology_table
# load_document, morse_from_doc and presentation_from_doc run only inside
# presentation_from_file; they stay importable from here, where the
# benchmark's tracer finds them
from .schema import (
    SchemaError,
    canonical_json,
    expected_from_doc,
    load_document,
    morse_from_doc,
    presentation_from_doc,
    presentation_from_file,
)
from .simplicial import CoveringError

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_INPUT = 2


# ---------------------------------------------------------------------------
# reports


def group_to_data(degree, group, ambient_dim):
    data = {
        "degree": degree,
        "betti": group.betti,
        "torsion": list(group.torsion),
    }
    if degree > ambient_dim:
        data["truncation_sensitive"] = True
    return data


def validation_to_data(report):
    return {
        "valid": report.ok,
        "structural": [],  # shapes are refused at construction
        "identity_failures": [
            {"j": j, "p": p, "i": i,
             "residual": [list(row) for row in residual.data]}
            for (j, p, i, residual) in report.identity_failures
        ],
    }


# ---------------------------------------------------------------------------
# commands


def _emit(out, json_doc, text, as_json):
    if as_json:
        out.write(canonical_json(json_doc))
    else:
        out.write(text + "\n")


def _input_failure(exc, path):
    """Report an error raised while loading or building `path` and return
    the exit code: a failed covering check is inconsistent flow data,
    anything else is bad input."""
    if isinstance(exc, CoveringError):
        sys.stderr.write(f"inconsistent flow data: {path}: {exc}\n")
        return EXIT_SEMANTIC
    where = "" if isinstance(exc, SchemaError) else f"{path}: "
    sys.stderr.write(f"input error: {where}{exc}\n")
    return EXIT_INPUT


def _load(path):
    """(multicomplex, expected table or None) of a flow or Morse document:
    the presentation from schema.presentation_from_file, then `expected`,
    then the build, so every command refuses the same input with the same
    error.  The reader and the build are the ones every command and the
    corpus use.  Raises ValueError."""
    fp, _, doc = presentation_from_file(path)
    expected = expected_from_doc(doc, where=path)
    return build_multicomplex(fp, check=False), expected


def _report(report, stream, as_json, heading=""):
    """Write a validation report and return its exit code."""
    verdict = "valid" if report.ok else "INVALID"
    text = "\n".join([f"{heading}multicomplex: {verdict}",
                      *(f"  {line}" for line in report.describe())])
    _emit(stream, validation_to_data(report), text, as_json)
    return EXIT_OK if report.ok else EXIT_SEMANTIC


def cmd_validate(path, as_json=False):
    try:
        mc, _ = _load(path)
    except ValueError as exc:
        return _input_failure(exc, path)
    return _report(validate_multicomplex(mc), sys.stdout, as_json)


def parse_degree_range(text, default_hi):
    """The degrees `--degrees` names: K, A..B, or 0..default_hi when it is
    absent.  Raises ValueError naming the option."""
    if text is None:
        return range(0, default_hi + 1)
    # plain ASCII decimals only: int() would also take "1_0", " 1", "+1"
    # and non-ASCII digits
    match = re.fullmatch(r"([0-9]+)(?:\.\.([0-9]+))?", text)
    degrees = None
    if match:
        lo, hi = match.groups()
        degrees = range(int(lo), int(hi or lo) + 1)
    if not degrees:  # unparsable, or B < A
        raise ValueError(f"--degrees: expected K or A..B, got {text!r}")
    return degrees


def cmd_homology(path, degrees=None, as_json=False):
    try:
        mc, expected = _load(path)
    except ValueError as exc:
        return _input_failure(exc, path)
    try:
        degree_range = parse_degree_range(degrees, mc.ambient_dim)
    except ValueError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    try:
        groups = dict(zip(degree_range, homology_table(mc, degree_range)))
    except InvalidMulticomplex as exc:
        return _report(exc.report, sys.stderr, as_json)
    data = {
        "valid": True,
        "homology": [group_to_data(k, group, mc.ambient_dim)
                     for k, group in groups.items()],
    }
    text = ", ".join(f"HB_{k}={group}" for k, group in groups.items())
    code = EXIT_OK
    if expected is not None:
        mismatches = expected_mismatches(
            groups, {k: HomologyGroup(*want) for k, want in expected.items()})
        data["expected_match"] = not mismatches
        data["mismatches"] = mismatches
        if mismatches:
            code = EXIT_SEMANTIC
            for line in mismatches:
                sys.stderr.write(line + "\n")
    _emit(sys.stdout, data, text, as_json)
    return code


def cmd_morse(path, as_json=False):
    """Check the embedding of a Morse document's critical-point complex.

    The document is read as every command reads it, so a malformed one of
    any kind exits 2 naming its JSON path; a well-formed flow document is
    refused as not a Morse one.  Then `expected` is read for its errors,
    the flow-line counts must square to zero, and the build is the one
    every command makes."""
    # imported here: the other commands never need the module
    from .morse import InvalidMorseData, morse_complex, verify_morse_mb

    try:
        fp, md, doc = presentation_from_file(path)
        if md is None:
            raise SchemaError(f"{path}: expected a morse document")
        expected_from_doc(doc, where=path)  # read for its errors only
    except ValueError as exc:
        return _input_failure(exc, path)
    try:
        cm = morse_complex(md)
    except InvalidMorseData as exc:
        sys.stderr.write(f"invalid Morse-Smale data: {exc}\n")
        return EXIT_SEMANTIC
    try:  # verify_morse_mb validates the multicomplex
        mc = build_multicomplex(fp, check=False)
    except ValueError as exc:
        return _input_failure(exc, path)
    outcome = verify_morse_mb(cm, mc)
    dim = mc.ambient_dim
    data = {
        "morse_homology": [group_to_data(k, outcome.morse_homology[k], dim)
                           for k in range(dim + 1)],
        "mb_homology": [group_to_data(k, outcome.mb_homology[k], dim)
                        for k in range(dim + 1)],
        "chain_map_exact": outcome.chain_map_exact,
        "odd_components_zero": outcome.odd_components_zero,
        "quasi_isomorphism": outcome.is_quasi_iso,
        "ok": outcome.ok,
    }
    lines = [
        "CM homology: " + ", ".join(
            f"HM_{k}={outcome.morse_homology[k]}" for k in range(dim + 1)),
        "HB homology: " + ", ".join(
            f"HB_{k}={outcome.mb_homology[k]}" for k in range(dim + 1)),
        f"chain map: {'exact' if outcome.chain_map_exact else 'BROKEN'}; "
        f"quasi-isomorphism: {'yes' if outcome.is_quasi_iso else 'NO'}",
    ]
    _emit(sys.stdout, data, "\n".join(lines), as_json)
    return EXIT_OK if outcome.ok else EXIT_SEMANTIC


def cmd_compare(path_a, path_b, as_json=False):
    tables = []
    for path in (path_a, path_b):
        try:
            mc, _ = _load(path)
        except ValueError as exc:
            return _input_failure(exc, path)
        try:
            tables.append(homology_table(mc, range(0, mc.ambient_dim + 1)))
        except InvalidMulticomplex as exc:
            return _report(exc.report, sys.stderr, as_json, f"{path}:\n")
    comparisons = compare_tables(*tables)
    all_iso = all(iso for *_, iso in comparisons)
    data = {
        "comparisons": [{
            "degree": k,
            "left": {"betti": a.betti, "torsion": list(a.torsion)},
            "right": {"betti": b.betti, "torsion": list(b.torsion)},
            "isomorphic": iso,
        } for k, a, b, iso in comparisons],
        "isomorphic": all_iso,
    }
    lines = [f"degree {k}: {a} vs {b}: "
             f"{'isomorphic' if iso else 'DIFFERENT'}"
             for k, a, b, iso in comparisons]
    lines.append("comparison: " +
                 ("isomorphic" if all_iso else "NOT isomorphic"))
    _emit(sys.stdout, data, "\n".join(lines), as_json)
    return EXIT_OK if all_iso else EXIT_SEMANTIC


@functools.cache  # built by the first main call; parsing never changes it
def _parser():
    parser = argparse.ArgumentParser(
        prog="mbhomology",
        description="Exact integer Morse-Bott homology of finite flow "
                    "presentations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, paths in (
            ("validate", "check the anticommutation identities", ["path"]),
            ("homology", "compute the homology table", ["path"]),
            ("morse", "verify the critical-point complex embedding", ["path"]),
            ("compare", "compare homology tables of two presentations",
             ["path_a", "path_b"])):
        p = sub.add_parser(name, help=text)
        for path in paths:
            p.add_argument(path)
        if name == "homology":
            p.add_argument("--degrees", help="single degree K or range "
                           "A..B (default 0..dim)")
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.path, as_json=args.json)
    if args.command == "homology":
        return cmd_homology(args.path, degrees=args.degrees,
                            as_json=args.json)
    if args.command == "morse":
        return cmd_morse(args.path, as_json=args.json)
    return cmd_compare(args.path_a, args.path_b, as_json=args.json)


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
