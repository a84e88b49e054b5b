"""Command-line surface: predict, solve, verify, tables, props.

Exit codes: 0 when everything passes (or a prediction/solution was
produced), 1 on a mathematical failure (SUSPECT verdict, singular or
inconsistent system), 2 on usage errors, including a prime too small to
draw the requested random data and an --out path that cannot be written
(checked before any work, and again when written).  A flag the command
would not read is a usage error too, refused before any work by one rule
(``_refuse_unread``): ``props --deep`` outside ``--prop all`` and ``-n 6|7``,
``solve --prime`` outside ``--field gf``, and the like.

Reports are JSON by default.  ``--format csv`` writes one header and one
row per case, in the order of the JSON ``cases``: the case fields, then the
profile, degree, max_delta and type_vector of a degree-2 table row (blank
on other cases).  Timing lives in a separate "timing" section of the
JSON, and the kernel, versions and number of processes that produced the
report in "config", so that rerunning with the same --seed yields a
byte-identical "cases" payload.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import functools
import os
import platform
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, interp, linalg, theory, verify
from .gf import DEFAULT_PRIME, check_modulus, int_text
from .schemes import DegenerateDrawError
from .verify import DEFAULT_SEED, TrialPolicy

SCHEMA_VERSION = 1

USAGE_ERROR = 2
MATH_ERROR = 1


def _add_common(parser):
    parser.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                        help="odd prime for the finite-field path (default 31991)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trials", type=int, default=3, help="trials per case, at least 1")


def _policy(args, max_degree: int) -> TrialPolicy:
    check_modulus(args.prime, max_degree=max_degree)
    return TrialPolicy(trials=args.trials, prime=args.prime, seed=args.seed)


def _refuse_unread(rules) -> None:
    """Refuse a flag the command would not read: ``(flag, value, read, where)``
    entries, ``value`` None when the flag is not given."""
    for flag, value, read, where in rules:
        if value is not None and not read:
            raise ValueError(f"{flag} applies only to {where}")


def _check_out(path: str) -> None:
    """Refuse an --out path that cannot be written, before any work is done."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = os.strerror(errno.EISDIR)
    elif not os.path.isdir(parent):
        reason = f"no directory {parent}"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = os.strerror(errno.EACCES)
    else:
        return
    raise ValueError(f"cannot write {path}: {reason}")


def _emit(args, write) -> None:
    """Call ``write`` on the --out file, or on stdout; an OSError writing the file is a usage error."""
    if not args.out:
        return write(sys.stdout)
    try:
        with open(args.out, "w") as fh:
            write(fh)
    except OSError as err:
        raise ValueError(f"cannot write {args.out}: {err.strerror or err}") from None


# pieces joined per write: a report is written in chunks of about this many
# lines, so its text never exists whole
_WRITE_PIECES = 512
_INF = float("inf")


def _float_json(o) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


# the JSON text of a scalar of each exact type; a subclass goes through _scalar_json
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int_text,
    float: _float_json,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda o: "null",
}


def _scalar_json(o):
    """A scalar's JSON text as ``json.dumps`` writes it, ints of any size; None for anything else."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int_text(o)
    if isinstance(o, float):
        return _float_json(o)
    return None


def _scalars_json(items):
    """Each item's JSON text, or None when one is not a scalar; lists of ints or strs in one pass."""
    kinds = set(map(type, items))
    if kinds == {int}:
        try:
            return list(map(int.__repr__, items))
        except ValueError:  # an int past str's digit limit
            pass
    elif kinds == {str}:
        return list(map(encode_basestring_ascii, items))
    elif kinds & {list, tuple, dict}:
        return None
    texts = list(map(_scalar_json, items))
    return None if None in texts else texts


def _list_json(items, nl, rows=True):
    """The text of a list of scalars at the indent ``nl``, or with ``rows`` of a list of such lists; else None."""
    if not items:
        return "[]"
    inner = nl + "  "
    texts = _scalars_json(items)
    if texts is None and rows and set(map(type, items)) <= {list, tuple}:
        if all(items) and set(map(type, chain.from_iterable(items))) == {int}:
            deeper = inner + "  "
            join = ("," + deeper).join
            try:  # rows of ints, as a solve's monomials are
                texts = [f"[{deeper}{join(map(int.__repr__, item))}{inner}]" for item in items]
            except ValueError:  # an int past str's digit limit
                pass
        if texts is None:
            texts = [_list_json(item, inner, False) for item in items]
            if None in texts:
                return None
    return None if texts is None else f"[{inner}{(',' + inner).join(texts)}{nl}]"


def _flat_json(o, nl):
    """The text of ``o`` at the indent ``nl`` if it is a scalar, a list of them or a list of
    such lists; None for anything else."""
    scalar = _SCALAR_JSON.get(type(o))
    if scalar is not None:
        return scalar(o)
    if isinstance(o, (list, tuple)):
        return _list_json(o, nl)
    return None if isinstance(o, dict) else _scalar_json(o)


def _key_json(key) -> str:
    text = key if isinstance(key, str) else _scalar_json(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return encode_basestring_ascii(text)


def _write_json(doc, fh) -> None:
    """Write ``json.dumps(doc, indent=2, sort_keys=True)`` to ``fh``, ints of any size.

    The text is built from joined strings: a list of scalars, or of such
    lists, in one piece, strings by the C ``encode_basestring_ascii``.  It
    goes out every ``_WRITE_PIECES`` pieces, as ``json.dump`` writes as it
    goes, so a large report never exists whole.  What ``json`` cannot encode
    raises its TypeError; a circular reference is not detected.
    """
    text = _flat_json(doc, "\n")
    if text is None:
        out = []
        _put_json(doc, "\n", out, fh)
        text = "".join(out)
    fh.write(text)


def _put_json(o, nl, out, fh) -> None:
    """Append the pieces of a dict, or of a list ``_flat_json`` does not take, to ``out``.

    ``out`` is written to ``fh`` and emptied each time it holds ``_WRITE_PIECES``.
    """
    inner = nl + "  "
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        sep = "{" + inner
        for key, value in sorted(o.items()):
            name = encode_basestring_ascii(key) if type(key) is str else _key_json(key)
            scalar = _SCALAR_JSON.get(type(value))
            text = scalar(value) if scalar is not None else _flat_json(value, inner)
            if text is None:
                out.append(f"{sep}{name}: ")
                _put_json(value, inner, out, fh)
            else:
                out.append(f"{sep}{name}: {text}")
                if len(out) >= _WRITE_PIECES:
                    fh.write("".join(out))
                    out.clear()
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, (list, tuple)):
        sep = "[" + inner
        for item in o:
            text = _flat_json(item, inner)
            if text is None:
                out.append(sep)
                _put_json(item, inner, out, fh)
            else:
                out.append(sep + text)
                if len(out) >= _WRITE_PIECES:
                    fh.write("".join(out))
                    out.clear()
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _emit_json(args, doc) -> None:
    """``json.dumps(doc, indent=2, sort_keys=True)`` to the --out file, or to stdout and a newline."""
    _emit(args, functools.partial(_write_json, doc))
    if not args.out:
        sys.stdout.write("\n")


def _report_doc(args, reports) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "prime": args.prime,
            "seed": getattr(args, "seed", None),
            "trials": getattr(args, "trials", None),
            "deep": bool(getattr(args, "deep", False)),
            "processes": verify.batch_processes,
            "kernel": linalg.KERNEL,
            "version": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "cases": [r.to_json() for r in reports],
        "all_pass": all(r.passed for r in reports),
        "timing": {r.case: round(r.millis, 3) for r in reports},
    }


def _write_csv(reports, fh) -> None:
    """One header and one row per case: the case fields, then a table row's profile fields."""
    writer = csv.writer(fh)
    writer.writerow(verify.CASE_FIELDS + verify.TABLE_FIELDS)
    writer.writerows(r.csv_row() for r in reports)


def _emit_reports(args, reports) -> int:
    if args.format == "csv":
        _emit(args, functools.partial(_write_csv, reports))
    else:
        _emit_json(args, _report_doc(args, reports))
    for r in reports:
        if not r.passed:
            print(_fail_line(r), file=sys.stderr)
    return 0 if all(r.passed for r in reports) else MATH_ERROR


def _fail_line(r) -> str:
    """What a failed case measured, and the root seed, prime and child seeds that replay it."""
    line = (f"FAIL {r.case}: measured {r.measured}, predicted {r.predicted};"
            f" replay: --seed {r.seed} --prime {r.prime}")
    if r.kind != "enumeration":  # trial t of the case drew from child_seed(seed, case, t)
        seeds = [verify.child_seed(r.seed, r.case, t) for t in range(len(r.measured))]
        line += f", child seeds {seeds}"
    for label, trials in r.jobs:  # an enumeration's disagreeing jobs, each its own label
        seeds = [verify.child_seed(r.seed, label, t) for t in range(trials)]
        line += f", job {label!r} child seeds {seeds}"
    return line


def _parse_profile(text):
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers: {text!r}")


def cmd_predict(args) -> int:
    if (args.a is None) == (args.lengths is None):
        raise ValueError("predict needs exactly one of -a or --lengths")
    if args.lengths is not None:
        lengths = theory.sorted_lengths(args.n, args.lengths)
        prediction = theory.predict_profile(args.n, args.d, tuple(l - 1 for l in lengths))
        doc = prediction.to_json()
        if args.d == 2:
            doc["quadric"] = theory.predict_quadric_scheme(args.n, lengths).to_json()
        doc["lengths"] = list(lengths)
    else:
        prediction = theory.predict_profile(args.n, args.d, args.a)
        doc = prediction.to_json()
        if args.d == 2:
            doc["quadric"] = theory.predict_quadric_affine(args.n, args.a).to_json()
        doc["a"] = sorted(args.a, reverse=True)
    doc.update({"schema_version": SCHEMA_VERSION, "n": args.n, "d": args.d})
    _emit_json(args, doc)
    return 0


def cmd_solve(args) -> int:
    _refuse_unread([("--prime", args.prime, args.field == "gf", "--field gf")])
    gf_prime = DEFAULT_PRIME if args.prime is None else args.prime
    try:  # a solve over GF(p) reads 'num/den' scalars straight to their residues
        prob = interp.load_problem(args.problem, gf_prime if args.field == "gf" else None)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as err:
        print(f"error reading problem: {err}", file=sys.stderr)
        return USAGE_ERROR
    # the field is chosen here: a file's "prime" applies only to --field auto
    if args.field == "rational":
        prob = dataclasses.replace(prob, prime=None)
    prime = gf_prime if args.field == "gf" else prob.prime
    try:
        result = interp.predict_then_solve(prob, prime)
    except interp.NoResidueError as err:
        print(f"error reading problem: {err}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    doc = {
        "schema_version": SCHEMA_VERSION,
        "prediction": result.prediction.to_json(),
    }
    if result.interpolant is not None:
        doc["interpolant"] = result.interpolant.to_json()
    if result.diagnosis is not None:
        doc["diagnosis"] = result.diagnosis
    _emit_json(args, doc)
    return 0 if result.interpolant is not None else MATH_ERROR


def cmd_tables(args) -> int:
    policy = _policy(args, 2)
    reports = verify.verify_tables(policy, args.n)
    return _emit_reports(args, reports)


def cmd_props(args) -> int:
    which = args.prop
    _refuse_unread([
        ("--sample", args.sample, which in ("4.8", "all"), "--prop 4.8, all"),
        ("-n", args.n, which in ("4.7", "4.13", "base"), "--prop 4.7, 4.13, base"),
        ("--deep", args.deep, which == "all" or args.n in (6, 7), "--prop all, or with -n 6, 7"),
    ])
    policy = _policy(args, 3)
    n = args.n or 5  # given only for the base sweeps, whose larger n is behind --deep
    if n > 5 and not args.deep:
        raise ValueError(f"n={n} is behind --deep (combinatorial blow-up)")
    if which == "4.5":
        reports = verify.verify_prop45(policy)
    elif which == "4.6":
        reports = verify.verify_remark46(policy)
    elif which == "4.8":
        reports = verify.verify_prop48_leftovers(policy, sample=args.sample)
    elif which == "4.7":
        reports = verify.verify_base_two_subspaces(policy, n, props=("4.7",))
    elif which == "4.13":
        reports = verify.verify_base_one_subspace(policy, n)
    elif which == "base":
        reports = verify.verify_props47_413_base(policy, n)
    else:  # all
        reports = (verify.run_suite(policy, "p8", sample=args.sample)
                   + verify.run_suite(policy, "base", deep=args.deep))
    return _emit_reports(args, reports)


def cmd_verify(args) -> int:
    has_case = args.a is not None or args.lengths is not None
    _refuse_unread([
        ("--suite", args.suite, not has_case, "a suite run, without -a or --lengths"),
        ("-n", args.n, has_case, "a single case (-a or --lengths)"),
        ("-d", args.d, has_case, "a single case (-a or --lengths)"),
        ("--deep", args.deep, not has_case and args.suite in (None, "all", "base"),
         "--suite base, all, without -a or --lengths"),
    ])
    if has_case and (args.n is None or args.d is None):
        raise ValueError("a single case needs -n and -d")
    if has_case:
        policy = _policy(args, args.d)
        reports = [verify.verify_generic(policy, args.n, args.d,
                                         a=args.a, lengths=args.lengths)]
    else:
        policy = _policy(args, max(degree for name, (degree, _) in verify.SUITES.items()
                                   if args.suite in (None, "all", name)))
        reports = verify.run_suite(policy, args.suite or "all", deep=args.deep)
    return _emit_reports(args, reports)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppinterp",
        description="exact predictors, solvers and seeded rank verification "
                    "for partial polynomial interpolation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="expected codimension and exception match")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-a", type=_parse_profile, help="derivative counts, e.g. 2,2,2")
    p.add_argument("--lengths", type=_parse_profile, help="component lengths, e.g. 4,4,2")
    p.add_argument("--out", help="write the prediction to this path instead of stdout")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("solve", help="solve a problem JSON file exactly")
    p.add_argument("problem")
    p.add_argument("--field", choices=("auto", "rational", "gf"), default="auto",
                   help="arithmetic domain; 'auto' follows the problem file")
    p.add_argument("--prime", type=int,
                   help="prime for --field gf, read only with it (default 31991)")
    p.add_argument("--out", help="write the result to this path instead of stdout")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("tables", help="regenerate a degree-2 exception table and measure dims")
    p.add_argument("-n", type=int, choices=(3, 4), required=True)
    _add_common(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("props", help="cubic verification sweeps in P^n")
    p.add_argument("--prop",
                   choices=("4.5", "4.6", "4.7", "4.8", "4.13", "base", "all"),
                   default="all")
    p.add_argument("-n", type=int, choices=(5, 6, 7),
                   help="ambient dimension for the 4.7/4.13/base sweeps (default 5)")
    p.add_argument("--sample", type=int, help="cap combos per triple (4.8 and all only)")
    p.add_argument("--deep", action="store_true", default=None, help="allow the n=6,7 sweeps")
    _add_common(p)
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("verify", help="run a verification suite or one generic case")
    p.add_argument("--suite", choices=("all", *verify.SUITES), help="default all")
    p.add_argument("-n", type=int)
    p.add_argument("-d", type=int)
    p.add_argument("-a", type=_parse_profile)
    p.add_argument("--lengths", type=_parse_profile)
    p.add_argument("--deep", action="store_true", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    verify.batch_processes = 1
    try:
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except (ValueError, DegenerateDrawError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
