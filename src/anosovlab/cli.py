"""Batch command-line front end.

Subcommands construct representations and run the verification scans,
emitting machine-readable reports: JSON for nested reports, CSV (with a
sidecar schema file) for flat scan tables.  Exit status: 0 all checks
pass, 1 any check fails, 2 only ambiguous verdicts, 3 numeric/domain
errors (diagnostic JSON on stderr), 64 usage errors.

The commands only adapt arguments and aggregate report verdicts: every
verdict threshold is a constant of ``verification``.
"""

from __future__ import annotations

import csv
import json
import sys

import click
import numpy as np
from click.core import ParameterSource

from . import verification as ver
from .errors import AnosovLabError, InputError
from .groups import Word
from .representations import (
    fg_rep,
    fuchsian_locus,
    punctured_torus_reference,
    rep_from_json,
    rep_to_json,
)

L_CAP = 7   # longest word length any command scans
# CSV schema type of a column's first value; bool first, a bool is an int
_SCHEMA_TYPES = ((bool, "boolean"), (int, "integer"), (float, "number"),
                 (object, "string"))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _open(path: str, newline: str | None = None):
    """``path`` opened for writing; an OSError is raised as a
    click.FileError, a usage error."""
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise click.FileError(path, hint=exc.strerror) from None


def _emit(text: str, out: str | None):
    if out is None:
        click.echo(text)
    else:
        with _open(out) as fh:
            fh.write(text + "\n")


def _write_json(doc: dict, out: str | None):
    _emit(json.dumps(doc, indent=2, default=str), out)


def _write_csv(out: str, table: dict, descriptions: dict):
    """Columns (a dict of equal-length lists, in column order) -> CSV at
    ``out`` plus a schema sidecar ``out.schema.json``."""
    with _open(out, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table)
        for row in zip(*table.values()):
            writer.writerow([_fmt(value) for value in row])
    schema = {
        "columns": [
            {"name": c, "type": next(name for kind, name in _SCHEMA_TYPES
                                     if isinstance(values[0], kind)),
             "description": descriptions.get(c, "")}
            for c, values in table.items()
        ] if any(map(len, table.values())) else [],
        "float_format": "%.17g",
    }
    with _open(out + ".schema.json") as fh:
        json.dump(schema, fh, indent=2)
        fh.write("\n")


def _check_csv_out(fmt: str, out: str | None):
    if fmt == "csv" and out is None:
        raise click.UsageError("--format csv needs --out")


def _status_from_verdicts(verdicts) -> int:
    verdicts = list(verdicts)
    if any(v in ("fail", "flat") for v in verdicts):
        return 1
    if any(v in ("ambiguous", "non-certifiable") for v in verdicts):
        return 2
    return 0


def _load_representation(family, x, partition, rep_path):
    given = sum(v is not None for v in (family, rep_path))
    if given != 1:
        raise click.UsageError("give exactly one of --family or --rep")
    if x is not None and family != "fg":
        raise click.UsageError("--x applies only to --family fg")
    if partition is not None and family != "fuchsian":
        raise click.UsageError("--partition applies only to --family fuchsian")
    if rep_path is not None:
        with open(rep_path) as fh:
            return rep_from_json(fh.read())
    if family == "fg":
        if x is None:
            raise click.UsageError("--family fg needs --x")
        return fg_rep(x)
    if family == "fuchsian":
        if partition is None:
            raise click.UsageError("--family fuchsian needs --partition")
        try:
            parts = tuple(int(p) for p in partition.split(","))
        except ValueError:
            raise click.UsageError(
                f"--partition {partition!r} is not a comma-separated list "
                "of integers") from None
        return fuchsian_locus(parts, punctured_torus_reference())
    raise click.UsageError(f"unknown family {family!r}")


def _check_L(l_value: int):
    if l_value < 1:
        raise click.UsageError(f"--L {l_value} is below 1")
    if l_value > L_CAP:
        raise click.UsageError(f"--L {l_value} exceeds the cap {L_CAP}")
    return l_value


rep_options = [
    click.option("--family", type=click.Choice(["fg", "fuchsian"]),
                 default=None, help="Built-in representation family."),
    click.option("--x", type=float, default=None,
                 help="Parameter of the fg family."),
    click.option("--partition", type=str, default=None,
                 help="Comma-separated non-increasing partition, e.g. 5,1."),
    click.option("--rep", "rep_path",
                 type=click.Path(exists=True, dir_okay=False), default=None,
                 help="Path to a representation JSON file."),
]


def _add_options(options):
    def wrap(fn):
        for opt in reversed(options):
            fn = opt(fn)
        return fn
    return wrap


@click.group()
def cli():
    """Desk-scale verification of gap, cross-ratio and collar statements."""


@cli.command()
@_add_options(rep_options)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Output path for the representation JSON (default stdout).")
def construct(family, x, partition, rep_path, out):
    """Emit a representation as JSON."""
    _emit(rep_to_json(_load_representation(family, x, partition, rep_path)),
          out)
    return 0


@cli.command("gap-scan")
@_add_options(rep_options)
@click.option("--k", type=int, required=True)
@click.option("--L", "l_value", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json")
def gap_scan(family, x, partition, rep_path, k, l_value, out, fmt):
    """Fit the growth of the word-sphere minimum of the k-th singular gap."""
    _check_csv_out(fmt, out)
    rep = _load_representation(family, x, partition, rep_path)
    report = ver.anosov_gap_scan(rep, k, _check_L(l_value))
    if fmt == "csv":
        _write_csv(out, {
            "length": [int(l) for l in report.lengths],
            "min_log_gap": [float(g) for g in report.min_log_gaps],
        }, {
            "length": "word length of the sphere",
            "min_log_gap": "minimum over the sphere of log(sigma_k/sigma_k+1)",
        })
    else:
        _write_json({"command": "gap-scan", "report": report.to_dict()}, out)
    return _status_from_verdicts([report.verdict])


@cli.command()
@click.argument("what", type=click.Choice(
    ["Hk", "Ck", "hyperconvex", "pos-ratioed", "eigen-identities"],
    case_sensitive=False))
@_add_options(rep_options)
@click.option("--k", type=int, required=True)
@click.option("--L", "l_value", type=int, required=True)
@click.option("--base-word", type=str, default="a",
              help="Base boundary point for the hyperconvex projection check.")
@click.option("--min-separation", type=float, default=ver.TRIPLE_SEPARATION)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def check(what, family, x, partition, rep_path, k, l_value, base_word,
          min_separation, out):
    """Run one of the transversality / positivity / identity checks."""
    given = click.get_current_context().get_parameter_source
    applies = {"base_word": what == "hyperconvex",
               "min_separation": what in ("Hk", "Ck", "hyperconvex")}
    for name, ok in applies.items():
        if not ok and given(name) is ParameterSource.COMMANDLINE:
            raise click.UsageError(f"--{name.replace('_', '-')} does not "
                                   f"apply to check {what}")
    rep = _load_representation(family, x, partition, rep_path)
    l_value = _check_L(l_value)
    if what == "eigen-identities":
        reports = ver.eigen_identity_scan(rep, k, l_value)
        passed = all(r.passed for r in reports)
        _write_json({
            "command": "check-eigen-identities",
            "n_words": len(reports),
            "max_pcr_rel_error": max(r.pcr_rel_error for r in reports),
            "max_gcr_rel_error": max(r.gcr_rel_error for r in reports),
            "all_periods_above_one": all(r.gcr_value > 1.0 for r in reports),
            "tolerance": ver.IDENTITY_RTOL,
            "passed": passed,
            "reports": [r.to_dict() for r in reports],
        }, out)
        return 0 if passed else 1
    if what == "Hk":
        report = ver.hk_scan(rep, k, l_value, min_separation=min_separation)
    elif what == "Ck":
        report = ver.ck_scan(rep, k, l_value, min_separation=min_separation)
    elif what == "hyperconvex":
        try:
            base = Word.parse(base_word, rep.rank)
        except InputError as exc:
            raise click.BadParameter(
                str(exc), param_hint="'--base-word'") from None
        report = ver.check_projection_hyperconvexity(
            rep, k, base, l_value, min_separation=min_separation)
    else:
        report = ver.check_positively_ratioed(rep, k, l_value)
    _write_json({"command": f"check-{what}", "report": report.to_dict()}, out)
    if what == "pos-ratioed":
        return 0 if report.passed else 1
    return _status_from_verdicts([report.verdict])


@cli.command()
@_add_options(rep_options)
@click.option("--k", type=int, required=True)
@click.option("--L", "l_value", type=int, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json")
def collar(family, x, partition, rep_path, k, l_value, out, fmt):
    """Collar inequality for every linked pair of ball words."""
    _check_csv_out(fmt, out)
    rep = _load_representation(family, x, partition, rep_path)
    table = ver.collar_scan(rep, k, _check_L(l_value))
    columns = {name: list(values) for name, values
               in table.columns([str(w) for w in table.words]).items()}
    summary = {
        "command": "collar",
        "n_pairs": len(table),
        "all_hold": all(columns["holds"]),
        "min_margin": min(columns["margin"], default=None),
        "weight_chain_ok": bool(table.weight_chain_ok.all()),
    }
    if fmt == "csv":
        _write_csv(out, columns, {
            "g": "word whose weight period is bounded below",
            "h": "linked word supplying the root gap",
            "k": "eigenvalue index of the collar inequality",
            "lhs": "product of top-k over bottom-k eigenvalues of g",
            "rhs": "(1 - lambda_(k+1)/lambda_k(h))^-1",
            "weight_rhs": "(1 - exp(-weight length of h))^-1",
            "holds": "lhs > rhs",
            "margin": "lhs - rhs",
            "sign_indeterminate": "lhs or rhs is a modulus: an eigenvalue "
                                  "ratio it reads is not real",
        })
        click.echo(json.dumps(summary))
    else:
        summary["pairs"] = [dict(zip(columns, row))
                            for row in zip(*columns.values())]
        _write_json(summary, out)
    return 0 if summary["all_hold"] and summary["weight_chain_ok"] else 1


@cli.command("fg-scan")
@click.option("--x-min", type=float, required=True)
@click.option("--x-max", type=float, required=True)
@click.option("--points", type=click.IntRange(min=1), default=25)
@click.option("--log-grid", is_flag=True, default=False)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="CSV output path (stdout when omitted).")
def fg_scan(x_min, x_max, points, log_grid, out):
    """Root-gap degeneration grid of the one-parameter family."""
    if not (0 < x_min <= x_max and np.isfinite(x_max)):
        raise click.UsageError("need 0 < x-min <= x-max, both finite")
    grid = (np.geomspace(x_min, x_max, points) if log_grid
            else np.linspace(x_min, x_max, points))
    reports = ver.counterexample_scan(grid)
    table = {c: [getattr(r, c) for r in reports]
             for c in ("x", "ratio_gamma", "ratio_delta", "root_length")}
    if out is None:
        click.echo(",".join(table))
        for row in zip(*table.values()):
            click.echo(",".join(map(_fmt, row)))
    else:
        _write_csv(out, table, {
            "x": "family parameter",
            "ratio_gamma": "signed lambda_1/lambda_2 of the first generator",
            "ratio_delta": "signed lambda_1/lambda_2 of the second generator",
            "root_length": "log of the top eigenvalue gap",
        })
    return 0 if all(r.columns_agree for r in reports) else 1


@cli.command()
@click.option("--p", type=int, required=True)
@click.option("--q", type=int, required=True)
@click.option("--count", type=click.IntRange(min=1), default=100)
@click.option("--seed", type=int, required=True,
              help="RNG seed; required for reproducibility.")
@click.option("--entry-max", type=float, default=2.0)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def sopq(p, q, count, seed, entry_max, out):
    """Build random positive elements and check the positivity coefficients."""
    report = ver.sopq_scan(p, q, count, seed, entry_max)
    _write_json({"command": "sopq", **report.to_dict()}, out)
    return 0 if report.all_positive else 1


def main(argv=None) -> int:
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 64
    except AnosovLabError as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 3
    return int(result or 0)


if __name__ == "__main__":
    sys.exit(main())
