"""Command-line front end: ingest sample data, compute risk reports and sweeps.

Subcommands: ``risk``, ``sweep``, ``dualnorm``, ``kusuoka``, ``entropy``.
Input is CSV (header with a ``value`` column, optional ``weight``, optional
``density`` for density files) or JSON (``{"atoms": [[value, prob], ...]}``,
plus ``"density": [...]`` for density files).  Output is JSON by default.

Each command is a function from its input and arguments to the report text.
``main`` alone reads the input file, and every command writes through its
one writer: to stdout, or to the path ``sweep --output`` names.
Exit codes: 0 success; 2 unreadable input, a file with no probability mass
(under every command), or output that cannot be written (stdout or
``--output``); 3 invalid request.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import sys
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .distribution import DiscreteDistribution, essinf, esssup, expectation, from_samples
from .entropy import Density, renyi_entropy
from .evar import RiskSpec, conjugate, evar
from .duality import dual_norm, kusuoka

VERSION_STRING = f"renyi-risk {__version__}"

_DEFAULT_PPRIME = (1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 100.0)


class InputError(Exception):
    """Unreadable or malformed input data, or unwritable output (exit code 2)."""


class SpecError(Exception):
    """Invalid request: levels, orders, grids or density invariants (exit code 3)."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse_float(token: str, line: int, what: str) -> float:
    try:
        x = float(token)
    except ValueError as exc:
        raise InputError(f"line {line}: cannot parse {what} {token!r}") from exc
    if not math.isfinite(x):
        raise InputError(f"line {line}: non-finite {what} {token!r}")
    return x


_Columns = Tuple[Sequence[float], Optional[Sequence[float]], Optional[Sequence[float]]]


def _parse_csv(text: str, want_density: bool) -> _Columns:
    """The value column, and the weight and density columns when the header
    names them (None otherwise).

    ``_load_columns`` reads a well-formed file in one vectorized pass; any
    file it declines goes to the row parser, which reports the first bad
    line.  Both parse numbers with CPython's string-to-double routine, so
    they agree bit for bit wherever the fast path succeeds.
    """
    columns = _load_columns(text, want_density)
    return _parse_csv_rows(text, want_density) if columns is None else columns


def _load_columns(text: str, want_density: bool) -> Optional[_Columns]:
    """The fast path of ``_parse_csv``: one ``np.loadtxt`` over the used columns.

    Returns None, leaving messages and line numbers to the row parser, unless
    the file has no quote character, a header of distinct names with a
    'value' column (and 'density' when wanted), a data line that is not
    empty, and only finite entries and nonnegative weights.  Without quotes
    the csv module splits each line on commas exactly as ``loadtxt`` does,
    and both skip empty lines.
    """
    nl = text.find("\n")
    # quoting is the csv module's; a body of empty lines only makes loadtxt warn
    if '"' in text or nl < 0 or text.count("\n", nl) == len(text) - nl:
        return None
    names = text[:nl].split(",")
    if (len(set(names)) != len(names) or "value" not in names
            or (want_density and "density" not in names)):
        return None
    used = [c for c in ("value", "weight", "density") if c in names]
    try:
        data = np.loadtxt(io.StringIO(text), delimiter=",", comments=None, skiprows=1,
                          usecols=[names.index(c) for c in used], ndmin=2)
    except ValueError:
        return None
    if not np.isfinite(data).all():
        return None
    cols = dict(zip(used, data.T))
    if "weight" in cols and (cols["weight"] < 0.0).any():
        return None
    return cols["value"], cols.get("weight"), cols.get("density")


def _parse_csv_rows(text: str, want_density: bool) -> _Columns:
    """Row by row through ``csv.DictReader``: the reference parser, and the
    one that reports the first bad line."""
    reader = csv.DictReader(io.StringIO(text))
    try:
        if reader.fieldnames is None or "value" not in reader.fieldnames:
            raise InputError("line 1: header with a 'value' column is required")
        if want_density and "density" not in reader.fieldnames:
            raise InputError("line 1: density files need a 'density' column")
        # every column the header names is read, wanted or not
        columns = {c: [] for c in ("value", "weight", "density") if c in reader.fieldnames}
        for row in reader:
            line = reader.line_num
            for name, column in columns.items():
                tok = row.get(name)
                if tok is None or not tok.strip():
                    raise InputError(f"line {line}: missing {name}")
                x = _parse_float(tok.strip(), line, name)
                if name == "weight" and x < 0.0:
                    raise InputError(f"line {line}: negative weight")
                column.append(x)
        if not columns["value"]:
            raise InputError("line 2: no data rows")
        return columns["value"], columns.get("weight"), columns.get("density")
    except csv.Error as exc:  # a field over the csv module's size limit, say
        # the DictReader's own count lags until a row is returned
        raise InputError(f"line {reader.reader.line_num}: {exc}") from exc


def _json_number(x, where: str) -> float:
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"line 1: {where} is not a number") from exc


def _parse_json(text: str, want_density: bool) -> _Columns:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno}: {exc.msg}") from exc
    atoms = payload.get("atoms") if isinstance(payload, dict) else None
    if not isinstance(atoms, list) or not atoms:
        raise InputError("line 1: expected an object with a nonempty 'atoms' list")
    values, weights = [], []
    for i, pair in enumerate(atoms):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError(f"line 1: atoms[{i}] is not a [value, prob] pair")
        v, p = (_json_number(x, f"atoms[{i}][{j}]") for j, x in enumerate(pair))
        if not (math.isfinite(v) and math.isfinite(p)):
            raise InputError(f"line 1: atoms[{i}] has a non-finite entry")
        if p < 0.0:
            raise InputError(f"line 1: atoms[{i}] has a negative probability")
        values.append(v)
        weights.append(p)
    densities = None
    if want_density:
        densities = payload.get("density")
        if not isinstance(densities, list) or len(densities) != len(values):
            raise InputError("line 1: density files need a 'density' list matching atoms")
        densities = [_json_number(x, f"density[{i}]") for i, x in enumerate(densities)]
        for i, z in enumerate(densities):
            if not math.isfinite(z):
                raise InputError(f"line 1: density[{i}] has a non-finite entry")
    return values, weights, densities


def _read_columns(path: str, want_density: bool) -> _Columns:
    """The file's columns, read as JSON or as CSV; a density file always has
    its density column."""
    text = _read_text(path)
    json_file = path.endswith(".json") or text.lstrip().startswith("{")
    return (_parse_json if json_file else _parse_csv)(text, want_density)


def _read_input(path: str, want_density: bool) -> Union[DiscreteDistribution, Density]:
    """The file's distribution, or for a density file its ``Density``.

    What ``from_samples`` rejects (no probability mass, say) is the file's
    fault under every command; what ``Density`` rejects is the request's.
    """
    values, weights, dens = _read_columns(path, want_density)
    if want_density:
        order = np.argsort(values)
        values = np.asarray(values, dtype=float)[order]
        if np.any(np.diff(values) == 0.0):
            raise InputError("duplicate values in a density file are ambiguous")
        weights = None if weights is None else np.asarray(weights, dtype=float)[order]
        dens = np.asarray(dens, dtype=float)[order]
    try:
        d = from_samples(values, weights)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if not want_density:
        return d
    # from_samples drops a zero-weight row; its density entry goes with it
    return Density(d, dens if weights is None else dens[weights > 0.0])


def _parse_real(token: str, what: str) -> float:
    """A level or order token, read as ``float`` reads it.

    Which values a command accepts is the library's to say: ``RiskSpec`` and
    ``dual_norm`` check the level, nan included, and reject order 0, which the
    entropy takes.  An order is also 'inf' (in any case and padding) or
    finite, which rules out nan and literals that overflow.
    """
    try:
        x = float(token)
    except ValueError as exc:
        raise SpecError(f"cannot parse {what} {token!r}") from exc
    if what == "order" and not math.isfinite(x) and token.strip().lower() != "inf":
        raise SpecError("order must be a finite real or 'inf'")
    return x


def _order_token(p: float):
    return "inf" if math.isinf(p) else p


def _parse_pprime_grid(token: str) -> Sequence[float]:
    if token.strip().lower() == "default":
        return _DEFAULT_PPRIME
    parts = token.split(":")
    if len(parts) != 3:
        raise SpecError(f"malformed grid {token!r}: expected lo:hi:n or a preset name")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise SpecError(f"malformed grid {token!r}") from exc
    if not lo > 1.0:
        raise SpecError("grid lower end must exceed 1")
    if n < 1 or (n > 1 and not lo < hi < math.inf):
        raise SpecError(f"malformed grid {token!r}")
    # Python floats, so that each prints as its repr
    return [lo] if n == 1 else np.linspace(lo, hi, n).tolist()


def _csv(header: List[str], rows) -> str:
    """CSV text: floats as their repr, None as an empty field."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if x is None else repr(x) if isinstance(x, float) else x
                         for x in row])
    return out.getvalue()


def _emit(text: str, path: str) -> None:
    """The one writer: ``text`` to stdout ('-') or to ``path``, ending in a
    newline.  A write that fails, to stdout too (a full disk, a closed pipe),
    is an input error."""
    try:
        with (contextlib.nullcontext(sys.stdout) if path == "-"
              else open(path, "w", encoding="utf-8")) as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
            fh.flush()
    except OSError as exc:
        if path == "-":
            _discard_stdout()
        raise InputError(f"cannot write {'stdout' if path == '-' else path}: {exc}") from exc


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device.

    A failed flush leaves its bytes in stdout's buffer, and the interpreter
    flushes that buffer again at exit: to a full disk it fails once more,
    with a second message and exit status 120.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # an in-memory stream has no buffer to drop
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def cmd_risk(d: DiscreteDistribution, args: argparse.Namespace) -> str:
    alphas = [_parse_real(t, "alpha") for t in args.alpha]
    orders = [_parse_real(t, "order") for t in args.order]
    entries = []
    for a in alphas:
        for o in orders:
            res = evar(d, RiskSpec(a, o))
            entry = {
                "alpha": a,
                "order": _order_token(o),
                "value": res.value,
                "t_star": res.t_star,
                "branch": res.branch,
            }
            if args.emit_density:
                entry["density"] = (
                    None if res.density is None else res.density.weights.tolist()
                )
            entries.append(entry)
    if args.format == "csv":
        header = ["alpha", "order", "value", "t_star", "branch"]
        return _csv(header, ([e[k] for k in header] for e in entries))
    return json.dumps({
        "input": {
            "atoms": d.n_atoms,
            "essinf": essinf(d),
            "esssup": esssup(d),
            "mean": expectation(d),
        },
        "entries": entries,
        "version": VERSION_STRING,
    })


def cmd_sweep(d: DiscreteDistribution, args: argparse.Namespace) -> str:
    a = _parse_real(args.alpha, "alpha")
    rows = []
    for pp in sorted(_parse_pprime_grid(args.pprime)):
        p = conjugate(pp)
        res = evar(d, RiskSpec(a, p))
        rows.append([pp, _order_token(p), res.value, res.t_star])
    ref = evar(d, RiskSpec(a, 1.0))
    rows.append(["inf", 1.0, ref.value, ref.t_star])
    rows.append([None, None, esssup(d), None])
    return _csv(["pprime", "p", "value", "t_star"], rows)


def cmd_dualnorm(z: Density, args: argparse.Namespace) -> str:
    a = _parse_real(args.alpha, "alpha")
    p = _parse_real(args.order, "order")
    return json.dumps({"dual_norm": dual_norm(z, a, p), "alpha": a, "order": _order_token(p),
                       "version": VERSION_STRING})


def cmd_kusuoka(d: DiscreteDistribution, args: argparse.Namespace) -> str:
    m = kusuoka(d, RiskSpec(_parse_real(args.alpha, "alpha"), _parse_real(args.order, "order")))
    return json.dumps({
        "atoms": [[l, ms] for l, ms in m.atoms],
        "distortion": [[u, h] for u, h in m.distortion],
        "tails": m.tails.tolist(),
        "version": VERSION_STRING,
    })


def cmd_entropy(z: Density, args: argparse.Namespace) -> str:
    entries = []
    for tok in args.q:
        q = _parse_real(tok, "order")
        entries.append({"q": _order_token(q), "entropy": renyi_entropy(z, q)})
    return json.dumps({"entries": entries, "version": VERSION_STRING})


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a negative number in exponent notation
    (-1e300) is a value, as -2 and -0.5 already are, not an unknown option."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="renyi-risk",
        description="Entropic value-at-risk of arbitrary Renyi order on empirical data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, density, summary):
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument("--input", required=True, help=(
            "density file (value/weight/density)" if density else "CSV or JSON sample file"))
        cmd.set_defaults(func=func, density=density, output="-")
        return cmd

    risk = command("risk", cmd_risk, False, "risk values for alpha/order combinations")
    risk.add_argument("--alpha", required=True, nargs="+", help="confidence levels in [0,1]")
    risk.add_argument("--order", required=True, nargs="+",
                      help="orders: decimal literals or 'inf'; 1 selects the tail mean")
    risk.add_argument("--emit-density", action="store_true",
                      help="include the attaining density weights")
    risk.add_argument("--format", choices=("json", "csv"), default="json")

    sweep = command("sweep", cmd_sweep, False, "value curve over a conjugate-order grid")
    sweep.add_argument("--alpha", required=True)
    sweep.add_argument("--pprime", required=True,
                       help="grid lo:hi:n with lo>1, or preset 'default'")
    sweep.add_argument("--output", default="-", help="CSV path, '-' for stdout")

    dualnorm = command("dualnorm", cmd_dualnorm, True, "dual norm of a density file")
    dualnorm.add_argument("--alpha", required=True)
    dualnorm.add_argument("--order", required=True)

    kus = command("kusuoka", cmd_kusuoka, False, "mixing measure over tail levels")
    kus.add_argument("--alpha", required=True)
    kus.add_argument("--order", required=True)

    ent = command("entropy", cmd_entropy, True, "Renyi entropies of a density file")
    ent.add_argument("--q", required=True, nargs="+", help="orders, 'inf' allowed")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # the input is freed before the report is written
        text = args.func(_read_input(args.input, args.density), args)
        _emit(text, args.output)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SpecError, ValueError) as exc:  # the library's ValueError is a bad request
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
