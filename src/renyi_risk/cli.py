"""Command-line front end: ingest sample data, compute risk reports and sweeps.

Subcommands: ``risk``, ``sweep``, ``dualnorm``, ``kusuoka``, ``entropy``.
Input is CSV (header with a ``value`` column, optional ``weight``, optional
``density`` for density files) or JSON (``{"atoms": [[value, prob], ...]}``,
plus ``"density": [...]`` for density files).  Output is JSON by default.
Exit codes: 0 success, 2 unreadable input or unwritable output, 3 invalid
request.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .distribution import DiscreteDistribution, essinf, esssup, expectation, from_samples
from .entropy import Density, renyi_entropy
from .evar import RiskSpec, conjugate, evar
from .duality import dual_norm, kusuoka

VERSION_STRING = f"renyi-risk {__version__}"

_PRESET_PPRIME = {
    "default": [1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 25.0, 100.0],
}


class InputError(Exception):
    """Unreadable or malformed input data (exit code 2)."""


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
        has_weight = "weight" in reader.fieldnames
        has_density = "density" in reader.fieldnames
        if want_density and not has_density:
            raise InputError("line 1: density files need a 'density' column")
        values: List[float] = []
        weights: List[float] = []
        densities: List[float] = []
        for row in reader:
            line = reader.line_num
            tok = row.get("value")
            if tok is None or not tok.strip():
                raise InputError(f"line {line}: missing value")
            values.append(_parse_float(tok.strip(), line, "value"))
            if has_weight:
                wtok = row.get("weight")
                if wtok is None or not wtok.strip():
                    raise InputError(f"line {line}: missing weight")
                w = _parse_float(wtok.strip(), line, "weight")
                if w < 0.0:
                    raise InputError(f"line {line}: negative weight")
                weights.append(w)
            if has_density:
                ztok = row.get("density")
                if ztok is None or not ztok.strip():
                    raise InputError(f"line {line}: missing density")
                densities.append(_parse_float(ztok.strip(), line, "density"))
        if not values:
            raise InputError("line 2: no data rows")
        return values, (weights if has_weight else None), (densities if has_density else None)
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


def _read_distribution(path: str) -> DiscreteDistribution:
    text = _read_text(path)
    if path.endswith(".json") or text.lstrip().startswith("{"):
        values, weights, _ = _parse_json(text, want_density=False)
    else:
        values, weights, _ = _parse_csv(text, want_density=False)
    try:
        return from_samples(values, weights)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _read_density(path: str) -> Density:
    text = _read_text(path)
    if path.endswith(".json") or text.lstrip().startswith("{"):
        values, weights, dens = _parse_json(text, want_density=True)
    else:
        values, weights, dens = _parse_csv(text, want_density=True)
        if dens is None:
            raise InputError("density files need a 'density' column")
    order = np.argsort(values)
    v = np.asarray(values, dtype=float)[order]
    if np.any(np.diff(v) == 0.0):
        raise InputError("duplicate values in a density file are ambiguous")
    w = None if weights is None else np.asarray(weights, dtype=float)[order]
    z = np.asarray(dens, dtype=float)[order]
    # from_samples drops a zero-weight row; its density entry goes with it
    return Density(from_samples(v, w), z if w is None else z[w > 0.0])


def _parse_alpha(token: str) -> float:
    try:
        a = float(token)
    except ValueError as exc:
        raise SpecError(f"cannot parse alpha {token!r}") from exc
    if math.isnan(a) or not 0.0 <= a <= 1.0:
        raise SpecError("alpha must lie in [0,1]")
    return a


def _parse_order(token: str) -> float:
    """An order token: 'inf' or a finite decimal literal.

    Which orders a command accepts is the library's to say: ``RiskSpec`` and
    ``dual_norm`` reject order 0, which the entropy takes.
    """
    tok = token.strip().lower()
    if tok == "inf":
        return math.inf
    try:
        p = float(tok)
    except ValueError as exc:
        raise SpecError(f"cannot parse order {token!r}") from exc
    if not math.isfinite(p):
        raise SpecError("order must be a finite real or 'inf'")
    return p


def _order_token(p: float):
    return "inf" if math.isinf(p) else p


def _parse_pprime_grid(token: str) -> List[float]:
    preset = _PRESET_PPRIME.get(token.strip().lower())
    if preset is not None:
        return list(preset)
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
    if n < 1 or (n > 1 and not hi > lo):
        raise SpecError(f"malformed grid {token!r}")
    if n == 1:
        return [lo]
    return list(np.linspace(lo, hi, n))


def _emit(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc


def cmd_risk(args: argparse.Namespace) -> int:
    d = _read_distribution(args.input)
    alphas = [_parse_alpha(t) for t in args.alpha]
    orders = [_parse_order(t) for t in args.order]
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
    report = {
        "input": {
            "atoms": d.n_atoms,
            "essinf": essinf(d),
            "esssup": esssup(d),
            "mean": expectation(d),
        },
        "entries": entries,
        "version": VERSION_STRING,
    }
    if args.format == "json":
        print(json.dumps(report))
    else:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["alpha", "order", "value", "t_star", "branch"])
        for e in entries:
            writer.writerow([repr(e["alpha"]), e["order"], repr(e["value"]),
                             "" if e["t_star"] is None else repr(e["t_star"]), e["branch"]])
        sys.stdout.write(out.getvalue())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    d = _read_distribution(args.input)
    a = _parse_alpha(args.alpha)
    pprimes = _parse_pprime_grid(args.pprime)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["pprime", "p", "value", "t_star"])
    for pp in sorted(pprimes):
        p = conjugate(pp)
        res = evar(d, RiskSpec(a, p))
        writer.writerow([repr(float(pp)), _order_token(p), repr(res.value),
                         "" if res.t_star is None else repr(res.t_star)])
    ref = evar(d, RiskSpec(a, 1.0))
    writer.writerow(["inf", 1.0, repr(ref.value), repr(ref.t_star)])
    writer.writerow(["", "", repr(esssup(d)), ""])
    _emit(out.getvalue(), args.output)
    return 0


def cmd_dualnorm(args: argparse.Namespace) -> int:
    z = _read_density(args.input)
    a = _parse_alpha(args.alpha)
    p = _parse_order(args.order)
    print(json.dumps({"dual_norm": dual_norm(z, a, p), "alpha": a, "order": _order_token(p),
                      "version": VERSION_STRING}))
    return 0


def cmd_kusuoka(args: argparse.Namespace) -> int:
    d = _read_distribution(args.input)
    a = _parse_alpha(args.alpha)
    p = _parse_order(args.order)
    m = kusuoka(d, RiskSpec(a, p))
    print(json.dumps({
        "atoms": [[l, ms] for l, ms in m.atoms],
        "distortion": [[u, h] for u, h in m.distortion],
        "version": VERSION_STRING,
    }))
    return 0


def cmd_entropy(args: argparse.Namespace) -> int:
    z = _read_density(args.input)
    entries = []
    for tok in args.q:
        q = _parse_order(tok)
        entries.append({"q": _order_token(q), "entropy": renyi_entropy(z, q)})
    print(json.dumps({"entries": entries, "version": VERSION_STRING}))
    return 0


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

    risk = sub.add_parser("risk", help="risk values for alpha/order combinations")
    risk.add_argument("--input", required=True, help="CSV or JSON sample file")
    risk.add_argument("--alpha", required=True, nargs="+", help="confidence levels in [0,1]")
    risk.add_argument("--order", required=True, nargs="+",
                      help="orders: decimal literals or 'inf'; 1 selects the tail mean")
    risk.add_argument("--emit-density", action="store_true",
                      help="include the attaining density weights")
    risk.add_argument("--format", choices=("json", "csv"), default="json")
    risk.set_defaults(func=cmd_risk)

    sweep = sub.add_parser("sweep", help="value curve over a conjugate-order grid")
    sweep.add_argument("--input", required=True)
    sweep.add_argument("--alpha", required=True)
    sweep.add_argument("--pprime", required=True,
                       help="grid lo:hi:n with lo>1, or preset 'default'")
    sweep.add_argument("--output", default="-", help="CSV path, '-' for stdout")
    sweep.set_defaults(func=cmd_sweep)

    dualnorm = sub.add_parser("dualnorm", help="dual norm of a density file")
    dualnorm.add_argument("--input", required=True, help="density file (value/weight/density)")
    dualnorm.add_argument("--alpha", required=True)
    dualnorm.add_argument("--order", required=True)
    dualnorm.set_defaults(func=cmd_dualnorm)

    kus = sub.add_parser("kusuoka", help="mixing measure over tail levels")
    kus.add_argument("--input", required=True)
    kus.add_argument("--alpha", required=True)
    kus.add_argument("--order", required=True)
    kus.set_defaults(func=cmd_kusuoka)

    ent = sub.add_parser("entropy", help="Renyi entropies of a density file")
    ent.add_argument("--input", required=True, help="density file (value/weight/density)")
    ent.add_argument("--q", required=True, nargs="+", help="orders, 'inf' allowed")
    ent.set_defaults(func=cmd_entropy)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SpecError, ValueError) as exc:  # the library's ValueError is a bad request
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
