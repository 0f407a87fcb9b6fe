"""The benchmark's three workloads: seeded inputs, operations and their checks.

Every input is drawn from ``numpy.random.default_rng([seed, workload, ...])``,
so the same seed gives the same inputs.  A run repeats whole rounds; each
round is the same list of operation shapes with fresh draws, so the mix of
shapes (and hence the median operation) does not depend on the seed.

The library is imported inside ``setup`` (that import is part of the set-up
time), always from the working tree's ``src`` directory.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List

import numpy as np

import check
from spans import NULL

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Child-process program that prints how long ``import renyi_risk.cli`` took.
IMPORT_TIMER = ("import time; t = time.perf_counter(); import renyi_risk.cli; "
                "print(time.perf_counter() - t)")


def child_env() -> dict:
    """Environment of a library child process: ``run.py``'s (one BLAS thread, no
    bytecode written) plus the working tree's import path."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_library():
    """Import the library from ``src`` and refuse any other copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    rr = importlib.import_module("renyi_risk")
    if Path(rr.__file__).resolve().parent != SRC / "renyi_risk":
        raise RuntimeError(f"imported renyi_risk from {rr.__file__}, not from {SRC}")
    return rr


class OpFailed(RuntimeError):
    """An operation the library did not complete (exception or non-zero exit)."""


class InProcess:
    """Shared parts of the workloads that call the library in the worker process."""

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.rr = None
        #: check failures of untimed (warm-up and probe) operations
        self.problems: List[str] = []

    def prepare(self) -> None:
        pass

    def setup(self, tr=NULL) -> List[float]:
        """Import the library and run the untimed warm-up operations; one set-up time."""
        t0 = time.perf_counter()
        self.rr = import_library()
        for inp in self.warmup_inputs():
            with tr.span("op", workload=self.name, warmup=True):
                out = self.op(inp, tr)
            self.problems += self.check(inp, out)
        return [time.perf_counter() - t0]

    def probe(self, tr) -> None:
        pass


class GridSmall(InProcess):
    """One full request grid (3 levels x 5 orders) per fresh small sample."""

    name = "grid_small"
    KEY = 2
    ALPHAS = (0.5, 0.95, 0.99)
    ORDERS = (1.0, 2.0, 10.0, math.inf, -2.0)
    KINDS = ("lognormal", "rounded_normal", "weighted_t")
    SIZES = (50, 200, 1000)

    @staticmethod
    def _sample(rng: np.random.Generator, kind: str, n: int):
        if kind == "lognormal":
            return rng.lognormal(0.0, 1.0, n), None
        if kind == "rounded_normal":
            # half-unit rounding: tied atoms, and a top atom heavy enough to
            # take the exact pre-test exit at some levels on small samples
            return np.round(2.0 * rng.normal(0.0, 1.0, n)) / 2.0, None
        return rng.standard_t(3.0, n), rng.uniform(0.5, 1.5, n)

    def round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, self.KEY, 1, r])
        return [(kind, n, *self._sample(rng, kind, n)) for kind in self.KINDS for n in self.SIZES]

    def warmup_inputs(self) -> list:
        rng = np.random.default_rng([self.seed, self.KEY, 0])
        return [(kind, 50, *self._sample(rng, kind, 50)) for kind in self.KINDS]

    def op(self, inp, tr=NULL):
        rr = self.rr
        _, _, y, w = inp
        with tr.span("distribution.from_samples"):
            d = rr.from_samples(y, w)
        out = []
        for a in self.ALPHAS:
            for o in self.ORDERS:
                with tr.span("evar.evar", alpha=a, order=o) as sp:
                    res = rr.evar(d, rr.RiskSpec(a, o))
                sp["branch"] = res.branch
                sp["iterations"] = res.iterations
                out.append((a, o, res.value, res.t_star,
                            None if res.density is None else res.density.weights))
        return out

    def check(self, inp, out) -> List[str]:
        _, _, y, w = inp
        return check.check_family(check.Sample(y, w), out)



class DualCheck(InProcess):
    """Supremum-side verification of one 3-5 atom distribution per operation."""

    name = "dual_check"
    KEY = 3
    SIZES = (3, 4, 5)
    ORDERS = (2.0, 4.0, -1.0, -2.0)
    #: Oracle grid resolution per atom count, sized so that the oracle is a
    #: large share of each operation (at 5 atoms its fixed local refinement
    #: dominates whatever the resolution).
    RESOLUTION = {3: 1000, 4: 80, 5: 20}

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.seen = set()

    @staticmethod
    def _instance(rng: np.random.Generator, n: int):
        alpha = float(rng.uniform(0.2, 0.8))
        while True:
            y = np.sort(rng.uniform(0.5, 10.0, n))
            w = rng.dirichlet(np.full(n, 2.0))
            # keep the top atom light enough for an interior optimizer, so the
            # Hahn-Banach witness exists
            if w[-1] < 0.8 * (1.0 - alpha):
                return y, w, alpha

    @classmethod
    def grid_bytes(cls) -> int:
        """Size of the simplex grids the oracle builds: rows x atoms x int32."""
        return sum(math.comb(r + n - 1, n - 1) * n * 4 for n, r in cls.RESOLUTION.items())

    def round(self, r: int) -> list:
        rng = np.random.default_rng([self.seed, self.KEY, 1, r])
        return [(n, o, *self._instance(rng, n)) for n in self.SIZES for o in self.ORDERS]

    def warmup_inputs(self) -> list:
        rng = np.random.default_rng([self.seed, self.KEY, 0])
        return [(n, 2.0, *self._instance(rng, n)) for n in self.SIZES]

    def op(self, inp, tr=NULL):
        rr = self.rr
        n, order, y, w, alpha = inp
        with tr.span("distribution.from_samples"):
            d = rr.from_samples(y, w)
        spec = rr.RiskSpec(alpha, order)
        shape = (n, self.RESOLUTION[n])
        cold = shape not in self.seen
        self.seen.add(shape)
        with tr.span("duality.sup_oracle", cold=cold):
            oracle_value, oracle_density = rr.sup_oracle(d, spec, self.RESOLUTION[n])
        with tr.span("evar.evar", alpha=alpha, order=order) as sp:
            res = rr.evar(d, spec)
        sp["branch"] = res.branch
        sp["iterations"] = res.iterations
        with tr.span("duality.dual_norm", order=order):
            norm = rr.dual_norm(res.density, alpha, order)
        with tr.span("duality.hb_density_for"):
            witness = rr.hb_density_for(d, spec)
        with tr.span("duality.dual_norm_raw", order=order):
            witness_norm = rr.dual_norm_raw(d, witness, alpha, order)
        with tr.span("duality.kusuoka"):
            kv = rr.kusuoka_evaluate(rr.kusuoka(d, spec), d)
        result = (alpha, order, res.value, res.t_star, res.density.weights)
        return result, oracle_value, oracle_density.weights, norm, witness, witness_norm, kv

    def check(self, inp, out) -> List[str]:
        _, _, y, w, _ = inp
        return check.check_duality(check.Sample(y, w), *out)


class CliReport:
    """One ``renyi-risk risk --emit-density`` child process per operation."""

    name = "cli_report"
    KEY = 1
    ROWS = 200_000
    WARM_ROWS = 2_000
    WARMUPS = 3
    ALPHA = 0.95
    ORDERS = (1.0, 2.0, math.inf, -2.0)

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.csv = out_dir / "cli_report.csv"
        self.warm_csv = out_dir / "cli_report_warmup.csv"
        self.rr = None
        self.cli = None
        #: check failures of untimed (warm-up and probe) operations
        self.problems: List[str] = []

    @staticmethod
    def _sample(rng: np.random.Generator, n: int) -> np.ndarray:
        # normal body with a lognormal tail on 5% of the rows
        body = rng.normal(0.0, 1.0, n)
        tail = rng.random(n) < 0.05
        return np.where(tail, 1.5 + rng.lognormal(0.0, 0.75, n), body)

    @staticmethod
    def _write_csv(path: Path, y: np.ndarray) -> None:
        # repr round-trips, so the CLI parses exactly the values the checker holds
        path.write_text("value\n" + "\n".join(map(repr, y.tolist())) + "\n", encoding="utf-8")

    def request(self, path: Path, density: bool = True, alpha: float = ALPHA,
                orders=ORDERS) -> List[str]:
        args = ["risk", "--input", str(path), "--alpha", repr(alpha),
                "--order", *("inf" if math.isinf(o) else "%g" % o for o in orders)]
        return args + ["--emit-density"] if density else args

    def prepare(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.y = self._sample(np.random.default_rng([self.seed, self.KEY, 1]), self.ROWS)
        self.warm_y = self._sample(np.random.default_rng([self.seed, self.KEY, 0]),
                                   self.WARM_ROWS)
        self._write_csv(self.csv, self.y)
        self._write_csv(self.warm_csv, self.warm_y)
        self.sample = check.Sample(self.y)
        self.warm_sample = check.Sample(self.warm_y)

    def round(self, r: int) -> list:
        return [self.csv]

    def _run_child(self, path: Path):
        cmd = [sys.executable, "-m", "renyi_risk.cli", *self.request(path)]
        proc = subprocess.run(cmd, capture_output=True, env=child_env(), cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}: {proc.stderr.decode().strip()}")
        return json.loads(proc.stdout)

    def setup(self, tr=NULL) -> List[float]:
        times = []
        for _ in range(self.WARMUPS):
            t0 = time.perf_counter()
            report = self._run_child(self.warm_csv)
            times.append(time.perf_counter() - t0)
            self.problems += check.check_report(self.warm_sample, report, self.ALPHA, self.ORDERS)
        return times

    def op(self, inp, tr=NULL):
        with tr.span("cli.process"):
            return self._run_child(inp)

    def check(self, inp, out) -> List[str]:
        return check.check_report(self.sample, out, self.ALPHA, self.ORDERS)

    def _main(self, argv: List[str]) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        if code != 0:
            raise OpFailed(f"cli.main {argv} returned {code}")
        return buf.getvalue()

    def probe(self, tr) -> None:
        """In-process layer probes on the workload's CSV, outside any timed operation."""
        if self.cli is None:
            self.rr = import_library()
            self.cli = importlib.import_module("renyi_risk.cli")
        with tr.span("probe", workload=self.name, warmup=False):
            with tr.span("cli.import") as sp:
                proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER],
                                      capture_output=True, env=child_env(), cwd=ROOT,
                                      timeout=60, check=True)
            sp["import_s"] = float(proc.stdout)
            with tr.span("distribution.from_samples"):
                d = self.rr.from_samples(self.y)
            with tr.span("cli.main.ingest"):
                self._main(self.request(self.csv, density=False, alpha=0.0, orders=(1.0,)))
            with tr.span("cli.main.no_density"):
                self._main(self.request(self.csv, density=False))
            with tr.span("cli.main.full") as sp:
                text = self._main(self.request(self.csv))
            sp["report_bytes"] = len(text)
            for entry in json.loads(text)["entries"]:
                weights = np.asarray(entry["density"], dtype=float)
                with tr.span("entropy.Density"):
                    self.rr.Density(d, weights)


WORKLOADS = {w.name: w for w in (CliReport, GridSmall, DualCheck)}
