"""The public API: the exact names ``renyi_risk`` exports, and the README's list of them."""

import re
import types
from pathlib import Path

import renyi_risk

PUBLIC = {
    "DiscreteDistribution", "essinf", "esssup", "expectation", "from_samples",
    "Density", "renyi_entropy",
    "RiskResult", "RiskSpec", "conjugate", "evar", "evar_derivative_pprime",
    "norm_equivalence_bounds", "risk_level_bound",
    "KusuokaMeasure", "dual_norm", "dual_norm_raw", "hb_density_for", "hb_witness_for",
    "kusuoka", "kusuoka_evaluate", "sup_oracle",
}

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_entry_points():
    """The leading dotted name of every code span in the README's "Key entry
    points" list: ``RiskSpec.budget()`` gives ``RiskSpec.budget``."""
    text = README.read_text(encoding="utf-8")
    section = text.split("Key entry points, all importable from `renyi_risk`:\n", 1)[1]
    bullets = section.lstrip("\n").split("\n\n", 1)[0]
    return [re.match(r"[A-Za-z_][\w.]*", span).group(0)
            for span in re.findall(r"`([^`]+)`", bullets)]


def test_exports_exactly_the_public_names():
    exported = {name for name, value in vars(renyi_risk).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC


def test_readme_lists_what_imports():
    names = readme_entry_points()
    for name in names:
        obj = renyi_risk
        for part in name.split("."):
            assert hasattr(obj, part), f"README names {name}, which renyi_risk does not provide"
            obj = getattr(obj, part)
    assert PUBLIC <= {name.split(".")[0] for name in names}
