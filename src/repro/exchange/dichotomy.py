"""Classification of data exchange settings: the dichotomy (Theorem 6.2).

Combining Theorem 5.11 and Theorem 6.2 / Proposition 6.19:

* if every STD is *fully specified* and every content model of the target DTD
  is *univocal* (class ``C_U``), then certain answers of CTQ//,∪ queries are
  computable in polynomial time via the canonical solution;
* otherwise the setting uses a feature (descendant / wildcard / non-rooted
  target patterns, or a non-univocal / ``c(r) ≥ 2`` content model) for which
  the paper exhibits coNP-complete instances — the guarantee is lost.

:func:`classify_setting` reports which side of the dichotomy a setting falls
on and why; it is a *syntactic* classification of the setting against the
paper's tractable class, mirroring the statement "for each data exchange
setting it is decidable if it falls in the tractable case".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .setting import DataExchangeSetting

__all__ = ["DichotomyReport", "classify_setting"]


@dataclass
class DichotomyReport:
    """Why a setting is (or is not) in the tractable class."""

    tractable: bool
    fully_specified: bool
    target_univocal: bool
    #: per-element-type: (content model as string, c(r), univocal?)
    target_rules: Dict[str, Dict[str, object]] = field(default_factory=dict)
    std_classes: List[str] = field(default_factory=list)
    reasons: List[str] = field(default_factory=list)

    def summary(self) -> str:
        verdict = ("tractable: certain answers in PTIME via the canonical solution"
                   if self.tractable else
                   "outside the tractable class: certain answering may be "
                   "coNP-complete (Theorems 5.11 / 6.2)")
        if self.reasons:
            return verdict + " — " + "; ".join(self.reasons)
        return verdict


def classify_setting(setting: DataExchangeSetting,
                     univocality_bound: Optional[int] = None) -> DichotomyReport:
    """Classify a setting against the paper's dichotomy.

    ``univocality_bound`` is forwarded to the univocality decision procedure
    (see :mod:`repro.regexlang.univocal`).  This is what builds
    :attr:`repro.engine.CompiledSetting.dichotomy`; the cached report is
    served by :meth:`repro.engine.ExchangeEngine.classify`.
    """
    reasons: List[str] = []
    std_classes = setting.std_classes()
    fully_specified = all(cls == "fully-specified" for cls in std_classes)
    if not fully_specified:
        offending = sorted({cls for cls in std_classes if cls != "fully-specified"})
        reasons.append(
            "non-fully-specified STD(s) of class " + ", ".join(offending)
            + " (Theorem 5.11 exhibits coNP-complete instances for each)")

    target_rules: Dict[str, Dict[str, object]] = {}
    target_univocal = True
    for element in sorted(setting.target_dtd.element_types):
        model = setting.target_dtd.content_model(element)
        # Reuses the DTD's rule cache instead of re-analysing the regex on
        # every classification (the analysis itself is bound-independent).
        analysis = setting.target_dtd.rule_analysis(element)
        c_value = analysis.c_value()
        univocal = analysis.is_univocal(univocality_bound)
        target_rules[element] = {
            "content_model": str(model),
            "c": c_value,
            "univocal": univocal,
        }
        if not univocal:
            target_univocal = False
            if c_value >= 2:
                reasons.append(
                    f"target rule {element} → {model} has c(r) = {c_value} ≥ 2 "
                    "(Lemma 6.20)")
            else:
                reasons.append(
                    f"target rule {element} → {model} is not univocal "
                    "(Lemma 6.21)")

    tractable = fully_specified and target_univocal
    return DichotomyReport(
        tractable=tractable,
        fully_specified=fully_specified,
        target_univocal=target_univocal,
        target_rules=target_rules,
        std_classes=std_classes,
        reasons=reasons,
    )
