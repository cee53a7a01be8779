"""Which bound-chain certificate applies to which graph.

A construction states its hypothesis only inside its function, which raises
PreconditionError when the hypothesis fails, and ``bounds_report`` builds
every construction of the table that applies.  The hypotheses are written
out once more here, from the invariants, and pinned on whole families.
"""

from __future__ import annotations

import pytest

from udim import (
    PreconditionError,
    bounds_report,
    gen_c4k,
    gen_cycle,
    gen_sun,
    kappa_tau,
)
from udim.constructions import CONSTRUCTIONS


def _hypotheses(u) -> dict[str, tuple[str, str, bool]]:
    """``construct`` name -> (certificate name, bound record it certifies,
    whether it applies to u)."""
    g = u.graph
    is_cycle = u.is_cycle_graph()
    kappa, _ = kappa_tau(g)
    return {
        "pendant-set": (
            "pendant-set", "dim_pendant_support", all(g.degree(c) >= 3 for c in u.cycle)
        ),
        "cycle": ("cycle-partition", "pd_unit_terminal", is_cycle),
        "unit-terminal": ("unit-terminal", "pd_unit_terminal", kappa == 0 and not is_cycle),
        "kappa-tau": ("kappa-tau", "pd_kappa_tau", kappa >= 1),
        "xi-theta": ("xi-theta", "pd_support_leaf.upper", not is_cycle),
    }


@pytest.fixture(scope="module")
def family(unicyclic_classes):
    graphs = [u for n in range(3, 10) for u in unicyclic_classes[n]]
    graphs += [gen_sun(k) for k in (3, 4)]
    graphs += [gen_c4k(k) for k in range(2, 8)]
    graphs += [gen_cycle(k) for k in range(3, 30)]
    return graphs


def test_table_lists_every_certificate_in_report_order(family):
    hypotheses = _hypotheses(family[0])
    assert [name for name, _, _ in CONSTRUCTIONS] == list(hypotheses)
    assert [bound for _, _, bound in CONSTRUCTIONS] == [b for _, b, _ in hypotheses.values()]


def test_constructions_raise_exactly_when_their_hypothesis_fails(family):
    for u in family:
        hypotheses = _hypotheses(u)
        for name, build, _ in CONSTRUCTIONS:
            cert_name, _, applies = hypotheses[name]
            if applies:
                assert build(u).name == cert_name
            else:
                with pytest.raises(PreconditionError):
                    build(u)


def test_report_certificates_follow_the_hypotheses(family):
    for u in family:
        applied = [(cert, bound) for cert, bound, applies in _hypotheses(u).values() if applies]
        report = bounds_report(u)
        assert list(report["certificates"]) == [cert for cert, _ in applied]
        tags = {r["name"]: r["certificate"] for r in report["bounds"] if r["certificate"]}
        assert set(tags.values()) <= set(report["certificates"])
        assert tags == {bound: cert for cert, bound in applied}
