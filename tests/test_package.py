"""The public names of the package."""

import nuqmc
import nuqmc.discrepancy
import nuqmc.measures

#: Public entry points that were removed: the ``cdf``/``cdf_one_sided``
#: methods and ``one_sided_deviation`` read a measure at a corner instead.
RETIRED = ["cdf_eval", "cdf_one_sided", "local_discrepancy"]


def test_every_export_resolves_once():
    assert len(nuqmc.__all__) == len(set(nuqmc.__all__))
    missing = [name for name in nuqmc.__all__ if not hasattr(nuqmc, name)]
    assert missing == []


def test_retired_names_are_gone():
    assert not set(RETIRED) & set(nuqmc.__all__)
    for module in (nuqmc, nuqmc.measures, nuqmc.discrepancy):
        assert [name for name in RETIRED if hasattr(module, name)] == [], module.__name__
    assert not hasattr(nuqmc.measures, "_limit_flags")
