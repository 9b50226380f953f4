"""The public names of the package."""

import dataclasses

import nuqmc
import nuqmc.discrepancy
import nuqmc.measures

#: Public entry points that were removed: the ``cdf``/``cdf_one_sided``
#: methods and ``one_sided_deviation`` read a measure at a corner instead,
#: and ``DiscreteSignedMeasure(d, locations, weights)`` takes arrays, not
#: ``Atom`` objects.
RETIRED = ["cdf_eval", "cdf_one_sided", "local_discrepancy", "Atom"]


def test_every_export_resolves_once():
    assert len(nuqmc.__all__) == len(set(nuqmc.__all__))
    missing = [name for name in nuqmc.__all__ if not hasattr(nuqmc, name)]
    assert missing == []


def test_retired_names_are_gone():
    assert not set(RETIRED) & set(nuqmc.__all__)
    for module in (nuqmc, nuqmc.measures, nuqmc.discrepancy):
        assert [name for name in RETIRED if hasattr(module, name)] == [], module.__name__
    assert not hasattr(nuqmc.measures, "_limit_flags")


def test_signed_measures_have_one_constructor():
    retired = ["_from_arrays", "_init_arrays", "atoms"]
    assert [name for name in retired if hasattr(nuqmc.DiscreteSignedMeasure, name)] == []


def test_conditional_cdf_has_no_strictness_flag():
    fields = {f.name for f in dataclasses.fields(nuqmc.ConditionalCdf2D)}
    assert "strictly_increasing" not in fields
