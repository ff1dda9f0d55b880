"""The package surface: what ``from cylq import ...`` offers, and the JSON
loaders that take outside input."""

import pytest

import cylq
from cylq import fitkit, identities, lattice, products, recur, series
from cylq.fitkit import FitProblem
from cylq.products import ProductSpec
from cylq.recur import system_from_json
from cylq.series import series_from_json

LAYERS = (series, lattice, products, recur, identities, fitkit)

#: Every name ``cylq.__all__`` listed when the package spelled its exports
#: out by hand; none of them may go or change meaning.
PINNED = {
    series: """PochFactor TruncatedSeries Window gauss_binomial inv_poch_finite
        make_series monomial one poch_finite poch_infinite poch_product qf
        series_from_json series_to_json theta_sum zero zf""",
    lattice: """KINDS Diamond GridPartition count_distinct_by_marked_sum
        count_partitions_by_hook down_neighbors down_neighbors_strict
        enumerate_objects full_profile genfun_by_enumeration is_above
        is_above_strict partitions_iter schmidt_genfun scp_weights
        signed_distinct_genfun standard_weights up_neighbors up_neighbors_strict""",
    products: """ORIENTATIONS ProductSpec balance_census cp_product cp_product_spec
        dspp_product dspp_product_spec is_balanced nonsymmetric_mirror_series
        prefix_sums scp_product_spec w1_entries w1_w2_multisets w2_entries
        w3_entries w3_multiset""",
    recur: """CheckReport CoefficientRecurrence CoefficientSequence
        EliminationResult FunctionalSystem FunctionalTerm LinQPoly build_system
        check_closed_form closed_form_euler closed_form_goellnitz
        closed_form_width4 closed_form_width6 corner_moves corner_set
        corner_subset_terms eliminate poch_z_prefactor profile_closure
        reverse_profile sigma_prefactor_factored sigma_prefactor_terms
        solve_fixed_point system_from_json system_to_json
        to_coefficient_recurrences width4_recurrence width6_recurrence""",
    identities: """CONVENTIONS Comparison IdentityCase Side compare_series get_case
        registry report_text verify""",
    fitkit: "FitProblem convert_profile discover_equivalences fit_report fit_weights",
}


def test_pinned_names_stay_exported_as_the_same_objects():
    pinned = [(layer, name) for layer, names in PINNED.items() for name in names.split()]
    assert len(pinned) == 94  # the 95th is __version__
    for layer, name in pinned:
        assert name in cylq.__all__, name
        assert getattr(cylq, name) is getattr(layer, name), name
    assert "__version__" in cylq.__all__ and cylq.__version__ == "0.1.0"


def test_package_all_is_the_layer_lists_in_order():
    expected = [name for layer in LAYERS for name in layer.__all__] + ["__version__"]
    assert cylq.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_listed_name_resolves():
    namespace: dict = {}
    exec("from cylq import *", namespace)
    for name in cylq.__all__:
        assert namespace[name] is getattr(cylq, name), name


@pytest.mark.parametrize(
    "load",
    [FitProblem.from_json, ProductSpec.from_json, system_from_json, series_from_json],
    ids=["fit", "product", "system", "series"],
)
@pytest.mark.parametrize("payload", [[1, 2], "cylq-series/1", None])
def test_json_loaders_reject_non_objects(load, payload):
    with pytest.raises(ValueError, match="payload|schema"):
        load(payload)
