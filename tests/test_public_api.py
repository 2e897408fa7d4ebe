"""The package's public names are its modules' ``__all__`` lists, re-exported."""

import spheretail
from spheretail import excursion, geometry, montecarlo, radial_laws

MODULES = (excursion, geometry, montecarlo, radial_laws)

# the public API, written out: a name enters or leaves it only on purpose
PUBLIC_NAMES = frozenset({
    "ExcursionReport",
    "PointConfiguration",
    "SimulationResult",
    "RadialLaw",
    "ChiSquare",
    "Chi",
    "FDist",
    "LogNormal",
    "Bessel",
    "TailClass",
    "UnsupportedLawError",
    "build_report",
    "d_k_asymptotic",
    "d_k_quadrature",
    "delta_bar",
    "delta_exact",
    "delta_rv_limit",
    "estimate_delta",
    "g_beta",
    "law_from_dict",
    "log_delta_asymptotic",
    "marginal_tail",
    "p_bounds",
    "p_exact",
    "p_tube",
    "sample_tmax",
    "simulate_pmax",
    "solve_threshold",
    "tail_dependence",
    "__version__",
})


def test_public_names_are_the_module_lists():
    names = spheretail.__all__
    assert len(names) == len(set(names))
    assert set(names) == {n for m in MODULES for n in m.__all__} | {"__version__"}
    assert set(names) == PUBLIC_NAMES


def test_each_public_name_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(spheretail, name)
            assert obj is getattr(module, name)
            assert obj.__module__ == module.__name__, name

