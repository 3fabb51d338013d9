"""The library's argument contract, generated from the package itself.

The surface is every public function and class that ``physics``,
``discretization``, ``assembly``, ``eigensolver`` and ``analysis`` define,
less the records the package returns (``RECORDS``). The CLI is outside it:
its contract is argv (``test_cli.BAD_VALUES``). Each callable of the
surface has one known-good call in ``GOOD_CALLS``; each of ``BAD_VALUES``
is put into each of its parameters in turn, defaults included. Such a call
must raise ConfigError or PhysicsError with a message that names the
parameter, unless ``ACCEPTED`` lists the (callable, parameter, value) with
the reason it is a valid input. A new public callable joins the contract by
being defined: with no good call, ``test_every_public_callable_has_a_good_call``
fails.
"""

import inspect
import math
import re

import numpy as np
import pytest

from diracfem import analysis, assembly, discretization, eigensolver, physics
from diracfem.errors import ConfigError, PhysicsError

MODULES = (physics, discretization, assembly, eigensolver, analysis)

#: Result records and value enums: the package builds them, and checks nothing on construction.
RECORDS = {
    "physics.ReferenceLevel", "discretization.BasisKind", "assembly.AssembledSystem",
    "eigensolver.Spectrum", "analysis.Label", "analysis.ClassifiedLevel",
    "analysis.ClassifiedSpectrum", "analysis.CoincidenceReport", "analysis.ConvergenceStudy",
}

BAD_VALUES = {"None": None, "str": "x", "bool": True, "nan": math.nan, "object": object(),
              "list": [], "-1": -1}


def surface() -> list[str]:
    """``module.name`` of every public function and class the contract's modules define."""
    return sorted(f"{module.__name__.rpartition('.')[2]}.{name}"
                  for module in MODULES for name, value in vars(module).items()
                  if not name.startswith("_")
                  and (inspect.isfunction(value) or inspect.isclass(value))
                  and value.__module__ == module.__name__)


HYDROGEN = physics.OperatorParams(Z=1, kappa=-1)
MESH = discretization.build_exponential_mesh(1e-6, 40.0, 10, 8.0)
SYSTEM = assembly.assemble(assembly.SCHEME_HERMITE, HYDROGEN, MESH)
REFERENCE = physics.reference_spectrum(HYDROGEN, 2)
CLASSIFIED = analysis.classify([level.binding for level in REFERENCE], REFERENCE, match_tol=1e-3)


def spectrum(kappa: int) -> eigensolver.Spectrum:
    """A two-level hydrogen spectrum of ``kappa`` with no eigenvectors."""
    return eigensolver.Spectrum(
        scheme=assembly.SCHEME_HERMITE, bindings=np.array([-0.5, -0.125]), max_imag=0.0,
        params=physics.OperatorParams(Z=1, kappa=kappa), eigenvectors=np.zeros((1, 2)))


#: One known-good call per callable of the surface: (positional, keyword) arguments.
GOOD_CALLS = {
    "physics.OperatorParams": ((), {"Z": 1, "kappa": -1}),
    "physics.potential_value": ((HYDROGEN, 2.0), {}),
    "physics.reference_binding": ((HYDROGEN, 0), {}),
    "physics.reference_spectrum": ((HYDROGEN, 2), {}),
    "discretization.Mesh": ((np.array([1.0, 2.0, 4.0]),), {}),
    "discretization.build_exponential_mesh": ((1e-6, 40.0, 10, 8.0), {}),
    "discretization.gauss_rule": ((MESH,), {}),
    "assembly.compute_tau": ((MESH,), {}),
    "assembly.is_galerkin": ((assembly.SCHEME_SUPG,), {}),
    "assembly.assemble": ((assembly.SCHEME_HERMITE, HYDROGEN, MESH), {}),
    "assembly.part_dofs": ((assembly.SCHEME_HERMITE, 40, "zeta"), {}),
    "eigensolver.bound_window": ((HYDROGEN, 2), {}),
    "eigensolver.solve": ((SYSTEM,), {"window": eigensolver.bound_window(HYDROGEN, 2)}),
    "eigensolver.eigenpair_residual": ((SYSTEM, -0.5, np.ones(SYSTEM.size)), {}),
    "analysis.check_match_tol": ((1e-3,), {}),
    "analysis.classify": (([-0.5], REFERENCE), {"match_tol": 1e-3}),
    "analysis.truncate_to_genuine": ((CLASSIFIED, 1), {}),
    "analysis.coincidence_report": ((spectrum(1), spectrum(-1)), {"match_tol": 1e-6}),
    "analysis.convergence_study": (
        (assembly.SCHEME_HERMITE, HYDROGEN, (10, 12), 2),
        {"a": 1e-6, "b": 40.0, "gamma": 8.0, "match_tol": 1e-5}),
}

#: (callable, parameter, bad value) that is a valid input after all, with the reason.
ACCEPTED = {
    ("physics.OperatorParams", "kappa", "-1"): "kappa = -1 is the s1/2 series",
    ("physics.OperatorParams", "R", "None"): "R = None is the point nucleus",
    ("physics.potential_value", "x", "list"): "no positions have no potential values",
    ("assembly.assemble", "free_lower_slope", "bool"): "True frees the Hermite lower slope",
    ("eigensolver.eigenpair_residual", "binding", "-1"): "any finite binding has a residual",
    ("analysis.classify", "computed", "list"): "an empty spectrum has no levels to label",
    ("analysis.classify", "reference", "list"): "with no reference every level is instilled",
    ("analysis.classify", "opposite_kappa_ground", "None"): "None is a kappa < 0 run",
    ("analysis.classify", "opposite_kappa_ground", "-1"): "-1 is a finite nonzero binding",
    ("analysis.convergence_study", "free_lower_slope", "bool"):
        "True frees the Hermite lower slope",
}


def resolve(name: str):
    module, _, attribute = name.partition(".")
    return getattr(globals()[module], attribute)


def test_every_public_callable_has_a_good_call():
    assert sorted(set(surface()) - RECORDS) == sorted(GOOD_CALLS)


def test_records_and_accept_list_name_the_surface():
    assert RECORDS <= set(surface())
    for name, parameter, value in ACCEPTED:
        assert parameter in inspect.signature(resolve(name)).parameters
        assert value in BAD_VALUES


@pytest.mark.parametrize("name", sorted(GOOD_CALLS))
def test_the_good_call_succeeds(name):
    args, kwargs = GOOD_CALLS[name]
    resolve(name)(*args, **kwargs)


def bad_calls():
    for name in sorted(GOOD_CALLS):
        for parameter in inspect.signature(resolve(name)).parameters:
            for label in BAD_VALUES:
                yield pytest.param(name, parameter, label, id=f"{name}-{parameter}-{label}")


@pytest.mark.parametrize("name, parameter, label", bad_calls())
def test_a_bad_argument_raises_a_package_error_naming_it(name, parameter, label):
    function = resolve(name)
    args, kwargs = GOOD_CALLS[name]
    bound = inspect.signature(function).bind(*args, **kwargs)
    bound.apply_defaults()
    bound.arguments[parameter] = BAD_VALUES[label]
    if (name, parameter, label) in ACCEPTED:
        function(*bound.args, **bound.kwargs)
        return
    with pytest.raises((ConfigError, PhysicsError)) as caught:
        function(*bound.args, **bound.kwargs)
    assert re.search(rf"\b{parameter}\b", str(caught.value)), str(caught.value)
