"""Every internal cross-check raises InvariantError, and nothing that
handles bad input or degenerate draws swallows it.

Each test below forces one check to fail by monkeypatching one of the
two routes it compares, then asserts the typed error and its message
(test_hessian checks the lambda-matrix symmetry guard)."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from numpy.random import default_rng

import rigidity3d
from rigidity3d import cauchy, generators, geometry, hessian, suspensions
from rigidity3d.cauchy import count_sign_changes, dent_rigidity_harness, sign_subgraph
from rigidity3d.frameworks import Framework, nontrivial_flex
from rigidity3d.geometry import (
    InvariantError,
    classify_convexity,
    normalize_pole_frame,
)
from rigidity3d.hessian import decompose_star, pd_probe, rigidity_from_lambda
from rigidity3d.shapes import octahedron
from rigidity3d.suspensions import (
    convex_profile_certificate,
    inductive_proper_stress,
    is_ns_decomposable,
    lambda_scalar,
    suspension_rigidity,
)

import oracles

SRC = Path(rigidity3d.__file__).parent


def reflex_star(k=0):
    return generators.star_suspension(default_rng((403, k)), 4 + k, require_reflex=True)


def convex_profile():
    rng = default_rng((4700, 0))
    return generators.convex_suspension(rng, int(rng.integers(3, 13)))


def flipped_rigidity(monkeypatch, module):
    original = module.is_infinitesimally_rigid
    monkeypatch.setattr(module, "is_infinitesimally_rigid",
                        lambda fw, tol=geometry.DEFAULT_TOL: not original(fw, tol))


def test_invariant_error_is_no_input_error():
    for layer_error in (geometry.GeometryError, hessian.DecompositionError,
                        suspensions.SuspensionError, cauchy.CauchyError,
                        generators.GenerationError):
        assert not issubclass(InvariantError, layer_error)
    assert rigidity3d.InvariantError is InvariantError


def test_exactly_the_fourteen_cross_checks_raise_it():
    raised = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "InvariantError"):
                raised[path.stem] = raised.get(path.stem, 0) + 1
    assert raised == {"cauchy": 1, "geometry": 2, "hessian": 2, "suspensions": 9}


# ---------------------------------------------------------------------------
# hessian
# ---------------------------------------------------------------------------


def test_dihedral_table_gram_check(monkeypatch):
    d = decompose_star(octahedron(), 0)
    # four faces pairwise at 0.1 rad cannot bound a tetrahedron
    monkeypatch.setattr(oracles, "tetra_angles_and_jacobian",
                        lambda lengths, tol: (np.full(lengths.shape, 0.1), None))
    with pytest.raises(InvariantError, match="fail the Gram check"):
        oracles.dihedral_table(d)


def test_rigidity_from_lambda_verdicts_disagree(monkeypatch):
    d = decompose_star(octahedron(), 0)
    flipped_rigidity(monkeypatch, hessian)
    with pytest.raises(InvariantError, match="rigidity verdicts disagree"):
        rigidity_from_lambda(d)


# ---------------------------------------------------------------------------
# suspensions
# ---------------------------------------------------------------------------


def test_ns_decomposable_orientation_check(monkeypatch):
    s = reflex_star()
    stacks = []

    def mixed_signs(m):
        # one batched call over the (n, 3, 3) stack of slot frames
        stacks.append(np.shape(m))
        return np.array([1.0] + [-1.0] * (len(m) - 1))

    monkeypatch.setattr(np.linalg, "det", mixed_signs)
    with pytest.raises(InvariantError, match="internal: azimuth increments"):
        is_ns_decomposable(s)
    assert stacks == [(s.n, 3, 3)]


def test_lambda_scalar_closed_forms(monkeypatch):
    original = suspensions.theta_prime
    monkeypatch.setattr(suspensions, "theta_prime", lambda *a: original(*a) + 1.0)
    with pytest.raises(InvariantError, match="two closed forms disagree"):
        lambda_scalar(reflex_star())


def test_induction_chord_cancellation(monkeypatch):
    class Skewed(dict):
        # the cancelling factor reads a chord entry the sum does not add
        def __getitem__(self, key):
            return 2.0 * dict.__getitem__(self, key)

    original = suspensions._star_stresses
    monkeypatch.setattr(suspensions, "_star_stresses",
                        lambda *a: [Skewed(small) for small in original(*a)])
    with pytest.raises(InvariantError, match="chord stress failed to cancel"):
        inductive_proper_stress(reflex_star())


def test_induction_equilibrium(monkeypatch):
    monkeypatch.setattr(suspensions, "equilibrium_residual", lambda fw, stress: 1.0)
    with pytest.raises(InvariantError, match="non-equilibrium stress"):
        inductive_proper_stress(reflex_star())


def test_induction_properness(monkeypatch):
    monkeypatch.setattr(suspensions, "is_proper", lambda *a, **k: False)
    with pytest.raises(InvariantError, match="improper stress"):
        inductive_proper_stress(reflex_star())


def test_suspension_theorem(monkeypatch):
    monkeypatch.setattr(suspensions, "is_infinitesimally_rigid", lambda *a: False)
    with pytest.raises(InvariantError, match="the suspension theorem says"):
        suspension_rigidity(reflex_star())


def skew_breakdown(monkeypatch, **change):
    original = suspensions.lambda_scalar

    def skewed(s, tol):
        b = original(s, tol)
        return dataclasses.replace(b, **{k: f(b) for k, f in change.items()})

    monkeypatch.setattr(suspensions, "lambda_scalar", skewed)


def test_certificate_positivity(monkeypatch):
    skew_breakdown(monkeypatch, vertex_terms=lambda b: b.vertex_terms - 1.0)
    with pytest.raises(InvariantError, match="positivity violated in scope"):
        convex_profile_certificate(convex_profile())


def test_certificate_total(monkeypatch):
    skew_breakdown(monkeypatch, simplex_terms=lambda b: -np.abs(b.simplex_terms))
    with pytest.raises(InvariantError, match="total invariant not positive"):
        convex_profile_certificate(convex_profile())


def test_certificate_rigidity(monkeypatch):
    monkeypatch.setattr(suspensions, "is_infinitesimally_rigid", lambda fw, tol: False)
    with pytest.raises(InvariantError, match="positive invariant but the rigidity"):
        convex_profile_certificate(convex_profile())


# ---------------------------------------------------------------------------
# geometry and cauchy
# ---------------------------------------------------------------------------


def test_pole_frame_self_check(monkeypatch):
    monkeypatch.setattr(geometry, "pole_frame_ok", lambda *a: False)
    with pytest.raises(InvariantError, match="failed its own support-plane check"):
        normalize_pole_frame(reflex_star().vertices, 0, 1)


def test_lp_solver_failure(monkeypatch):
    """The exposure LPs are feasible at zero and bounded, so an unsuccessful
    solve is a solver failure: it raises instead of reading as 'not
    exposed'."""
    failed = scipy.optimize.OptimizeResult(
        success=False, status=4, message="numerical difficulties", x=None
    )
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k: failed)
    with pytest.raises(InvariantError, match="support_functional: LP solver failed"):
        classify_convexity(octahedron())


def test_sign_change_totals(monkeypatch):
    surf = oracles.flexible_suspension_fixture().suspension.surface
    signs = cauchy.sign_vector_from_flex(surf, nontrivial_flex(Framework.from_surface(surf)))
    graph = sign_subgraph(surf, signs)
    monkeypatch.setattr(cauchy, "_trace_faces", lambda rotation: [])
    with pytest.raises(InvariantError, match="change totals disagree"):
        count_sign_changes(graph)


# ---------------------------------------------------------------------------
# handlers of degenerate input let it through
# ---------------------------------------------------------------------------


def test_pd_probe_raises_instead_of_counting(monkeypatch):
    flipped_rigidity(monkeypatch, hessian)
    with pytest.raises(InvariantError, match="rigidity verdicts disagree"):
        pd_probe(trials=2, seed=0)


def test_pd_probe_still_counts_degenerate_draws(monkeypatch):
    def fail(kind, rng, tol):
        raise generators.GenerationError("degenerate draw")

    monkeypatch.setattr(generators, "probe_decomposition", fail)
    report = pd_probe(trials=3, seed=0)
    assert report.failures == 3 and not report.trials


@pytest.mark.parametrize("error", [InvariantError, generators.GenerationError])
def test_dent_harness_counts_only_generation_failures(monkeypatch, error):
    def fail(rng, n, tol):
        raise error("forced")

    monkeypatch.setattr(generators, "random_convex_hull_surface", fail)
    if error is InvariantError:
        with pytest.raises(InvariantError, match="forced"):
            dent_rigidity_harness(seed=0, trials=2)
    else:
        assert dent_rigidity_harness(seed=0, trials=2).skipped == 2


def test_dented_hull_retry_does_not_swallow_it(monkeypatch):
    monkeypatch.setattr(hessian, "SYM_TOL", -1.0)  # every lambda reads asymmetric
    with pytest.raises(InvariantError, match="asymmetric beyond tolerance"):
        generators.dented_hull_star(default_rng(0), 10)
