"""One Hessian a row: every model's kernel returns Hessians equal to their
transposes bit for bit, so no consumer symmetrizes them again.

The fit, its observed information, the local shift and the LAMN checks all
read the matrix :meth:`~quadlik.core.LikModel.loglik` returns as it is.  The
property tests hold each model kind, and the Bartlett draw behind every
Wishart K, to that contract, on rows near overflow and NaN rows too, and
every stacked evaluation to giving those rows without a warning.  One
source test allows ``_symmetrized`` only where a matrix comes from outside
the engine: :class:`~quadlik.core.ObjectiveEval` and
:func:`~quadlik.inference.symmetric_sqrt`.  Another keeps ``errstate`` out
of the kernels: :class:`~quadlik.core.StackedObjective` runs them quietly,
and :func:`~quadlik.core.cholesky_pivots` silences its own arithmetic.
"""

import ast
import warnings
from pathlib import Path

import numpy as np
from conftest import random_spd
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadlik import (
    AnimalModel,
    Ar1Model,
    ExponentialRateIid,
    LamnSpec,
    NormalLocationIid,
    WishartCurvature,
    derive_rng,
    lan_normal_location,
    relationship_matrix,
    synthetic_pedigree,
    wishart_lamn_model,
)
from quadlik.core import StackedEval, shifted_stack
from quadlik.lamn import _bartlett
from quadlik.rng import derive_streams

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quadlik"
# (module, top-level definition) of the only places a matrix is symmetrized
SYMMETRIZING = {("core", "ObjectiveEval"), ("inference", "symmetric_sqrt")}
# row magnitudes from ordinary to past the float maximum's square root
SCALES = np.array([1.0, 1e-3, 1e10, 1e100, 1e150, 1e155, 1e160, 1e300])
# animal log variances: ordinary, where the scaled products overflow (past
# about 355), where V is numerically singular, and past the bound of 700
LOG_VARIANCES = np.array([0.0, 2.0, -5.0, 300.0, 350.0, 360.0, -690.0, 710.0])


def assert_bit_symmetric(h):
    """Each matrix of ``h (..., p, p)`` equals its transpose: NaN entries at
    mirrored places, every other entry with the same bits."""
    t = np.swapaxes(h, -1, -2)
    nan = np.isnan(h)
    assert np.array_equal(nan, np.isnan(t))
    assert np.array_equal(h[~nan].view(np.int64), t[~nan].view(np.int64))


def assert_stack_symmetric(model, stack, thetas):
    """The kernel's Hessians at every row, NaO or not, and those of a shift
    with tau = 3 about the origin (about row 0's parameter where p = 1, as the
    exponential's origin is outside its domain), are exactly symmetric, and
    come without a warning: rows past overflow are NaO by design.  Returns
    the kernel's evaluation."""
    p = model.dim_param
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = model.stacked_objective(stack)(np.arange(len(stack)), thetas)
        assert_bit_symmetric(StackedEval.split(ev.packed, p)[2])
        shifted, _ = shifted_stack(model, stack, np.zeros(p) if p > 1 else thetas[0], 3.0, 9.0)
        assert_bit_symmetric(StackedEval.split(shifted(np.arange(len(stack)), thetas).packed, p)[2])
    return ev


def scaled_thetas(rng, m, p):
    """``(m, p)`` normals, each row scaled by a magnitude of SCALES."""
    return rng.standard_normal((m, p)) * rng.choice(SCALES, m)[:, None]


ROWS = st.integers(1, 12)
SEEDS = st.integers(0, 2**32 - 1)


def drawn(model, seed, m):
    """``m`` data sets drawn at the origin, one keyed stream each."""
    return model.simulate_stack(np.zeros((1, model.dim_param)), derive_streams(seed, [("data",)], m))


@settings(max_examples=15, deadline=None)
@given(p=st.integers(1, 4), m=ROWS, seed=SEEDS, big=st.sampled_from([1.0, 1e150, 1e290]))
def test_lan_hessians_are_exactly_symmetric(p, m, seed, big):
    rng = derive_rng(seed, "lan")
    model = lan_normal_location(random_spd(rng, p) * big)
    with np.errstate(all="ignore"):
        stack = drawn(model, seed, m)
    assert_stack_symmetric(model, stack, scaled_thetas(rng, m, p))


@settings(max_examples=15, deadline=None)
@given(p=st.integers(1, 4), m=ROWS, seed=SEEDS, dof=st.sampled_from([0.05, 0.5, 5.0]))
def test_wishart_lamn_hessians_are_exactly_symmetric(p, m, seed, dof):
    rng = derive_rng(seed, "wishart")
    # near dof = dim - 1 some K fail the pivot test and their rows are NaN
    model = wishart_lamn_model(LamnSpec(p, WishartCurvature(p - 1 + dof, random_spd(rng, p))))
    assert_stack_symmetric(model, drawn(model, seed, m), scaled_thetas(rng, m, p))


ANIMAL = AnimalModel(relationship_matrix(synthetic_pedigree(3, 4, 2, 5)))


@settings(max_examples=15, deadline=None)
@given(m=ROWS, seed=SEEDS, big=st.sampled_from([1.0, 1e6]), row0=st.none())
# row 2 is at log tau2 = -690: its (mu, tau2) entry underflows to a zero,
# which the chain rule once signed on one side of the diagonal only
@example(m=6, seed=0, big=1.0, row0=None)
# on data of scale 1e6 at log variances of -229, rt^2 / w^3 overflows: the row is NaO
@example(m=2, seed=0, big=1e6, row0=(0.0, -229.0, -229.0))
def test_animal_hessians_are_exactly_symmetric(m, seed, big, row0):
    rng = derive_rng(seed, "animal")
    thetas = np.column_stack([rng.standard_normal(m) * rng.choice(SCALES, m), rng.choice(LOG_VARIANCES, (m, 2))])
    if row0 is not None:
        thetas[0] = row0
    ev = assert_stack_symmetric(ANIMAL, drawn(ANIMAL, seed, m) * big, thetas)
    assert row0 is None or not ev.ok[0]


@settings(max_examples=15, deadline=None)
@given(p=st.integers(1, 4), n=st.integers(1, 6), m=ROWS, seed=SEEDS)
def test_iid_normal_hessians_are_exactly_symmetric(p, n, m, seed):
    rng = derive_rng(seed, "iid-normal")
    model = NormalLocationIid(p, n)
    assert_stack_symmetric(model, drawn(model, seed, m), scaled_thetas(rng, m, p))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 30), m=ROWS, seed=SEEDS)
def test_ar1_hessians_are_exactly_symmetric(n, m, seed):
    # theta far from 0 makes paths explode to inf or NaN: NaO rows
    rng = derive_rng(seed, "ar1")
    model = Ar1Model(n)
    with np.errstate(all="ignore"):
        stack = model.simulate_stack(scaled_thetas(rng, m, 1), derive_streams(seed, [("data",)], m))
    assert_stack_symmetric(model, stack, scaled_thetas(rng, m, 1))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(1, 6), m=ROWS, seed=SEEDS)
def test_exponential_hessians_are_exactly_symmetric(n, m, seed):
    # rates past 1e154 or below 1e-154 have a non-finite Hessian
    rng = derive_rng(seed, "exponential")
    model = ExponentialRateIid(n)
    stack = model.simulate_stack(np.ones((1, 1)), derive_streams(seed, [("data",)], m))
    rates = np.abs(rng.standard_normal((m, 1))) * rng.choice(np.concatenate([SCALES, 1.0 / SCALES]), m)[:, None]
    assert_stack_symmetric(model, stack, rates)


@settings(max_examples=25, deadline=None)
@given(p=st.integers(1, 5), m=st.integers(1, 40), seed=SEEDS, big=st.sampled_from([1e-300, 1.0, 1e150, 1e290]))
def test_bartlett_draws_are_exactly_symmetric(p, m, seed, big):
    rng = derive_rng(seed, "bartlett")
    law = WishartCurvature(p + 1.0, random_spd(rng, p) * big)
    chi = rng.chisquare(law.dof - np.arange(p), (m, p))
    normals = rng.standard_normal((m, p * (p - 1) // 2)) * rng.choice(SCALES, (m, 1))
    with np.errstate(all="ignore"):  # a scale near the float maximum overflows to inf and NaN entries
        assert_bit_symmetric(_bartlett(law, chi, normals))


def symmetrizing_sites(sources: dict[str, str]) -> set[tuple[str, str]]:
    """``(module, top-level name)`` of each definition of ``sources`` that calls ``_symmetrized``."""
    return {
        (module, getattr(statement, "name", "<module>"))
        for module, source in sources.items()
        for statement in ast.parse(source).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_symmetrized"
    }


def test_the_check_sees_every_symmetrizing_site():
    sources = {
        "a": "def _symmetrized(h):\n    return h\nclass Eval:\n    def f(self, h):\n        return _symmetrized(h)\n",
        "b": "from .a import _symmetrized\nX = _symmetrized(1)\ndef g(h):\n    return [_symmetrized(h)]\n",
    }
    assert symmetrizing_sites(sources) == {("a", "Eval"), ("b", "<module>"), ("b", "g")}


def test_only_outside_matrices_are_symmetrized():
    sources = {path.stem: path.read_text(encoding="utf8") for path in sorted(PACKAGE.glob("*.py"))}
    assert symmetrizing_sites(sources) == SYMMETRIZING


# the kernels: every model's likelihood formula and the functions they share
KERNELS = {"loglik", "natural_eval", "quadratic_stack", "_ar1_kernel"}


def errstate_sites(sources: dict[str, str]) -> set[tuple[str, str]]:
    """``(module, qualified name)`` of each function of ``sources``, top level or
    a method, whose body names ``errstate``, nested functions included."""
    sites = set()

    def visit(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and any(
                    isinstance(n, ast.Attribute) and n.attr == "errstate" or isinstance(n, ast.Name) and n.id == "errstate"
                    for n in ast.walk(child)
                ):
                    sites.add((module, name))
                visit(module, child, name + ".")

    for module, source in sources.items():
        visit(module, ast.parse(source), "")
    return sites


def test_the_check_sees_every_errstate_site():
    sources = {
        "a": "import numpy as np\nclass M:\n    def loglik(self, x):\n        if x:\n            with np.errstate(over='ignore'):\n"
             "                return x * x\n        return x\n    def starts(self, x):\n        return x\n",
        "b": "from numpy import errstate\ndef natural_eval(x):\n    def inner():\n        with errstate(all='ignore'):\n"
             "            return x\n    return inner()\ndef plain(x):\n    return x\n",
    }
    assert errstate_sites(sources) == {("a", "M.loglik"), ("b", "natural_eval"), ("b", "natural_eval.inner")}


def test_kernels_are_plain_arithmetic():
    sources = {path.stem: path.read_text(encoding="utf8") for path in sorted(PACKAGE.glob("*.py"))}
    sites = errstate_sites(sources)
    assert not {(module, name) for module, name in sites if set(name.split(".")) & KERNELS}
    # the two NaO decisions, each quiet on its own
    assert {("core", "StackedObjective.__call__"), ("core", "cholesky_pivots")} <= sites
