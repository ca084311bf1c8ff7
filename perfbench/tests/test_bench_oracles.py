"""The oracles flag results that are off by one."""

import numpy as np
import pytest

import maghardy as mh
from perfbench import oracles


@pytest.fixture(scope="module")
def problem():
    field = mh.BumpField(0.4)
    well = mh.GaussianWell(1.0, 0.8)
    grid = mh.Grid.uniform(-10.0, 3.0, 401)
    rep = mh.count_total(field, well, 300.0, grid, method="inertia")
    return field, well, grid, rep


def test_exact_inertia_counts_pass(problem):
    field, well, grid, rep = problem
    assert rep.total > 0
    assert oracles.check_inertia(field, well, 300.0, grid.t, rep.per_mode) == []


@pytest.mark.parametrize("delta", [1, -1])
def test_inertia_count_off_by_one_fails(problem, delta):
    field, well, grid, rep = problem
    bad = dict(rep.per_mode)
    bad[0] += delta
    msgs = oracles.check_inertia(field, well, 300.0, grid.t, bad)
    assert len(msgs) == 1 and "m=0" in msgs[0]


def test_pruefer_tolerance_is_one(problem):
    field, well, grid, rep = problem
    off_by_one = {m: c + 1 for m, c in rep.per_mode.items()}
    assert oracles.check_prufer(field, well, 300.0, grid.t, off_by_one) == []
    bad = dict(rep.per_mode)
    bad[0] += 2
    assert len(oracles.check_prufer(field, well, 300.0, grid.t, bad)) == 1


def test_lapack_count_matches_dense_eigenvalues():
    rng = np.random.default_rng(3)
    diag = rng.normal(size=50)
    off = rng.normal(size=49)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert oracles.lapack_negative_count(diag, off) == int(np.sum(np.linalg.eigvalsh(dense) < 0))


def test_phase_total_off_by_one_fails():
    field = mh.BumpField(0.4)
    well = mh.GaussianWell(1.0, 0.8)
    rep = mh.count_total(field, well, 200.0, None, method="phase")
    assert oracles.check_phase(field, well, 200.0, rep.per_mode) == []
    bad = dict(rep.per_mode)
    bad[0] += 1.0
    assert len(oracles.check_phase(field, well, 200.0, bad)) == 1


def test_homogeneity_check():
    assert oracles.check_homogeneity(2.0, 6.0, 3.0) == []
    assert len(oracles.check_homogeneity(2.0, 6.0 * (1 + 1e-5), 3.0)) == 1
