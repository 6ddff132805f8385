import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loneaxis.errors import PreconditionError
from loneaxis.graphs import power, rose_map
from loneaxis import spectral

from conftest import cubic_map, defect_map, fib_map, identity_map


def golden_ratio():
    # positive root of x^2 - x - 1, computed independently
    return (1 + math.sqrt(5)) / 2


def cubic_root():
    # real root of x^3 - x - 1 by bisection, independent of numpy
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid ** 3 - mid - 1 < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def residual(tm, x, lam):
    # max |M^T x - lam x|, summed exactly
    return max(abs(math.fsum(m * v for m, v in zip(col, x)) - lam * xj)
               for col, xj in zip(zip(*tm.mat), x))


class TestTransitionMatrix:
    def test_fib(self):
        tm = spectral.transition_matrix(fib_map())
        assert tm.pairs == ("a", "b")
        assert tm.mat == ((1, 1), (1, 0))

    def test_identity_map(self):
        tm = spectral.transition_matrix(identity_map(2))
        assert tm.mat == ((1, 0), (0, 1))

    def test_cubic(self):
        tm = spectral.transition_matrix(cubic_map())
        assert tm.pairs == ("a", "b", "c")
        assert tm.mat == ((0, 0, 1), (1, 0, 1), (0, 1, 0))
        assert all(type(m) is int for row in tm.mat for m in row)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_powers_multiply(self, k):
        for g in (fib_map(), cubic_map()):
            m = spectral.transition_matrix(g).mat
            mk = spectral.transition_matrix(power(g, k)).mat
            assert mk == tuple(map(tuple, np.linalg.matrix_power(m, k).tolist()))


class TestMatrixClass:
    def test_fib_primitive_by_direct_squaring(self):
        tm = spectral.transition_matrix(fib_map())
        assert (np.linalg.matrix_power(tm.mat, 2) > 0).all()
        assert spectral.matrix_class(tm) == spectral.PRIMITIVE

    def test_identity_reducible(self):
        tm = spectral.transition_matrix(identity_map(2))
        assert spectral.matrix_class(tm) == spectral.REDUCIBLE

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_wielandt_matrix_needs_the_whole_bound(self, n):
        # an n-cycle with one chord closing an (n-1)-cycle: M^k > 0 first
        # at k = (n-1)^2 + 1
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            mat[(i + 1) % n][i] = 1
        mat[1][n - 1] = 1
        m = np.array(mat, dtype=bool)
        assert not np.linalg.matrix_power(m, (n - 1) ** 2).all()
        tm = spectral.TransitionMatrix(range(n), mat)
        assert spectral.matrix_class(tm) == spectral.PRIMITIVE

    def test_two_cycle_imprimitive(self):
        tm = spectral.TransitionMatrix(("a", "b"), [[0, 1], [1, 0]])
        assert spectral.matrix_class(tm) == spectral.IMPRIMITIVE


class TestPFData:
    def test_fib_eigenpair(self):
        pf = spectral.pf_data(spectral.transition_matrix(fib_map()))
        phi = golden_ratio()
        assert abs(pf.lam - phi) < 1e-9
        assert abs(pf.lam - 1.6180339887) < 1e-9
        assert abs(pf.edge_lengths["a"] - 1 / phi) < 1e-9
        assert abs(pf.edge_lengths["a"] - 0.6180339887) < 1e-9
        assert abs(pf.edge_lengths["b"] - 0.3819660113) < 1e-9

    def test_cubic_eigenvalue(self):
        pf = spectral.pf_data(spectral.transition_matrix(cubic_map()))
        assert abs(pf.lam - cubic_root()) < 1e-9
        assert abs(pf.lam - 1.3247179572) < 1e-9

    def test_one_by_one(self):
        pf = spectral.pf_data(spectral.TransitionMatrix(("a",), [[2]]))
        assert pf.lam == pytest.approx(2.0, abs=1e-12)
        assert pf.edge_lengths == {"a": 1.0}

    def test_reducible_rejected(self):
        with pytest.raises(PreconditionError):
            spectral.pf_data(spectral.transition_matrix(identity_map(2)))

    def test_imprimitive_fallback(self):
        # period-2 irreducible matrix; eigenvalue sqrt(6) via the M^p route
        tm = spectral.TransitionMatrix(("a", "b"), [[0, 2], [3, 0]])
        pf = spectral.pf_data(tm)
        assert abs(pf.lam - math.sqrt(6)) < 1e-9
        x = [pf.edge_lengths["a"], pf.edge_lengths["b"]]
        assert residual(tm, x, pf.lam) <= 1e-10

    def test_eigen_residual_invariant(self, corpus):
        for g in corpus[:30]:
            tm = spectral.transition_matrix(g)
            pf = spectral.pf_data(tm)
            x = [pf.edge_lengths[e] for e in tm.pairs]
            assert min(x) > 0
            assert abs(math.fsum(x) - 1) < 1e-12
            assert residual(tm, x, pf.lam) <= 1e-10

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_dilatation_power_law(self, k):
        for g in (fib_map(), cubic_map()):
            lam = spectral.dilatation(g)
            lam_k = spectral.dilatation(power(g, k))
            assert abs(lam_k - lam ** k) < 1e-8


class TestEigenmetric:
    def test_fib_ratio(self):
        g = fib_map()
        metric = spectral.eigenmetric(g)
        lam = spectral.dilatation(g)
        assert abs(metric.lengths["a"] + metric.lengths["b"] - 1) < 1e-12
        assert abs(metric.lengths["a"] - lam * metric.lengths["b"]) < 1e-9

    def test_doubling_loop(self):
        g = rose_map({"a": "aa"})
        metric = spectral.eigenmetric(g)
        assert metric.lengths == {"a": 1.0}
        assert spectral.dilatation(g) == pytest.approx(2.0, abs=1e-12)

    def test_affine_property(self, corpus):
        for g in corpus[:30]:
            pf = spectral.pf_data(spectral.transition_matrix(g))
            metric = spectral.eigenmetric(g)
            for e in metric.pairs:
                img_len = sum(metric.lengths[f.rstrip("'")] for f in g.image(e))
                assert abs(img_len - pf.lam * metric.lengths[e]) < 1e-9

    def test_affine_check_scales_with_image_length(self):
        # the rotationless power's longest image has 49 700 letters; the
        # rounding of its summed length alone is above an absolute 1e-9
        g = power(defect_map(), 3)
        assert max(len(g.image(e)) for e in "abcd") == 49700
        metric = spectral.eigenmetric(g)
        assert metric.lengths["a"] > 0


@st.composite
def cycle_matrices(draw, sizes):
    """A cyclic permutation matrix plus a few random entries: irreducible,
    with lam = 1 exactly when nothing is added, and a large primitivity
    exponent when one chord is added."""
    n = draw(sizes)
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[(i + 1) % n][i] = 1
    for i, j, m in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                           st.integers(0, n - 1),
                                           st.integers(1, 2)), max_size=3)):
        mat[i][j] += m
    return mat


@st.composite
def block_cyclic_matrices(draw, n):
    """Arcs only from block i to block i + 1 (mod p): imprimitive when
    irreducible."""
    p = draw(st.integers(2, n))
    block = [i % p for i in range(n)]
    return [[draw(st.integers(0, 3)) if block[j] == (block[i] + 1) % p else 0
             for j in range(n)] for i in range(n)]


@st.composite
def integer_matrices(draw):
    """Nonnegative integer matrices, n = 2-10: dense random ones,
    block-cyclic ones and cycles with a few chords."""
    n = draw(st.integers(2, 10))
    return draw(st.one_of(
        st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        block_cyclic_matrices(n), cycle_matrices(st.just(n))))


def oracle_class(mat):
    m = np.array(mat) > 0
    n = len(mat)
    if not np.linalg.matrix_power(m | np.eye(n, dtype=bool), n - 1).all():
        return spectral.REDUCIBLE
    if np.linalg.matrix_power(m, (n - 1) ** 2 + 1).all():
        return spectral.PRIMITIVE
    return spectral.IMPRIMITIVE


class TestAgainstNumpy:
    @settings(max_examples=300, deadline=None)
    @given(integer_matrices())
    def test_class_and_eigenpair(self, mat):
        pairs = tuple(f"e{i}" for i in range(len(mat)))
        tm = spectral.TransitionMatrix(pairs, mat)
        cls = spectral.matrix_class(tm)
        assert cls == oracle_class(mat)
        if cls == spectral.REDUCIBLE:
            return
        values, vectors = np.linalg.eig(np.array(mat, dtype=float).T)
        top = int(np.argmax(values.real))
        x = vectors[:, top].real
        x = x / x.sum()
        pf = spectral.pf_data(tm)
        assert pf.lam == pytest.approx(values[top].real, rel=1e-9)
        assert [pf.edge_lengths[e] for e in pairs] == pytest.approx(
            x.tolist(), rel=1e-7, abs=1e-12)


def test_power_iteration_stops_on_a_float_two_cycle():
    # a 9-cycle with two chords, |lam2 / lam1| ~ 0.9984: the float iterate
    # settles into an exact 2-cycle whose points differ by more than the
    # stopping tolerance, a draw of TestAgainstNumpy
    n = 9
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        mat[(i + 1) % n][i] = 1
    mat[1][6] += 2
    mat[5][6] += 4
    tm = spectral.TransitionMatrix(tuple(f"e{i}" for i in range(n)), mat)
    values = np.linalg.eigvals(np.array(mat, dtype=float))
    assert spectral.pf_data(tm).lam == pytest.approx(max(values.real),
                                                     rel=1e-9)


@settings(max_examples=200, deadline=None)
@given(cycle_matrices(st.integers(1, 6)))
def test_exact_expanding_check_agrees_with_lam(mat):
    tm = spectral.TransitionMatrix(tuple(f"e{i}" for i in range(len(mat))), mat)
    assert spectral.matrix_class(tm) != spectral.REDUCIBLE
    assert spectral.is_expanding(tm) == (spectral.pf_data(tm).lam > 1)


def test_importing_the_cli_loads_no_numpy():
    src = os.path.dirname(os.path.dirname(spectral.__file__))
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, loneaxis.cli; assert 'numpy' not in sys.modules"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=120)
    assert done.returncode == 0, done.stderr
