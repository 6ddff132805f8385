import math

import numpy as np
import pytest

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


class TestTransitionMatrix:
    def test_fib(self):
        tm = spectral.transition_matrix(fib_map())
        assert tm.pairs == ("a", "b")
        assert tm.mat.tolist() == [[1, 1], [1, 0]]

    def test_identity_map(self):
        tm = spectral.transition_matrix(identity_map(2))
        assert tm.mat.tolist() == [[1, 0], [0, 1]]

    def test_cubic(self):
        tm = spectral.transition_matrix(cubic_map())
        assert tm.pairs == ("a", "b", "c")
        assert tm.mat.tolist() == [[0, 0, 1], [1, 0, 1], [0, 1, 0]]

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_powers_multiply(self, k):
        for g in (fib_map(), cubic_map()):
            m = spectral.transition_matrix(g).mat
            mk = spectral.transition_matrix(power(g, k)).mat
            assert (mk == np.linalg.matrix_power(m, k)).all()


class TestMatrixClass:
    def test_fib_primitive_by_direct_squaring(self):
        tm = spectral.transition_matrix(fib_map())
        assert (np.linalg.matrix_power(tm.mat, 2) > 0).all()
        assert spectral.matrix_class(tm) == spectral.PRIMITIVE

    def test_identity_reducible(self):
        tm = spectral.transition_matrix(identity_map(2))
        assert spectral.matrix_class(tm) == spectral.REDUCIBLE

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
        a = tm.mat.T.astype(float)
        x = np.array([pf.edge_lengths["a"], pf.edge_lengths["b"]])
        assert np.abs(a @ x - pf.lam * x).max() <= 1e-10

    def test_eigen_residual_invariant(self, corpus):
        for g in corpus[:30]:
            tm = spectral.transition_matrix(g)
            pf = spectral.pf_data(tm)
            x = np.array([pf.edge_lengths[e] for e in tm.pairs])
            assert (x > 0).all()
            assert abs(x.sum() - 1) < 1e-12
            assert np.abs(tm.mat.T @ x - pf.lam * x).max() <= 1e-10

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
