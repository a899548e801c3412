import numpy as np
import pytest

from limcon import (
    build_update_matrix,
    complete_symmetric,
    kernel_basis,
    mixed_norm_2_inf,
    spectral_report,
    subspace_family_independent,
    subspace_intersection,
    symmetric_cycle,
    synthesize_symmetric_weights,
)
from limcon.linalg import matrix_rank, singular_values

from conftest import random_subspace
from oracles import brute_force_independent, mixed_norm_2_inf_loop, subspaces_equal, symmetric_3x3_eigenvalues


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(np.eye(3)).shape == (3, 0)


def test_kernel_of_row_vector():
    k = kernel_basis(np.array([[1.0, 0.0]]))
    assert k.shape == (2, 1)
    assert np.allclose(np.abs(k[:, 0]), [0.0, 1.0])


def test_kernel_residual_and_orthonormality():
    rng = np.random.default_rng(0)
    for _ in range(25):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(rows, 6))
        a = rng.standard_normal((rows, cols))
        k = kernel_basis(a)
        assert k.shape[1] == cols - np.linalg.matrix_rank(a)
        if k.size:
            smax = np.linalg.norm(a, 2)
            assert np.abs(a @ k).max() <= 1e-10 * max(smax, 1.0)
            assert np.allclose(k.T @ k, np.eye(k.shape[1]), atol=1e-12)


def test_kernel_of_zero_rows_is_everything():
    assert np.array_equal(kernel_basis(np.zeros((0, 4))), np.eye(4))


@pytest.mark.parametrize("shape", [(0, 4), (2, 4), (4, 2), (3, 3), (3, 0), (0, 0)])
def test_empty_and_zero_matrices_take_the_svd_path(shape):
    # numpy's SVD answers these itself: Vh is the identity and every singular value is zero
    zero = np.zeros(shape)
    assert np.array_equal(kernel_basis(zero), np.eye(shape[1]))
    assert np.array_equal(singular_values(zero), np.zeros(min(shape)))
    assert matrix_rank(zero) == 0


def test_empty_subspaces_take_the_svd_path():
    empty, plane = np.zeros((4, 0)), np.eye(4)[:, :2]
    assert subspace_intersection(empty, plane).shape == (4, 0)
    assert subspace_intersection(empty, empty).shape == (4, 0)
    assert subspace_family_independent([empty, empty])
    assert subspace_family_independent([np.zeros((0, 0))])
    assert mixed_norm_2_inf(np.zeros((6, 6)), 2) == 0.0


def test_eigenvalues_identity_and_diag():
    assert np.allclose(spectral_report(np.eye(4), 1).eigenvalues, np.ones(4))
    assert np.allclose(spectral_report(np.diag([1.0, -0.5]), 1).eigenvalues, [-0.5, 1.0])


def test_eigenvalues_match_cubic_oracle():
    rng = np.random.default_rng(6)
    for _ in range(20):
        b = rng.standard_normal((3, 3))
        a = b @ b.T  # symmetric PSD
        assert np.allclose(spectral_report(a, 1).eigenvalues, symmetric_3x3_eigenvalues(a), atol=1e-9)


def test_eigenvalues_of_symmetric_are_real():
    rng = np.random.default_rng(7)
    b = rng.standard_normal((5, 5))
    lam = spectral_report(b + b.T, 1).eigenvalues
    assert np.abs(np.imag(lam)).max() <= 1e-10


def test_independent_coordinate_axes():
    e = np.eye(3)
    axes = [e[:, [0]], e[:, [1]], e[:, [2]]]
    assert subspace_family_independent(axes)


def test_repeated_subspace_not_independent():
    e = np.eye(3)
    assert not subspace_family_independent([e[:, [0]], e[:, [0]]])


def test_more_than_n_nonzero_subspaces_never_independent():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        fam = [random_subspace(rng, n, 1) for _ in range(n + 1)]
        assert not subspace_family_independent(fam)


def test_independence_matches_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        fam = [random_subspace(rng, n, int(rng.integers(0, n))) for _ in range(int(rng.integers(1, 5)))]
        assert subspace_family_independent(fam) == brute_force_independent(fam)


def test_trivial_subspaces_never_break_independence():
    e = np.eye(3)
    fam = [e[:, [0]], np.zeros((3, 0)), e[:, [1]]]
    assert subspace_family_independent(fam)


def test_subspace_intersection():
    e = np.eye(3)
    xy = e[:, [0, 1]]
    yz = e[:, [1, 2]]
    inter = subspace_intersection(xy, yz)
    assert inter.shape == (3, 1)
    assert subspaces_equal(inter, e[:, [1]])
    assert subspace_intersection(e[:, [0]], e[:, [1]]).shape == (3, 0)


def test_subspace_intersection_of_rotated_copies_is_whole_span():
    # every residual I - QQ' is pure roundoff here; the intersection is all of Q
    q = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))[0]
    inter = subspace_intersection(q, q)
    assert inter.shape == (3, 3)
    assert subspaces_equal(inter, np.eye(3))
    rng = np.random.default_rng(13)
    for n, dim in ((3, 2), (5, 3), (6, 6)):
        basis = random_subspace(rng, n, dim)
        rotated = basis @ np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        inter = subspace_intersection(basis, rotated)
        assert inter.shape == (n, dim)
        assert np.allclose(inter.T @ inter, np.eye(dim), atol=1e-12)
        assert subspaces_equal(inter, basis)


def test_subspace_intersection_of_random_planes_in_space():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a, b = random_subspace(rng, 3, 2), random_subspace(rng, 3, 2)
        line = subspace_intersection(a, b)
        assert line.shape == (3, 1)
        assert subspaces_equal(a @ (a.T @ line), line) and subspaces_equal(b @ (b.T @ line), line)
        assert subspace_intersection(a, random_subspace(rng, 3, 1)).shape == (3, 0)


def test_subspace_intersection_finds_planted_intersections():
    rng = np.random.default_rng(16)
    for n, common, extra_a, extra_b in ((3, 1, 1, 1), (6, 2, 0, 3), (8, 0, 3, 4), (5, 3, 0, 0), (7, 2, 4, 1)):
        q = random_subspace(rng, n, common + extra_a + extra_b)
        a = q[:, : common + extra_a] @ np.linalg.qr(rng.standard_normal((common + extra_a,) * 2))[0]
        b = np.hstack([q[:, :common], q[:, common + extra_a :]])
        b = b @ np.linalg.qr(rng.standard_normal((b.shape[1],) * 2))[0]
        for x, y in ((a, b), (b, a)):
            inter = subspace_intersection(x, y)
            assert inter.shape == (n, common)
            assert subspaces_equal(inter, q[:, :common])
    assert subspace_intersection(np.eye(4)[:, :2], np.zeros((4, 0))).shape == (4, 0)
    with pytest.raises(ValueError):
        subspace_intersection(np.eye(3), np.eye(4))


def test_subspaces_equal_is_basis_free():
    rng = np.random.default_rng(10)
    basis = random_subspace(rng, 4, 2)
    rot = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    assert subspaces_equal(basis, basis @ rot)
    assert not subspaces_equal(basis, random_subspace(rng, 4, 2))


def test_mixed_norm_identity():
    assert mixed_norm_2_inf(np.eye(6), 2) == pytest.approx(1.0)
    assert mixed_norm_2_inf(np.eye(6), 3) == pytest.approx(1.0)


def test_mixed_norm_submultiplicative():
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = rng.standard_normal((6, 6))
        r = rng.standard_normal((6, 6))
        assert mixed_norm_2_inf(q @ r, 2) <= mixed_norm_2_inf(q, 2) * mixed_norm_2_inf(r, 2) + 1e-12


def test_mixed_norm_bounds_spectral_radius():
    rng = np.random.default_rng(12)
    for _ in range(20):
        q = rng.standard_normal((6, 6))
        assert np.abs(np.linalg.eigvals(q)).max() <= mixed_norm_2_inf(q, 3) + 1e-12


def test_mixed_norm_matches_blockwise_loop():
    rng = np.random.default_rng(15)
    for m, block in ((1, 1), (7, 1), (1, 5), (4, 2), (5, 3), (3, 4)):
        for _ in range(5):
            q = rng.standard_normal((m * block, m * block))
            assert mixed_norm_2_inf(q, block) == mixed_norm_2_inf_loop(q, block)
            # block-sparse: zero blocks under a random mask, all of them included
            for density in (0.0, 0.3, 0.7):
                mask = np.kron(rng.random((m, m)) < density, np.ones((block, block)))
                assert mixed_norm_2_inf(q * mask, block) == mixed_norm_2_inf_loop(q * mask, block)
    for g, n in ((symmetric_cycle(12), 3), (complete_symmetric(5), 2)):
        w = synthesize_symmetric_weights(g, n)
        for algorithm in ("fixed_step", "metropolis_tv"):
            q = build_update_matrix(algorithm, w)
            assert mixed_norm_2_inf(q, n) == mixed_norm_2_inf_loop(q, n)


def test_mixed_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        mixed_norm_2_inf(np.eye(6), 4)
    with pytest.raises(ValueError):
        mixed_norm_2_inf(np.ones((2, 3)), 1)


def test_rank_helpers():
    assert matrix_rank(np.zeros((3, 3))) == 0
    assert matrix_rank(np.eye(3)) == 3


@pytest.mark.parametrize("shape", [(40, 6), (6, 6), (3, 8)], ids=["tall", "square", "wide"])
def test_kernel_basis_spans_the_full_svd_kernel(shape):
    rng = np.random.default_rng(13)
    rows, cols = shape
    for rank in range(min(shape) + 1):
        a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        _, s, vh = np.linalg.svd(a)  # full U and Vh
        expected = vh[int(np.sum(s > 1e-10 * s[0])) :].T if s[0] > 0 else np.eye(cols)
        assert subspaces_equal(kernel_basis(a), expected)


def test_kernel_basis_of_a_tall_matrix_forms_no_square_u():
    import tracemalloc

    a = np.random.default_rng(17).standard_normal((3000, 4))
    tracemalloc.start()
    try:
        k = kernel_basis(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k.shape == (4, 0)
    assert peak < 2 * a.nbytes  # a 3000 x 3000 U alone would be 750 times a
