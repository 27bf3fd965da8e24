import inspect
import math

import mpmath
import numpy as np
import pytest

from loewner_lab import ball_geometry as bg
from loewner_lab import carath
from loewner_lab import disc_functions as df
from loewner_lab.errors import DegenerateFunctionalError, DomainError

DOMAINS = [bg.euclidean(2), bg.euclidean(3), bg.polydisc(2), bg.polydisc(3), bg.spectral2()]


def to_matrices(z):
    """Spectral-ball coordinates -> stacked 2x2 matrices [[z1, z3], [z4, z2]]."""
    z = np.asarray(z, dtype=complex)
    m = np.empty(z.shape[:-1] + (2, 2), dtype=complex)
    m[..., 0, 0] = z[..., 0]
    m[..., 1, 1] = z[..., 1]
    m[..., 0, 1] = z[..., 2]
    m[..., 1, 0] = z[..., 3]
    return m


def from_matrices(m):
    """Stacked 2x2 matrices [[z1, z3], [z4, z2]] -> spectral-ball coordinates."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m[..., 0, 0], m[..., 1, 1], m[..., 0, 1], m[..., 1, 0]], axis=-1)


def spectral_norm_oracle(z, rng, starts=1000, iters=120):
    """Variational characterization: maximize |u^H Z v| over unit pairs,
    refined by power iteration.  Uses only matrix-vector products."""
    m = to_matrices(z)
    best, best_pair = -1.0, None
    for _ in range(starts):
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        val = abs(np.conj(u) @ m @ v)
        if val > best:
            best, best_pair = val, (u, v)
    u, v = best_pair
    for _ in range(iters):
        u = m @ v
        u /= np.linalg.norm(u)
        v = np.conj(m).T @ u
        v /= np.linalg.norm(v)
    return abs(np.conj(u) @ m @ v)


# ---------------------------------------------------------------------------
# structure


def test_rank_frame_shear_factor():
    assert bg.euclidean(5).rank == 1
    assert bg.euclidean(5).frame_coords == ()
    assert bg.polydisc(3).rank == 3
    assert bg.polydisc(3).frame_coords == (1, 2, 3)
    assert bg.spectral2().rank == 2
    assert bg.spectral2().frame_coords == (1, 2)
    assert bg.polydisc(2).shear_factor == 1.0
    assert bg.spectral2().shear_factor == 1.0
    assert bg.euclidean(2).shear_factor == pytest.approx(3.0 * np.sqrt(3.0) / 2.0, abs=0)


def test_invalid_geometries():
    with pytest.raises(DomainError):
        bg.BallGeometry("euclidean", 0)
    with pytest.raises(DomainError):
        bg.BallGeometry("polydisc", 1)
    with pytest.raises(DomainError):
        bg.BallGeometry("spectral2", 3)
    with pytest.raises(DomainError):
        bg.BallGeometry("hyperbolic", 2)


# ---------------------------------------------------------------------------
# norms


def test_norm_examples():
    assert bg.norm(bg.euclidean(2), np.array([0.6, 0.8])) == pytest.approx(1.0, abs=1e-15)
    assert bg.norm(bg.polydisc(2), np.array([0.5, 0.9j])) == pytest.approx(0.9, abs=1e-15)
    z = np.array([0.5, 0.8, 0.0, 0.0], dtype=complex)
    assert bg.norm(bg.spectral2(), z) == pytest.approx(0.8, abs=1e-14)


def test_norm_dimension_mismatch():
    with pytest.raises(DomainError):
        bg.norm(bg.polydisc(2), np.array([0.1, 0.2, 0.3]))


def test_norm_axioms():
    rng = np.random.default_rng(0)
    for dom in DOMAINS:
        x = rng.standard_normal((10000, dom.n)) + 1j * rng.standard_normal((10000, dom.n))
        y = rng.standard_normal((10000, dom.n)) + 1j * rng.standard_normal((10000, dom.n))
        nx, ny, nxy = bg.norm(dom, x), bg.norm(dom, y), bg.norm(dom, x + y)
        assert np.all(nxy <= nx + ny + 1e-12 * (nx + ny))
        lam = rng.standard_normal(10000) + 1j * rng.standard_normal(10000)
        scaled = bg.norm(dom, lam[:, None] * x)
        assert np.allclose(scaled, np.abs(lam) * nx, rtol=1e-12, atol=1e-12)


def test_spectral_norm_against_variational_oracle():
    rng = np.random.default_rng(1)
    dom = bg.spectral2()
    for _ in range(5):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert bg.norm(dom, z) == pytest.approx(spectral_norm_oracle(z, rng), abs=1e-9)


def test_spectral_norm_keeps_its_digits_when_singular_values_agree():
    # the frame tori (|z1| = |z2|) and matrices with singular values 1 and
    # 1 - 1e-6: a closed form through e^2 - 4|det|^2 was off by 1.5e-8 there
    dom = bg.spectral2()
    torus = carath.certification_points(dom, 0, np.random.default_rng(0))
    assert np.max(np.abs(bg.norm(dom, torus) - np.abs(torus[:, :2]).max(axis=1))) <= 1e-15
    rng = np.random.default_rng(5)
    u, _, vh = np.linalg.svd(rng.standard_normal((2000, 2, 2))
                             + 1j * rng.standard_normal((2000, 2, 2)))
    m = u @ (np.array([1.0, 1.0 - 1e-6])[:, None] * vh)
    z = from_matrices(m)
    svd = np.linalg.svd(m, compute_uv=False)[:, 0]
    assert np.max(np.abs(bg.norm(dom, z) - svd)) <= 1e-15


def test_frame_coordinate_bound():
    rng = np.random.default_rng(2)
    for dom in DOMAINS:
        z = rng.standard_normal((2000, dom.n)) + 1j * rng.standard_normal((2000, dom.n))
        norms = np.asarray(bg.norm(dom, z))
        for k in dom.frame_coords:
            assert np.all(np.abs(z[:, k - 1]) <= norms + 1e-12)


# ---------------------------------------------------------------------------
# support functionals


def test_polydisc_single_max_coordinate():
    dom = bg.polydisc(2)
    L, owner = bg.support_functionals(dom, np.array([[0.9, 0.3]], dtype=complex))
    assert L.shape == (1, 2) and owner.tolist() == [0]
    w = np.array([1.0 + 2.0j, -5.0], dtype=complex)
    assert L[0] @ w == pytest.approx(w[0])


def test_euclidean_inner_product_functional():
    dom = bg.euclidean(2)
    e1 = np.array([[1.0, 0.0]], dtype=complex)
    L, owner = bg.support_functionals(dom, e1)
    assert L.shape == (1, 2) and owner.tolist() == [0]
    w = np.array([0.3 + 0.1j, 9.0], dtype=complex)
    assert L[0] @ w == pytest.approx(w[0])


def test_spectral_diagonal_functional():
    dom = bg.spectral2()
    z = np.array([[0.2, 0.7, 0.0, 0.0]], dtype=complex)
    L, owner = bg.support_functionals(dom, z)
    assert L.shape == (1, 4) and owner.tolist() == [0]
    w = np.array([1.0, 2.0 - 1.0j, 3.0, 4.0], dtype=complex)
    assert L[0] @ w == pytest.approx(w[1])


def unitaries(rng, count):
    draws = rng.standard_normal((count, 2, 2)) + 1j * rng.standard_normal((count, 2, 2))
    return np.linalg.qr(draws)[0]


def tie_points(dom, rng, count):
    """Points at or near a tie of the norm: polydisc points with two
    coordinates of equal modulus; on the spectral ball, diagonal points with
    equal diagonal moduli and non-diagonal points whose singular values are
    1 and 1 - 1e-6; none for the Euclidean ball."""
    if dom.kind == bg.POLYDISC:
        return edge_points(dom, rng, count)
    if dom.kind == bg.SPECTRAL2:
        phases = np.exp(2j * np.pi * rng.random((count, 2)))
        near = unitaries(rng, count) @ np.diag([1.0, 1.0 - 1e-6]) @ unitaries(rng, count)
        return np.vstack([np.hstack([phases, np.zeros((count, 2))]), from_matrices(near)])
    return np.empty((0, dom.n), dtype=complex)


def test_functional_contracts_on_random_points():
    rng = np.random.default_rng(3)
    for dom in DOMAINS:
        Z = np.vstack([bg.sample_sphere(dom, rng, 40), tie_points(dom, rng, 5)])
        Z *= rng.uniform(0.1, 0.99, len(Z))[:, None]
        L, owner = bg.support_functionals(dom, Z)
        assert np.array_equal(np.unique(owner), np.arange(len(Z)))
        # the SVD, independent of the closed form of bg.norm
        if dom.kind == bg.SPECTRAL2:
            nz = np.linalg.svd(to_matrices(Z), compute_uv=False)[owner, 0]
        else:
            nz = np.asarray(bg.norm(dom, Z))[owner]
        assert np.max(np.abs(np.einsum("kn,kn->k", L, Z[owner]) - nz)) <= 1e-12
        w = rng.standard_normal((1000, dom.n)) + 1j * rng.standard_normal((1000, dom.n))
        nw = np.asarray(bg.norm(dom, w))
        assert np.all(np.abs(w @ L.T) <= nw[:, None] * (1.0 + 1e-12))


def test_spectral_degenerate_cases():
    dom = bg.spectral2()
    # diagonal with equal moduli: both coordinate functionals
    z = np.array([[0.5, 0.5j, 0.0, 0.0]], dtype=complex)
    L, owner = bg.support_functionals(dom, z)
    assert owner.tolist() == [0, 0]
    assert np.array_equal(np.abs(L), np.array([[1, 0, 0, 0], [0, 1, 0, 0]]))
    # antidiagonal permutation matrix: degenerate but not diagonal; the gap
    # test comes before any division by it (a 0/0 would raise here)
    z = np.array([[0.0, 0.0, 1.0, 1.0]], dtype=complex)
    with np.errstate(all="raise"), pytest.raises(DegenerateFunctionalError):
        bg.support_functionals(dom, z)


def test_spectral_rows_round_a_point_as_in_a_batch():
    # the closed-form top pair uses real products only: a point alone gives
    # the functional row and the norm it gets inside a batch, bit for bit
    dom = bg.spectral2()
    rng = np.random.default_rng(43)
    Z = bg.sample_sphere(dom, rng, 5000) * rng.uniform(0.1, 0.99, 5000)[:, None]
    L, owner = bg.support_functionals(dom, Z)
    norms = bg._attaining(dom, Z)[1]
    assert np.array_equal(owner, np.arange(len(Z)))
    for k in range(0, len(Z), 53):
        L1, _ = bg.support_functionals(dom, Z[k:k + 1])
        norm1 = bg._attaining(dom, Z[k:k + 1])[1]
        assert_bits_equal(L1[0], L[k])
        assert norm1[0] == norms[k] == bg.norm(dom, Z[k])


def test_spectral_support_values_take_one_gram_evaluation(monkeypatch):
    # the norms and the top pairs share one row Gram evaluation, of the rows
    # that are not frame-diagonal (the tie points take their moduli alone)
    dom = bg.spectral2()
    rng = np.random.default_rng(59)
    Z = np.vstack([bg.sample_sphere(dom, rng, 200), tie_points(dom, rng, 5)[:5]])
    calls = []
    gram = bg._row_gram
    monkeypatch.setattr(bg, "_row_gram", lambda z: calls.append(len(z)) or gram(z))
    values, _ = bg.support_values(dom, Z, Z)
    assert calls == [200]
    assert np.allclose(values, 1.0, rtol=0, atol=1e-12) and len(values) == len(Z) + 5
    # a whole certification: one Gram per sphere block in the draw (which
    # normalizes it) and one per block in support_values, of its rows that
    # are not frame-diagonal (none on the frame torus, which a map with an
    # array form takes at radius 0.999 alone, in blocks of 700 rows too)
    calls.clear()
    monkeypatch.setattr(carath, "CERTIFY_BLOCK", 700)
    g = df.strongly_starlike(0.5)
    cert = carath.certify_Mg(carath.canonical_field(g, dom, 1, 2, 1), g, dom, 2000,
                             rng=np.random.default_rng(61))
    assert cert.passed
    torus_blocks = -(-carath.TORUS_PHASES ** 2 // 700)
    assert calls == [700, 700, 700, 700, 600, 600] + [0] * torus_blocks


@pytest.mark.parametrize("gap", [1e-2, 1e-6, 1e-9, 0.0])
def test_spectral_gap_against_a_50_digit_reference(gap):
    # disc / (s1 + s2) takes no difference of nearby numbers: the gap of the
    # drawn rows, which the degenerate guard reads, keeps its absolute
    # accuracy down to exact ties, closer than LAPACK's s1 - s2
    rng = np.random.default_rng(53)
    m = unitaries(rng, 30) @ np.diag([1.0, 1.0 - gap]) @ unitaries(rng, 30)
    with mpmath.workdps(50):
        exact = np.array([float(abs(s[0] - s[1])) for s in
                          (mpmath.svd_c(mpmath.matrix(mm.tolist()), compute_uv=False) for mm in m)])
    Z = bg._unit_rows(bg.spectral2(), np.stack([m.real, m.imag], axis=1))
    assert_bits_equal(Z, from_matrices(m) / bg.norm(bg.spectral2(), from_matrices(m))[:, None])
    gram = bg._row_gram(Z)
    drawn = bg._singular_gap(Z, bg._top_singular(gram), gram[4])
    error = np.max(np.abs(drawn - exact))
    lapack = np.linalg.svd(m, compute_uv=False)
    assert error <= 2e-16
    assert error <= np.max(np.abs(lapack[:, 0] - lapack[:, 1] - exact))


def test_spectral_top_pair_branches_meet_at_equal_row_norms():
    # u1 is (lambda_1 - q, conj(r)) when p >= q and (r, lambda_1 - p) when
    # p < q; with d = conj(c) and b = conj(a) the row norms p and q agree
    # bit for bit, and scaling the first row by 1 -+ 1e-9 crosses over
    dom = bg.spectral2()
    rng = np.random.default_rng(47)
    a, c = (rng.standard_normal(20) + 1j * rng.standard_normal(20) for _ in range(2))
    rows = {}
    for label, scale in (("below", 1.0 - 1e-9), ("equal", 1.0), ("above", 1.0 + 1e-9)):
        Z = np.stack([scale * a, np.conj(a), scale * c, np.conj(c)], axis=-1)
        p, q, _, _, _ = bg._row_gram(Z)
        assert np.all({"below": p < q, "equal": p == q, "above": p > q}[label])
        L, _ = bg.support_functionals(dom, Z)
        u, _, vh = np.linalg.svd(to_matrices(Z))
        lapack = np.conj(u[:, [0, 1, 0, 1], 0]) * np.conj(vh[:, 0, [0, 1, 1, 0]])
        assert np.max(np.abs(L - lapack)) <= 1e-13
        rows[label] = L
    assert np.max(np.abs(rows["below"] - rows["equal"])) <= 1e-8
    assert np.max(np.abs(rows["above"] - rows["equal"])) <= 1e-8


def test_support_functionals_reject_a_point_and_a_zero_row():
    for dom in DOMAINS:
        z = np.full(dom.n, 0.1, dtype=complex)
        with pytest.raises(DomainError):
            bg.support_functionals(dom, z)
        with pytest.raises(DomainError, match="undefined at z = 0"):
            bg.support_functionals(dom, np.stack([z, np.zeros(dom.n)]))
        with pytest.raises(DomainError, match="undefined at z = 0"):
            bg.support_values(dom, np.zeros((1, dom.n)), np.ones((1, dom.n)))
    # a zero diagonal beside an off-diagonal entry of 1e-15 is a nonzero
    # point of norm 1e-15, not z = 0: it gets its value
    Z = np.array([[0.5, 0.1, 0.0, 0.2], [0.0, 0.0, 1e-15, 0.0]], dtype=complex)
    values, owner = bg.support_values(bg.spectral2(), Z, Z)
    assert owner.tolist() == [0, 1] and np.allclose(values, 1.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("dom,z", [
    (bg.polydisc(2), [1e-13, 0.0]),
    (bg.spectral2(), [1e-13, 0.0, 0.0, 0.0]),
    (bg.spectral2(), [1e-13, 0.0, 5e-15, 0.0]),
    (bg.spectral2(), [3e-11, 0.0, 1e-11, 0.0]),  # rank 1
], ids=["polydisc-1e-13", "spectral-diagonal-1e-13", "spectral-off-diagonal-5e-15",
        "spectral-rank-1"])
def test_ties_are_judged_relative_to_the_norm(dom, z):
    # a point of small norm gets the rows the same point gets at unit scale:
    # no coordinate whose modulus is 0 ties with the norm (its phase would
    # be 0/0), and a rank-1 matrix is no degenerate point at any scale
    z = np.array([z], dtype=complex)
    scale = 1.0 / bg.norm(dom, z[0])
    values, owner = bg.support_values(dom, z, z)
    assert owner.tolist() == [0] and np.all(np.isfinite(values))
    assert abs(values[0] - 1.0) <= 1e-15
    L, owner = bg.support_functionals(dom, z)
    unit, _ = bg.support_functionals(dom, z * scale)
    assert owner.tolist() == [0] and np.allclose(L, unit, rtol=0, atol=1e-15)
    assert abs(L[0] @ z[0] - bg.norm(dom, z[0])) <= 1e-15 * bg.norm(dom, z[0])


def reference_support_values(dom, Z, H):
    """Support values written geometry by geometry, independently of the
    functional rows: Euclidean <h, z>/||z||^2; polydisc conj(z_k) h_k/||z||^2
    per attaining coordinate k, grouped by coordinate; spectral ball
    conj(z_k) h_k/|z_k|^2 per attaining coordinate of a diagonal point (its
    norm is the larger diagonal modulus), then u1^H H v1 / s1 from the SVD of
    the others.  Returns (values, owner) in that row order."""
    norms = np.asarray(bg.norm(dom, Z))
    if dom.kind == bg.EUCLIDEAN:
        return np.sum(H * np.conj(Z), axis=-1) / norms**2, np.arange(len(Z))
    values, owner = [], []
    absz = np.abs(Z)
    if dom.kind == bg.POLYDISC:
        for k in range(dom.n):
            mask = absz[:, k] >= norms - 1e-12
            values.append(np.conj(Z[mask, k]) * H[mask, k] / norms[mask] ** 2)
            owner.append(np.nonzero(mask)[0])
        return np.concatenate(values), np.concatenate(owner)
    diagonal = (absz[:, 2] < 1e-14) & (absz[:, 3] < 1e-14)
    top = np.maximum(absz[:, 0], absz[:, 1])
    for k in (0, 1):
        mask = diagonal & (absz[:, k] >= top - 1e-10)
        values.append(np.conj(Z[mask, k]) * H[mask, k] / absz[mask, k] ** 2)
        owner.append(np.nonzero(mask)[0])
    idx = np.nonzero(~diagonal)[0]
    u, s, vh = np.linalg.svd(to_matrices(Z[idx]))
    hv = np.einsum("mij,mj->mi", to_matrices(H[idx]), np.conj(vh[:, 0, :]))
    values.append(np.einsum("mi,mi->m", np.conj(u[:, :, 0]), hv) / s[:, 0])
    owner.append(idx)
    return np.concatenate(values), np.concatenate(owner)


def exact_top_value(z, h):
    """u1^H H v1 / s1 of the matrices of z and h from a 50-digit SVD."""
    with mpmath.workdps(50):
        u, s, vh = mpmath.svd_c(mpmath.matrix(to_matrices(z).tolist()))
        k = 0 if s[0] >= s[1] else 1
        value = (u[:, k].H * mpmath.matrix(to_matrices(h).tolist()) * vh[k, :].H)[0] / s[k]
        return complex(value)


def test_support_values_match_reference_formulas():
    # near-degenerate spectral rows (singular values 1 and 1 - 1e-6) lose
    # digits in any double-precision method: there the closed form must be
    # at least as close as LAPACK to a 50-digit reference
    rng = np.random.default_rng(4)
    for dom in DOMAINS:
        Z = np.vstack([bg.sample_sphere(dom, rng, 50), tie_points(dom, rng, 10)])
        near = np.zeros(len(Z), dtype=bool)
        if dom.kind == bg.SPECTRAL2:
            near[-10:] = True
        Z *= rng.uniform(0.2, 0.99, len(Z))[:, None]
        perm = rng.permutation(len(Z))
        Z, near = Z[perm], near[perm]
        H = rng.standard_normal(Z.shape) + 1j * rng.standard_normal(Z.shape)
        vals, owner = bg.support_values(dom, Z, H)
        ref_vals, ref_owner = reference_support_values(dom, Z, H)
        assert np.array_equal(owner, ref_owner)
        close = near[owner]
        assert np.max(np.abs(vals - ref_vals)[~close]) < 1e-12
        if close.any():
            exact = np.array([exact_top_value(Z[k], H[k]) for k in owner[close]])
            error = np.max(np.abs(vals[close] - exact))
            assert error <= np.max(np.abs(ref_vals[close] - exact))
            assert error < 1e-8


# ---------------------------------------------------------------------------
# samplers


def test_sphere_samples_have_unit_norm():
    rng = np.random.default_rng(5)
    for dom in DOMAINS:
        for _ in range(200):
            z = bg.sample_sphere(dom, rng, 1)[0]
            assert abs(bg.norm(dom, z) - 1.0) < 1e-12


def test_sampler_determinism():
    for dom in DOMAINS:
        a = [bg.sample_sphere(dom, np.random.default_rng(99), 1)[0] for _ in range(5)]
        b = [bg.sample_sphere(dom, np.random.default_rng(99), 1)[0] for _ in range(5)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


def test_polydisc_sampler_unique_max():
    dom = bg.polydisc(3)
    rng = np.random.default_rng(6)
    for _ in range(10000):
        z = bg.sample_sphere(dom, rng, 1)[0]
        assert np.count_nonzero(np.abs(z) > 0.9995) == 1


# the sampler contract: the same seed gives the same batch.  Euclidean and
# spectral batches draw their normals in one block, so they equal one-point
# batches drawn in a loop bit for bit; a polydisc batch draws all its indices
# first, then one block of doubles.


def reference_point(dom, rng):
    """A one-point sphere batch written call by call, as its one row."""
    if dom.kind == bg.EUCLIDEAN:
        v = rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)
        return v / np.linalg.norm(v)
    if dom.kind == bg.POLYDISC:
        return reference_polydisc(dom.n, rng, 1, 1)[0]
    return reference_spectral_unit(
        from_matrices(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))))


def reference_polydisc(n, rng, count, on_circle):
    """Polydisc points built row by row from the declared draws: the index
    of every point (for edges, then a shift on [1, n - 1] to the second
    index), then a (count, 2n + on_circle) block of doubles holding n radii,
    n phases and the unit-circle phases."""
    first = rng.integers(n, size=count)
    index = [first] if on_circle == 1 else [first, (first + rng.integers(1, n, size=count)) % n]
    u = rng.random((count, 2 * n + on_circle))
    out = np.empty((count, n), dtype=complex)
    for row, d in enumerate(u):
        out[row] = 0.999 * np.sqrt(d[:n]) * np.exp(2j * np.pi * d[n:2 * n])
        for c, k in enumerate(index):
            out[row, k[row]] = np.exp(2j * np.pi * d[2 * n + c])
    return out


def reference_spectral_unit(z):
    """z over its top singular value, from the Gram matrix [[p, r], [r*, q]]
    of the rows of [[z1, z3], [z4, z2]], in real products and sums."""
    x, y = z.real, z.imag
    sq = x * x + y * y
    p, q = sq[0] + sq[2], sq[3] + sq[1]
    re = x[0] * x[3] + y[0] * y[3] + x[2] * x[1] + y[2] * y[1]
    im = y[0] * x[3] - x[0] * y[3] + y[2] * x[1] - x[2] * y[1]
    disc = np.sqrt((p - q) * (p - q) + 4.0 * (re * re + im * im))
    return z / np.sqrt(0.5 * (p + q + disc))


def reference_batch(dom, rng, count):
    if dom.kind == bg.POLYDISC:
        return reference_polydisc(dom.n, rng, count, 1)
    return np.array([reference_point(dom, rng) for _ in range(count)],
                    dtype=complex).reshape(count, dom.n)


def twin_generators(seed, cached_half, bit_generator=np.random.PCG64):
    """Two generators in one state; with ``cached_half`` PCG64 holds the
    unused 32-bit half of its last word."""
    pair = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    if cached_half:
        for rng in pair:
            rng.integers(3)
    return pair


def _plain(state):
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def assert_same_stream(ref_rng, rng):
    assert _plain(ref_rng.bit_generator.state) == _plain(rng.bit_generator.state)
    assert np.array_equal(ref_rng.random(3), rng.random(3))
    assert np.array_equal(ref_rng.integers(5, size=3), rng.integers(5, size=3))


def assert_bits_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(float), b.view(float))


@pytest.mark.parametrize("dom", DOMAINS + [bg.euclidean(1), bg.polydisc(5)],
                         ids=lambda d: f"{d.kind}{d.n}")
@pytest.mark.parametrize("cached_half", [False, True])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 4097])
def test_sphere_batch_matches_point_loop(dom, cached_half, count):
    ref_rng, rng = twin_generators(1000 + count, cached_half)
    assert_bits_equal(reference_batch(dom, ref_rng, count), bg.sample_sphere(dom, rng, count))
    assert_same_stream(ref_rng, rng)


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: f"{d.kind}{d.n}")
def test_single_point_form_is_one_row(dom):
    ref_rng, rng = twin_generators(17, cached_half=True)
    for _ in range(3):
        assert_bits_equal(reference_point(dom, ref_rng), bg.sample_sphere(dom, rng, 1)[0])
    assert_same_stream(ref_rng, rng)


def test_spectral_norm_rounds_a_point_as_in_a_batch():
    # complex products round differently in a batch than on one point, so
    # the norm uses real products only: every row of a large batch, alone,
    # gives the same bits, and the sampler divides by exactly those norms
    dom = bg.spectral2()
    draws = np.random.default_rng(37).standard_normal((100_000, 2, 2, 2))
    batch = bg.sample_sphere(dom, np.random.default_rng(37), 100_000)
    z = from_matrices(draws[:, 0] + 1j * draws[:, 1])
    norms = bg.norm(dom, z)
    assert_bits_equal(z / norms[:, None], batch)
    for k in range(0, 100_000, 97):
        assert bg.norm(dom, z[k]) == norms[k]
        assert_bits_equal(reference_spectral_unit(z[k]), batch[k])


def test_polydisc_batch_on_other_bit_generators():
    # every bit generator takes the same native path
    dom = bg.polydisc(3)
    ref_rng, rng = twin_generators(23, cached_half=True, bit_generator=np.random.MT19937)
    assert_bits_equal(reference_batch(dom, ref_rng, 50), bg.sample_sphere(dom, rng, 50))
    assert_same_stream(ref_rng, rng)


def edge_points(dom, rng, count):
    """``count`` polydisc edge points, taken in one block."""
    return np.concatenate([np.empty((0, dom.n), dtype=complex),
                           *bg.polydisc_edge_blocks(dom, rng, count, max(count, 1))])


def test_polydisc_edge_sampler():
    dom = bg.polydisc(3)
    rng = np.random.default_rng(7)
    z = edge_points(dom, rng, 100)
    assert z.shape == (100, 3)
    assert np.all(np.count_nonzero(np.abs(np.abs(z) - 1.0) < 1e-14, axis=1) == 2)
    with pytest.raises(DomainError):
        bg.polydisc_edge_blocks(bg.euclidean(2), rng, 1, 1)


EDGE_DOMAINS = [bg.polydisc(2), bg.polydisc(3), bg.polydisc(5)]


@pytest.mark.parametrize("dom", EDGE_DOMAINS, ids=lambda d: f"{d.kind}{d.n}")
@pytest.mark.parametrize("cached_half", [False, True])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 1001])
def test_edge_batch_matches_point_loop(dom, cached_half, count):
    ref_rng, rng = twin_generators(2000 + count, cached_half)
    assert_bits_equal(reference_polydisc(dom.n, ref_rng, count, 2),
                      edge_points(dom, rng, count))
    assert_same_stream(ref_rng, rng)


def test_edge_batch_on_other_bit_generators():
    dom = bg.polydisc(3)
    ref_rng, rng = twin_generators(23, cached_half=True, bit_generator=np.random.MT19937)
    assert_bits_equal(reference_polydisc(dom.n, ref_rng, 50, 2), edge_points(dom, rng, 50))
    assert_same_stream(ref_rng, rng)


POLYDISC_SAMPLERS = {"sphere": (bg.sample_sphere, 1), "edge": (edge_points, 2)}


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("sampler", sorted(POLYDISC_SAMPLERS))
@pytest.mark.parametrize("count", [0, 1, 2, 4097])
def test_polydisc_samplers_repeat_under_a_seed(n, sampler, count):
    sample, _ = POLYDISC_SAMPLERS[sampler]
    dom = bg.polydisc(n)
    a = sample(dom, np.random.default_rng(61), count)
    assert a.shape == (count, n)
    assert_bits_equal(a, sample(dom, np.random.default_rng(61), count))


#: chi-square 0.1% critical values by degrees of freedom
CHI2_999 = {1: 10.828, 2: 13.816, 4: 18.467, 9: 27.877}


def chi_square(observed):
    expected = observed.sum() / observed.size
    return float(np.sum((observed - expected) ** 2) / expected)


def ks_uniform(x):
    """Kolmogorov-Smirnov distance of a sample from the uniform law on [0, 1]."""
    x = np.sort(x)
    k = np.arange(1, x.size + 1)
    return max(np.max(k / x.size - x), np.max(x - (k - 1) / x.size))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("sampler", sorted(POLYDISC_SAMPLERS))
def test_polydisc_samplers_are_uniform(n, sampler):
    # exactly on_circle coordinates of modulus 1, drawn uniformly among the
    # coordinates (the points do not show the order of an edge pair, so the
    # pair is counted unordered); phases uniform on the circle, the other
    # squared moduli uniform on [0, 0.999^2]
    sample, on_circle = POLYDISC_SAMPLERS[sampler]
    N = 20_000
    z = sample(bg.polydisc(n), np.random.default_rng(67 + n), N)
    circle = np.abs(np.abs(z) - 1.0) < 1e-14
    assert np.all(circle.sum(axis=1) == on_circle)
    assert np.all(np.abs(z[~circle]) <= 0.999)
    cells = np.unique(np.nonzero(circle)[1].reshape(N, on_circle), axis=0, return_counts=True)[1]
    assert cells.size == math.comb(n, on_circle)
    assert chi_square(cells) <= CHI2_999.get(cells.size - 1, 0.0)
    critical = 1.95 / np.sqrt(N)
    for k in range(n):
        assert ks_uniform(np.angle(z[:, k]) / (2 * np.pi) % 1.0) < critical
        inside = np.abs(z[~circle[:, k], k]) ** 2 / 0.999 ** 2
        if inside.size:  # none on the bi-disc edge
            assert ks_uniform(inside) < 1.95 / np.sqrt(inside.size)


class CountingGenerator:
    """A Generator that records the name of every draw made on it."""

    def __init__(self, rng):
        self.rng, self.draws = rng, []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.draws.append(name)
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox])
def test_certification_points_take_one_path_for_every_bit_generator(bit_generator, monkeypatch):
    # one block generator per source; its polydisc indices are one integer
    # draw whatever the block size, and its doubles one draw per block
    calls = []
    for name in ("sphere_blocks", "polydisc_edge_blocks"):
        sampler = getattr(bg, name)
        monkeypatch.setattr(bg, name, lambda *args, _s=sampler, _n=name, **kwargs:
                            calls.append(_n) or _s(*args, **kwargs))
    monkeypatch.setattr(carath, "CERTIFY_BLOCK", 500)
    rng = CountingGenerator(np.random.Generator(bit_generator(71)))
    Z = carath.certification_points(bg.polydisc(3), 2000, rng)
    assert calls == ["sphere_blocks", "polydisc_edge_blocks"]
    assert rng.draws == ["integers"] + ["random"] * 4 + ["integers"] * 2 + ["random"]
    tori = carath.certification_points(bg.polydisc(3), 0, np.random.default_rng(0))
    assert Z.shape == (2000 + 200 + len(tori), 3)
    monkeypatch.setattr(carath, "CERTIFY_BLOCK", len(Z))
    ref_rng = np.random.Generator(bit_generator(71))
    assert_bits_equal(carath.certification_points(bg.polydisc(3), 2000, ref_rng), Z)
    assert_same_stream(ref_rng, rng.rng)
    source = inspect.getsource(bg)
    assert "random_raw" not in source and "bit_generator" not in source


def test_from_json_reads_config_domains():
    # the "domain" entry of an experiment config
    for payload, dom in (({"kind": "euclidean", "n": 3}, bg.euclidean(3)),
                         ({"kind": "polydisc", "n": 2}, bg.polydisc(2)),
                         ({"kind": "polydisc", "n": "3"}, bg.polydisc(3)),
                         ({"kind": "spectral2", "n": 4}, bg.spectral2())):
        assert bg.from_json(payload) == dom


# hypothesis property: norms are absolutely homogeneous and subadditive
from hypothesis import given, settings, strategies as st

_coords = st.lists(st.tuples(st.floats(-2, 2), st.floats(-2, 2)), min_size=2, max_size=2)


@settings(max_examples=200, deadline=None)
@given(_coords, _coords, st.floats(-3, 3), st.floats(0, 2 * np.pi))
def test_norm_axioms_property(xs, ys, mag, phase):
    lam = mag * np.exp(1j * phase)
    x = np.array([complex(a, b) for a, b in xs])
    y = np.array([complex(a, b) for a, b in ys])
    for dom in (bg.euclidean(2), bg.polydisc(2)):
        nx, ny = bg.norm(dom, x), bg.norm(dom, y)
        assert bg.norm(dom, x + y) <= nx + ny + 1e-12 * (1 + nx + ny)
        assert bg.norm(dom, lam * x) == pytest.approx(abs(lam) * nx, rel=1e-12, abs=1e-12)
