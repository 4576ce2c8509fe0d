"""Core matrix layer: adjoint, normalized trace, GNS product, exponential."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgekit import curvature as cv
from hodgekit import linalg


def test_adjoint_examples():
    eye = np.eye(2)
    np.testing.assert_array_equal(linalg.adjoint(eye), eye)
    np.testing.assert_array_equal(
        linalg.adjoint([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]], dtype=complex)
    )
    np.testing.assert_array_equal(
        linalg.adjoint([[0, 1j], [0, 0]]), np.array([[0, 0], [-1j, 0]])
    )


def test_adjoint_is_involutive():
    rng = np.random.default_rng(0)
    a = linalg.random_matrix(rng, 5)
    np.testing.assert_array_equal(linalg.adjoint(linalg.adjoint(a)), a)


def test_adjoint_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.adjoint(np.zeros((2, 3)))


def test_normalized_trace_examples():
    assert linalg.normalized_trace(np.eye(4)) == 1.0
    assert linalg.normalized_trace(np.diag([1, 1, 1, -1, -1, -1])) == 0.0
    assert linalg.normalized_trace([[2, 0], [0, 0]]) == 1.0


def test_trace_is_tracial_up_to_dim_64():
    rng = np.random.default_rng(1)
    for dim in (2, 3, 8, 17, 64):
        a = linalg.random_matrix(rng, dim)
        b = linalg.random_matrix(rng, dim)
        gap = abs(linalg.normalized_trace(a @ b) - linalg.normalized_trace(b @ a))
        assert gap < 1e-12


def test_expm_normal_examples():
    np.testing.assert_array_equal(linalg.expm_normal(np.zeros((3, 3))), np.eye(3))
    out = linalg.expm_normal(np.diag([0.0, 1j * np.pi]))
    np.testing.assert_allclose(out, np.diag([1.0, -1.0]), atol=1e-12)


def test_expm_normal_skew_hermitian_gives_unitary():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = linalg.random_matrix(rng, 5)
        skew = a - linalg.adjoint(a)
        u = linalg.expm_normal(skew)
        np.testing.assert_allclose(u @ linalg.adjoint(u), np.eye(5), atol=1e-10)


def test_expm_normal_group_law():
    rng = np.random.default_rng(5)
    a = linalg.random_matrix(rng, 4)
    h = a + linalg.adjoint(a)  # Hermitian, hence normal
    for s, t in ((0.3, 0.4), (-1.5, 2.0), (2.0, -2.0)):
        lhs = linalg.expm_normal(s * h) @ linalg.expm_normal(t * h)
        rhs = linalg.expm_normal((s + t) * h)
        assert linalg.frobenius(lhs - rhs) < 1e-9


def test_expm_normal_gate_is_relative():
    rng = np.random.default_rng(33)
    q, _ = np.linalg.qr(linalg.random_matrix(rng, 6))
    big = q @ np.diag(1e6 * rng.standard_normal(6)) @ q.conj().T
    out = linalg.expm_normal(1j * big)
    np.testing.assert_allclose(out @ out.conj().T, np.eye(6), atol=1e-8)
    with pytest.raises(ValueError, match="not normal"):
        linalg.expm_normal([[0.0, 1e-6], [0.0, 0.0]])


def test_expm_normal_rejects_non_normal():
    with pytest.raises(ValueError, match="not normal"):
        linalg.expm_normal([[0.0, 1.0], [0.0, 0.0]])


def test_import_does_not_load_scipy():
    code = ("import sys, hodgekit, hodgekit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"


def test_kron_trace_multiplicative():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = linalg.random_matrix(rng, 3)
        b = linalg.random_matrix(rng, 4)
        lhs = linalg.normalized_trace(np.kron(a, b))
        rhs = linalg.normalized_trace(a) * linalg.normalized_trace(b)
        assert abs(lhs - rhs) < 1e-12


def test_operator_norm_is_largest_singular_value():
    rng = np.random.default_rng(7)
    a = linalg.random_matrix(rng, 5)
    assert abs(linalg.operator_norm(a) - np.linalg.svd(a, compute_uv=False)[0]) < 1e-12
    assert linalg.operator_norm(np.diag([3.0, -7.0])) == 7.0


def test_matrix_json_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    a = linalg.random_matrix(rng, 4)
    path = tmp_path / "a.json"
    linalg.save_matrix(path, a)
    np.testing.assert_array_equal(linalg.load_matrix(path), a)
    # Canonical layout survives a re-dump byte for byte.
    text1 = path.read_text()
    linalg.save_matrix(path, linalg.load_matrix(path))
    assert path.read_text() == text1


def test_matrix_from_dict_validation():
    with pytest.raises(ValueError):
        linalg.matrix_from_dict({"dim": 2, "entries": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        linalg.matrix_from_dict({"entries": []})
    with pytest.raises(ValueError):
        linalg.matrix_from_dict({"dim": 1, "entries": [[np.inf, 0.0]]})


def test_vector_json_round_trip(tmp_path):
    v = np.array([1.0, 2j, -3.0, 0.0, 0.5, 1 + 1j])
    path = tmp_path / "v.json"
    linalg.save_vector(path, v)
    np.testing.assert_array_equal(linalg.load_vector(path, length=6), v)
    with pytest.raises(ValueError):
        linalg.load_vector(path, length=5)
    payload = json.loads(path.read_text())
    assert set(payload) == {"coefficients"}


def test_vector_json_rejections(tmp_path):
    path = tmp_path / "v.json"
    with pytest.raises(ValueError, match="1-d coefficient vector"):
        linalg.save_vector(path, np.eye(2))
    assert not path.exists()
    for payload, message in (([1.0], "'coefficients' field"),
                             ({"coefficients": [[1.0]]}, r"\[re, im\] pair"),
                             ({"coefficients": [[np.nan, 0.0]]}, "finite")):
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            linalg.load_vector(path)


_DOUBLE_MAX = np.finfo(np.float64).max
_SPECIAL_PARTS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, _DOUBLE_MAX, -_DOUBLE_MAX])


def _oracle_pairs(a):
    """The per-entry encoding the [re, im] codec replaced, kept as its oracle."""
    return [[float(z.real), float(z.imag)] for z in a.ravel()]


def _parts(seed, share, shape):
    """Complex array whose real and imaginary parts are Gaussians at 10^[-300, 300], each
    replaced with probability share by a signed zero, a subnormal or +-max."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((*shape, 2)) * 10.0 ** rng.uniform(-300, 300, (*shape, 2))
    special = rng.random(parts.shape) < share
    parts[special] = rng.choice(_SPECIAL_PARTS, np.count_nonzero(special))
    return parts.view(np.complex128)[..., 0]


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 16), n=st.integers(1, 16), seed=st.integers(0, 2**32 - 1),
       share=st.sampled_from([0.0, 0.3, 1.0]))
def test_pair_codec_round_trips_bit_for_bit_with_the_per_entry_text(tmp_path_factory, d, n,
                                                                     seed, share):
    """Matrices and vectors survive a round trip through their JSON files with every
    bit, signed zeros included, and the text equals the per-entry encoding's."""
    a = _parts(seed, share, (d, d))
    text = json.dumps(linalg.matrix_to_dict(a))
    assert text == json.dumps({"dim": d, "entries": _oracle_pairs(a)})
    assert linalg.matrix_from_dict(json.loads(text)).tobytes() == a.tobytes()
    v = _parts(seed + 1, share, (n,))
    path = tmp_path_factory.mktemp("codec") / "v.json"
    linalg.save_vector(path, v)
    assert path.read_text() == json.dumps({"coefficients": _oracle_pairs(v)}) + "\n"
    assert linalg.load_vector(path, length=n).tobytes() == v.tobytes()


def test_pair_decoder_rejects_malformed_entries_with_value_errors():
    for entries in (5, None, "12", {"a": 1}, [[None, 0.0]], [[1.0, [2.0]]], [[[1.0, 2.0]]],
                    [[1.0, 2.0, 3.0]], [1.0, 2.0], [[10**401, 0]], [["x", 0]]):
        with pytest.raises(ValueError, match="entries"):
            linalg.matrix_from_dict({"dim": 1, "entries": entries})
    for dim in (True, 1.0, "1", 0, None):
        with pytest.raises(ValueError, match="'dim' must be a positive integer"):
            linalg.matrix_from_dict({"dim": dim, "entries": [[1.0, 0.0]]})


def test_frobenius_is_safe_over_the_double_range():
    # Six entries of 1e-162: every square underflows to zero.
    assert linalg.frobenius(np.full(6, 1e-162)) == pytest.approx(np.sqrt(6.0) * 1e-162, rel=1e-15)
    assert linalg.frobenius(np.full((2, 3), 1e200 + 1e200j)) == pytest.approx(
        np.sqrt(12.0) * 1e200, rel=1e-15)
    assert linalg.frobenius([5e-324]) == 5e-324
    assert linalg.frobenius([1.7e308, 1.7e308]) == np.inf
    assert linalg.frobenius(np.zeros((3, 3))) == 0.0



def test_traces_whose_sums_leave_the_doubles_are_rescaled():
    # 1e308 + 1e308 overflows before the -1e308 and the division by d come in.
    m = np.diag([1e308, 1e308, -1e308, 0.0, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert linalg.normalized_trace(m) == pytest.approx(1e308 / 6, rel=1e-15)
        assert linalg.normalized_trace(np.eye(3) * 1.5e308) == 1.5e308
        # A star that is not a signed permutation takes the dense trace.
        for star in (np.diag([1.0, 1, 1, -1, -1, -1]), np.diag([1.0, 1, 1, -1, -1, -1 + 2**-52])):
            assert cv.bianchi_residual(m, star) == pytest.approx(1e308 / 6, rel=1e-15)
        assert linalg.rescaled(lambda a: float(np.sum(a)), np.full(3, 1e308)) == np.inf


def test_star_product_gathers_a_signed_permutation_and_multiplies_anything_else():
    rng = np.random.default_rng(12)
    pairing = np.zeros((5, 5))
    for i, j, sign in ((0, 3, -1.0), (3, 0, -1.0), (1, 4, 1.0), (4, 1, 1.0), (2, 2, -1.0)):
        pairing[i, j] = sign
    cycle = np.roll(np.eye(5), 1, axis=0) * [1.0, -1, 1, 1, -1]
    general = linalg.random_matrix(rng, 5)
    m = linalg.random_matrix(rng, 5)
    for s, gathers in ((pairing, True), (cycle, True), (general, False),
                       (1j * pairing, False), (2.0 * pairing, False)):
        p = linalg.StarProduct(s)
        assert p.is_signed_permutation is gathers
        np.testing.assert_array_equal(p.left(m), s @ m)
        np.testing.assert_array_equal(p.right(m), m @ s)
        assert abs(p.trace(m) - np.trace(m @ s)) <= 1e-15 * linalg.frobenius(m) * linalg.frobenius(s)
    for s in (np.ones(4), np.ones((2, 3)), np.zeros((0, 0))):
        assert not linalg.StarProduct(s).is_signed_permutation
