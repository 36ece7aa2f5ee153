"""Shared test oracles."""

import bmklab  # first: its BLAS thread policy holds only if it loads before numpy
import numpy as np
import pytest


def _tangent_frames(nu):
    """(N, m-1, m) orthonormal tangent frames T with det[nu | T] > 0.

    The complement of nu comes from a QR of [nu | the unit vectors but the
    one nu leans on most]; the first tangent is flipped where the frame
    comes out negatively oriented.
    """
    N, m = nu.shape
    keep = np.argsort(np.abs(nu), axis=1)[:, :m - 1]
    basis = np.concatenate([nu[:, :, None], np.eye(m)[:, keep].transpose(1, 0, 2)], axis=2)
    tangents = np.linalg.qr(basis)[0][:, :, 1:].transpose(0, 2, 1).copy()
    dets = np.linalg.det(np.concatenate([nu[:, None, :], tangents], axis=1))
    tangents[dets < 0, 0] *= -1.0
    return tangents


def _frame_density_of(form, nodes, nu):
    """Density of a (2n-1)-form against dS as sum_IJ c_IJ det[factor_a(t_b)]:
    each monomial dz^I ^ dzbar^J evaluated on the oriented tangent frame."""
    tangents = _tangent_frames(np.asarray(nu, dtype=float))
    out = np.zeros(len(nodes), dtype=complex)
    for (I, J), c in form.coeffs.items():
        rows = [tangents[:, :, 2 * i - 2] + 1j * tangents[:, :, 2 * i - 1] for i in I]
        rows += [tangents[:, :, 2 * j - 2] - 1j * tangents[:, :, 2 * j - 1] for j in J]
        out += np.asarray(c(nodes), dtype=complex) * np.linalg.det(np.stack(rows, axis=1))
    return out


@pytest.fixture(scope="session")
def frame_density():
    """The frame-determinant pullback density, the oracle for
    exterior.density on a boundary rule."""
    return _frame_density_of
