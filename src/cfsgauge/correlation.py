"""Correlation operators, spin spaces, wave evaluation and two-point kernels.

A correlation operator x is a Hermitian f x f matrix of rank 2n whose nonzero
spectrum splits into n positive and n negative eigenvalues.  Its image carries
the indefinite spin inner product

    <u | v>_x = - (u, x v)

of signature (n, n), so every such operator spawns a Krein space (the spin
space).  One type, ``ImageSplit``, holds a regular point: the f x r image
basis V and the compression X = V^dag x V, from which the spin space, the
wave evaluation V^dag and the kernel P(x, y) = V_x^dag V_y X_y are all read
at O(f r^2) cost.  Code that needs the orthogonal complement projects off
the image with 1 - V V^dag; only ``manifold.chart_jacobian_rank`` builds a
basis of it, from a complete QR of V.  Every point is given by a rank-r
factor, its wave values W with x = -W^dag G W, and ``split_wave_values``
decides it from W alone at O(f r^2), with no f x f array, whatever the
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotRegular
from .krein import KreinSpace, _adjoint, _frobenius, _refuse

#: relative threshold separating genuine eigenvalues from numerical zeros
TOL_RANK_FACTOR = 1e-8


def hermitize(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part (of each stacked matrix), in one buffer."""
    a = np.asarray(a, dtype=np.result_type(a, 0.5))
    out = np.conjugate(np.swapaxes(a, -1, -2), out=np.empty_like(a))
    return np.multiply(np.add(a, out, out=out), 0.5, out=out)


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    rows = np.argmax(np.abs(v), axis=-2)[..., None, :]
    pivot = np.take_along_axis(v, rows, axis=-2)
    size = np.hypot(pivot.real, pivot.imag)   # rounds as scalar abs() does
    return v * np.where(size > 0.0, size / np.where(size > 0.0, pivot, 1), 1)


@dataclass(frozen=True, eq=False)
class ImageSplit:
    """A regular point: the image of x and the compression of x onto it.

    ``basis`` holds eigenvectors of the p+q nonzero eigenvalues (descending
    order, phases fixed deterministically), ``restricted`` the compression
    X = basis^dag x basis and ``discarded`` a bound on
    ||x - basis X basis^dag||_F.
    ``krein`` is the spin space, the image with Gram matrix -X, built on
    first use.  For a stack every field has the same leading stack axes.
    """

    basis: np.ndarray
    restricted: np.ndarray
    discarded: np.ndarray
    signature: tuple[int, int]

    @property
    def rank(self) -> int:
        return self.basis.shape[-1]

    @cached_property
    def krein(self) -> KreinSpace:
        return KreinSpace(gram=-self.restricted, signature=self.signature[::-1])


def _split_from_factor(w: np.ndarray, g: np.ndarray):
    """Split each x = -W^dag G W from W alone, and decide its signature.

    W^dag = Q R gives B = -R G R^dag at O(f r^2), reading no entry of x.
    One r x r ``eigh`` of B gives the image basis (descending eigenvalues,
    phases fixed) and the scale max|eig(B)| that stands in for ||x||.
    rho bounds ||x - V X V^dag||_F for x rendered densely as
    ``hermitize(-(W^dag G W))``: ||-W^dag G W - V X V^dag||_F, read from
    [W^dag, V] by ``frame_form``, plus gamma_13 ||G||_F ||W||_F^2 for the
    rounding of x: (W^dag G) W is two complex products of inner dimension
    4, each within gamma_6 (gamma_{n+2} for complex data), so within
    gamma_12 |W|^T |G| |W| entrywise; the Hermitian part 0.5 ((-a) -
    conj(b)) rounds once more (negation, conjugation and halving are
    exact), which gives gamma_13.

    Every eigenvalue of x lies within rho of eig(B) or of 0; more, the
    eigenvalues of x match eig(B) and f - r zeros one to one within rho
    (Weyl).  An element is decided when B is finite, rho is below the rank
    threshold and every |eig(B)| lies above threshold + rho or below
    threshold - rho.  Each eigenvalue of x then falls on the side of the
    threshold of its partner, with its sign, so counting eig(B) at the
    threshold gives the dense verdict for kept and dropped eigenvalues
    alike.  The threshold scales with ||x||, known from max|eig(B)| only
    to within rho, so both bounds take the unfavorable end.  Returns
    (basis, restricted, rho, found, threshold) per element, ``found`` the
    (p, q) counts of eig(B) above +threshold and below -threshold, and
    whether each element is decided.
    """
    frame, r = np.linalg.qr(_adjoint(w))
    b = -(r @ g @ _adjoint(r))
    ok = np.isfinite(b).all(axis=(-2, -1))
    b = np.where(ok[..., None, None], b, 0.0)
    vals, vecs = np.linalg.eigh(hermitize(b))
    basis = _fix_column_phases(frame @ vecs[..., ::-1])
    coeffs = _adjoint(frame) @ basis
    restricted = hermitize(_adjoint(coeffs) @ b @ coeffs)
    nu = 13 * np.finfo(float).eps / 2
    rho = (_frobenius(frame_form(_adjoint(w), g, basis, restricted))
           + nu / (1 - nu) * _frobenius(g) * _frobenius(w) ** 2)
    scale = np.max(np.abs(vals), axis=-1)
    tol_low = TOL_RANK_FACTOR * np.maximum(scale - rho, 1e-300)
    tol_high = TOL_RANK_FACTOR * np.maximum(scale + rho, 1e-300)
    size = np.abs(vals)
    decided = (ok & (rho < tol_low)
               & np.all((size > (tol_high + rho)[..., None])
                        | (size < (tol_low - rho)[..., None]), axis=-1))
    tol_rank = TOL_RANK_FACTOR * np.maximum(scale, 1e-300)
    return (basis, restricted, rho, _counts(vals, tol_rank), tol_rank), decided


def frame_form(a, a_gram, b, b_gram) -> np.ndarray:
    """a A a^dag + b B b^dag, with its norms, as T1 A T1^dag + T2 B T2^dag.

    [a, b] = Q [T1 T2] with orthonormal Q, at O(f r^2).
    """
    t1, t2 = np.split(np.linalg.qr(np.concatenate([a, b], axis=-1), mode="r"),
                      [a.shape[-1]], axis=-1)
    return t1 @ a_gram @ _adjoint(t1) + t2 @ b_gram @ _adjoint(t2)


def _counts(vals: np.ndarray, tol) -> np.ndarray:
    """(count above +tol, count below -tol) of each stacked spectrum."""
    tol = np.asarray(tol)[..., None]
    return np.stack([np.sum(vals > tol, axis=-1),
                     np.sum(vals < -tol, axis=-1)], axis=-1)


def split_wave_values(w, g, p: int, q: int) -> ImageSplit:
    """The split of x = -w^dag g w for a (p + q) x f ``w`` or a stack of them.

    Reads w at O(f r^2) and renders no f x f array.  Raises NotRegular when
    w is not finite or lacks p + q rows (before any product), when
    ``_split_from_factor`` leaves the signature undecided, and when the
    decided signature, the dense verdict, is not (p, q).
    """
    w = np.asarray(w, dtype=complex)
    bad = ~np.isfinite(w)
    _refuse(bad.any(), NotRegular, "wave values are not finite: {} of {} "
            "entries", np.count_nonzero(bad), w.size)
    _refuse(w.shape[-2] != p + q, NotRegular, "expected p + q = {} rows of "
            "wave values, found {}", p + q, w.shape[-2])
    split, decided = _split_from_factor(w, np.asarray(g, dtype=complex))
    _refuse(~decided, NotRegular, "signature undecided at threshold {:.3g} "
            "within the rounding bound {:.3g}", split[4], split[2])
    return _decided_split(split, p, q)


def _decided_split(split, p: int, q: int) -> ImageSplit:
    """The ``ImageSplit`` of a decided split; NotRegular off (p, q)."""
    basis, restricted, discarded, found, tol_rank = split
    _refuse(np.any(found != (p, q), axis=-1), NotRegular,
            "expected signature ({}, {}), found ({}, {}) at threshold {:.3g}",
            p, q, found[..., 0], found[..., 1], tol_rank)
    return ImageSplit(basis=basis, restricted=restricted,
                      discarded=discarded, signature=(p, q))


def as_split(x: ImageSplit, p: int, q: int) -> ImageSplit:
    """The given split, after checking that its signature is (p, q)."""
    if x.signature != (p, q):
        raise NotRegular(f"expected signature ({p}, {q}), found "
                         f"{tuple(x.signature)}")
    return x


def spin_space(x: ImageSplit, n: int) -> ImageSplit:
    """The spin space of a regular correlation operator, as its image split.

    ``x`` is the image split of the operator.  Raises NotRegular unless its
    signature is (n, n).
    """
    return as_split(x, n, n)


def kernel(sp_x: ImageSplit, sp_y: ImageSplit) -> np.ndarray:
    """Two-point kernel P(x, y): spin space at y -> spin space at x.

    In the recorded bases this is basis_x^dag y basis_y = (basis_x^dag
    basis_y) X_y, read from the image factors at O(f r^2) cost; equivalently
    the bra/ket sum -Psi(x) Psi(y)* over the ensemble.
    """
    return _adjoint(sp_x.basis) @ sp_y.basis @ sp_y.restricted


def closed_chain(sp_x: ImageSplit, sp_y: ImageSplit) -> np.ndarray:
    """Closed chain A_xy = P(x, y) P(y, x), an endomorphism of S_x.

    Symmetric with respect to the spin inner product at x; its spectrum does
    not depend on the choice of spin bases.
    """
    return kernel(sp_x, sp_y) @ kernel(sp_y, sp_x)
