"""Dense real or complex linear algebra over labeled tensor-product spaces.

Index convention used throughout the package: the leftmost factor of a
layout is the most significant index, matching ``np.kron(a, b)`` where
``a`` carries the major index.  A basis state ``|i1, i2, ..., ik>`` of a
layout with dims ``(d1, ..., dk)`` sits at flat index
``i1*d2*...*dk + i2*d3*...*dk + ... + ik``.

A state's field is decided once, where it is built: ``PureVec`` and
``DensityOp`` store an input whose imaginary parts are all exactly zero as
float64, and any other input as complex128 (``_in_field``).  Nothing after
that casts, so numpy runs real kernels on real states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

# Hermiticity / PSD tolerance: double-precision eigensolver noise floor
# with headroom.
HERM_TOL = 1e-9
# Relative rank cutoff for generalized inverses.
RANK_RTOL = 1e-10
# Largest entry of mat† mat - 1 for which a matrix counts as an isometry.
ISOMETRY_TOL = 1e-8
# Eigenvalues below this are dropped before taking logs.
LOG_EPS = 1e-12
# Largest deviation of a state's trace, or a vector's norm, from 1.
NORM_TOL = 1e-6
# Eigenvalues from eigh smaller in magnitude than this fraction of the
# largest are zeroed: eigh's noise floor, which a square root would lift from
# O(eps) to O(sqrt(eps)).  Eigenvalues s² of a factor's singular values s
# have no such floor and are kept.
SQRT_RTOL = 1e-14


class DimensionError(ValueError):
    """Shape or layout mismatch between operands."""


class LabelError(KeyError):
    """Unknown or duplicated factor label."""


class ValidationError(ValueError):
    """An object violates its defining numerical invariant."""


@dataclass(frozen=True)
class SystemLayout:
    """Ordered list of labeled tensor factors with dimensions."""

    factors: tuple[tuple[str, int], ...]

    def __init__(self, factors: Iterable[tuple[str, int]]):
        object.__setattr__(self, "factors", tuple((str(l), int(d)) for l, d in factors))
        labels = [l for l, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise LabelError(f"duplicate labels in layout: {labels}")
        for l, d in self.factors:
            if d < 1:
                raise DimensionError(f"factor {l!r} has dimension {d} < 1")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def dim(self) -> int:
        out = 1
        for _, d in self.factors:
            out *= d
        return out

    def dim_of(self, labels: Iterable[str]) -> int:
        wanted = set(labels)
        self._check_known(wanted)
        out = 1
        for l, d in self.factors:
            if l in wanted:
                out *= d
        return out

    def restrict(self, labels: Iterable[str]) -> "SystemLayout":
        """Sub-layout of the given labels, preserving the original order."""
        wanted = set(labels)
        self._check_known(wanted)
        return SystemLayout([(l, d) for l, d in self.factors if l in wanted])

    def reorder(self, labels: Sequence[str]) -> "SystemLayout":
        if set(labels) != set(self.labels) or len(labels) != len(self.factors):
            raise LabelError(f"reorder {labels} does not match layout {self.labels}")
        by_label = dict(self.factors)
        return SystemLayout([(l, by_label[l]) for l in labels])

    def _check_known(self, wanted: set[str]) -> None:
        unknown = wanted - set(self.labels)
        if unknown:
            raise LabelError(f"unknown labels {sorted(unknown)}; layout has {self.labels}")

    def __add__(self, other: "SystemLayout") -> "SystemLayout":
        return SystemLayout(self.factors + other.factors)


def layout(*factors: tuple[str, int]) -> SystemLayout:
    """Shorthand constructor: ``layout(("A", 2), ("B", 3))``."""
    return SystemLayout(factors)


def _in_field(x) -> np.ndarray:
    """x as float64 when none of its imaginary parts is nonzero, else as
    complex128; a real result is a contiguous copy of a complex input's
    real part."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        if x.imag.any():
            return x.astype(np.complex128, copy=False)
        x = x.real
    return np.ascontiguousarray(x, dtype=np.float64)


def is_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> bool:
    m = np.asarray(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


@dataclass(frozen=True, eq=False)
class Eigenpairs:
    """A Hermitian PSD operator as vecs diag(vals) vecs†, ``vals`` descending.

    ``vecs`` may have fewer columns than rows; the missing eigenvalues are
    zero.  Its square root, inverse square root on the support and support
    basis all come from the one eigensolve.
    """

    vals: np.ndarray = field(repr=False)
    vecs: np.ndarray = field(repr=False)

    @classmethod
    def of(cls, m: np.ndarray) -> "Eigenpairs":
        """Eigenpairs of a Hermitian matrix, from one eigh; eigenvalues
        smaller in magnitude than SQRT_RTOL times the largest are zeroed."""
        vals, vecs = eigh(m)
        if len(vals):
            vals[np.abs(vals) < vals[0] * SQRT_RTOL] = 0.0
        return cls(vals, vecs)

    @classmethod
    def of_factor(cls, f: np.ndarray) -> "Eigenpairs":
        """Eigenpairs of F F†, from one thin SVD of F."""
        u, s, _ = np.linalg.svd(f, full_matrices=False)
        return cls(s * s, u)

    def sqrt(self) -> np.ndarray:
        """Hermitian PSD square root; errors on eigenvalues below
        -HERM_TOL·max(1, largest)."""
        vals = self.vals
        if len(vals) and vals[-1] < -HERM_TOL * max(1.0, float(vals[0])):
            raise ValidationError(f"matrix is not PSD: min eigenvalue {vals[-1]}")
        return (self.vecs * np.sqrt(np.clip(vals, 0.0, None))) @ self.vecs.conj().T

    def inv_sqrt(self) -> np.ndarray:
        """Inverse square root on the support, zero on the kernel."""
        vals = np.clip(self.vals, 0.0, None)
        cutoff = (vals[0] if len(vals) else 0.0) * RANK_RTOL
        inv = np.where(vals > cutoff, 1.0 / np.sqrt(np.where(vals > cutoff, vals, 1.0)), 0.0)
        return (self.vecs * inv) @ self.vecs.conj().T

    def support(self) -> np.ndarray:
        """Orthonormal column basis of the support."""
        cutoff = (self.vals[0] if len(self.vals) else 0.0) * RANK_RTOL
        return self.vecs[:, :int(np.sum(self.vals > cutoff))]


@dataclass(frozen=True, eq=False)
class DensityOp:
    """Real or complex PSD unit-trace matrix over a SystemLayout, real when
    the input has no nonzero imaginary part.

    ``trace_of_one=False`` admits subnormalized operators (still Hermitian
    PSD); a few protocol-level objects are deliberately subnormalized.
    ``spectrum`` holds the ascending, read-only eigenvalues of the Hermitian
    part that validation computed, so entropies need no second eigensolve.
    A marginal of a pure state keeps that vector as ``_source``, so a split
    of it factors the vector instead of the matrix; a block factor keeps
    the eigenpairs its spectrum came from as ``_pairs``; ``_splits`` keeps
    the bipartite splits made of it (channels._split_density).  Instances
    compare and hash by identity.
    """

    layout: SystemLayout
    mat: np.ndarray = field(repr=False)
    trace_of_one: bool = True
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    _source = None
    _pairs = None
    _splits = None

    def __init__(self, layout: SystemLayout, mat, trace_of_one: bool = True):
        mat = _in_field(mat)
        d = layout.dim
        if mat.shape != (d, d):
            raise DimensionError(f"matrix shape {mat.shape} != layout dim {d}")
        # a new buffer for a real mat too, whose conj() is mat itself
        herm = np.conj(mat).T
        if np.max(np.abs(mat - herm)) > HERM_TOL:
            raise ValidationError("density operator is not Hermitian within tolerance")
        # the Hermitian part (mat + mat†) / 2, in the adjoint's own buffer
        herm += mat
        herm /= 2
        spectrum = np.linalg.eigvalsh(herm)
        spectrum.flags.writeable = False
        lo = float(spectrum[0])
        if lo < -HERM_TOL * max(1.0, abs(np.trace(mat).real)):
            raise ValidationError(f"density operator has negative eigenvalue {lo}")
        if trace_of_one and abs(np.trace(mat) - 1.0) > NORM_TOL:
            raise ValidationError(f"trace {np.trace(mat)} != 1")
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "trace_of_one", bool(trace_of_one))
        object.__setattr__(self, "spectrum", spectrum)

    @classmethod
    def _derived(cls, layout: SystemLayout, mat: np.ndarray, trace_of_one: bool = True,
                 pairs: Eigenpairs | None = None, source: "PureVec | None" = None,
                 ) -> "DensityOp":
        """An operator derived from validated data, Hermitian PSD by
        construction (a marginal of a validated vector ``source``, a block
        factor), so not checked again.  Its spectrum is read from its known
        eigenpairs ``pairs``, or else computed."""
        if pairs is None:
            spectrum = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
        else:
            spectrum = np.concatenate([np.zeros(layout.dim - len(pairs.vals)), pairs.vals[::-1]])
        spectrum.flags.writeable = False
        op = object.__new__(cls)
        for name, value in (("layout", layout), ("mat", mat),
                            ("trace_of_one", bool(trace_of_one)), ("spectrum", spectrum),
                            ("_source", source), ("_pairs", pairs)):
            object.__setattr__(op, name, value)
        return op

    @property
    def dim(self) -> int:
        return self.layout.dim

    def trace(self) -> float:
        return float(np.trace(self.mat).real)


@dataclass(frozen=True, eq=False)
class PureVec:
    """Unit-norm real or complex vector over a SystemLayout, real when the
    input has no nonzero imaginary part.

    ``normalized=False`` admits subnormalized vectors (projected states).
    """

    layout: SystemLayout
    vec: np.ndarray = field(repr=False)
    normalized: bool = True

    def __init__(self, layout: SystemLayout, vec, normalized: bool = True):
        vec = _in_field(vec).reshape(-1)
        if vec.shape != (layout.dim,):
            raise DimensionError(f"vector length {vec.shape[0]} != layout dim {layout.dim}")
        if normalized and abs(np.linalg.norm(vec) - 1.0) > NORM_TOL:
            raise ValidationError(f"norm {np.linalg.norm(vec)} != 1")
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "normalized", bool(normalized))

    @property
    def dim(self) -> int:
        return self.layout.dim

    def density(self) -> DensityOp:
        return DensityOp(self.layout, np.outer(self.vec, self.vec.conj()),
                         trace_of_one=self.normalized)


@dataclass(frozen=True, eq=False)
class IsometryOp:
    """Linear isometry between labeled spaces: mat† mat = identity on source."""

    source_layout: SystemLayout
    target_layout: SystemLayout
    mat: np.ndarray = field(repr=False)

    def __init__(self, source_layout: SystemLayout, target_layout: SystemLayout, mat):
        mat = np.asarray(mat)
        if mat.shape != (target_layout.dim, source_layout.dim):
            raise DimensionError(
                f"isometry shape {mat.shape} != ({target_layout.dim}, {source_layout.dim})")
        gram = mat.conj().T @ mat
        if np.max(np.abs(gram - np.eye(source_layout.dim))) > ISOMETRY_TOL:
            raise ValidationError("mat† mat != identity on source within tolerance")
        object.__setattr__(self, "source_layout", source_layout)
        object.__setattr__(self, "target_layout", target_layout)
        object.__setattr__(self, "mat", mat)


def _axes(layout_: SystemLayout, order: Sequence[str]) -> tuple[list[int], list[int]]:
    """Dims of the factors larger than 1, in layout order, and the
    transposition of those axes that puts the factors named in ``order``
    first, in that order, and the rest after them in layout order.
    Dim-1 factors do not affect memory layout, so they are left out."""
    named = set(order)
    if len(named) != len(order):
        raise LabelError(f"duplicate labels in order {list(order)}")
    layout_._check_known(named)
    rest = [l for l in layout_.labels if l not in named]
    pos = {l: k for k, l in enumerate(l for l, d in layout_.factors if d > 1)}
    return [d for d in layout_.dims if d > 1], [pos[l] for l in (*order, *rest) if l in pos]


def permute_vec(psi: PureVec, order: Sequence[str]) -> PureVec:
    """Reorder the tensor factors of a pure vector."""
    new_layout = psi.layout.reorder(order)
    dims, perm = _axes(psi.layout, order)
    v = np.transpose(psi.vec.reshape(dims), perm)
    return PureVec(new_layout, v.reshape(-1), normalized=psi.normalized)


def permute_mat(mat: np.ndarray, layout_: SystemLayout, order: Sequence[str],
                ) -> np.ndarray:
    """Reorder the tensor factors of a raw square matrix over a layout.

    ``order`` may name only the leading factors; the others follow in
    their layout order.
    """
    dims, perm = _axes(layout_, order)
    n = len(dims)
    m = np.transpose(mat.reshape(dims + dims), perm + [p + n for p in perm])
    return m.reshape(mat.shape)


def permute_op(op: DensityOp, order: Sequence[str]) -> DensityOp:
    """Reorder the tensor factors of a density operator."""
    new_layout = op.layout.reorder(order)
    m = permute_mat(op.mat, op.layout, order)
    return DensityOp(new_layout, m, trace_of_one=op.trace_of_one)


def partial_trace(op: DensityOp, keep: Iterable[str]) -> DensityOp:
    """Reduced operator on the kept factors, preserving their order; the
    operator itself when every factor is kept."""
    new_layout = op.layout.restrict(keep)
    if new_layout == op.layout:
        return op
    k = new_layout.dim
    d = op.dim // k
    m = permute_mat(op.mat, op.layout, new_layout.labels).reshape(k, d, k, d)
    return DensityOp(new_layout, np.einsum("iaja->ij", m), trace_of_one=op.trace_of_one)


def marginal(psi: PureVec, keep: Iterable[str]) -> DensityOp:
    """Reduced density operator of a pure state on the kept factors,
    preserving their order: ``M M†`` with ``M`` the vector reshaped to
    (kept, rest), so the full D×D matrix is never formed.  It is PSD by
    construction and not validated again."""
    keep_set = set(keep)
    new_layout = psi.layout.restrict(keep_set)
    rest = tuple(l for l in psi.layout.labels if l not in keep_set)
    m = permute_vec(psi, new_layout.labels + rest).vec.reshape(new_layout.dim, -1)
    return DensityOp._derived(new_layout, m @ m.conj().T, trace_of_one=psi.normalized,
                              source=psi)


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian eigendecomposition with eigenvalues sorted descending."""
    m = np.asarray(m)
    if not is_hermitian(m, tol=HERM_TOL * max(1.0, float(np.max(np.abs(m))))):
        raise ValidationError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def purify(rho: DensityOp, ref_label: str = "R") -> PureVec:
    """Pure state on layout ⊗ reference whose reference-trace equals rho.

    The reference dimension is the numerical rank of rho, so a pure input
    purifies to itself tensored with a single reference basis vector.
    """
    vals, vecs = eigh(rho.mat)
    cutoff = max(vals[0] * RANK_RTOL, LOG_EPS) if len(vals) else 0.0
    r = max(1, int(np.sum(vals > cutoff)))
    label = ref_label
    while label in rho.layout.labels:
        label += "'"
    amp = np.sqrt(np.clip(vals[:r], 0.0, None))
    new_layout = rho.layout + SystemLayout([(label, r)])
    return PureVec(new_layout, (vecs[:, :r] * amp).reshape(-1))


def haar_from_normals(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from standard normal real and imaginary
    parts of shape (..., d, d): QR of the complex Gaussian matrices, one
    stacked call for all of them.

    The R-diagonal phase correction makes the distribution exactly Haar.
    """
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    if d < 1:
        raise DimensionError(f"dimension {d} < 1")
    re = rng.standard_normal((d, d))
    return haar_from_normals(re, rng.standard_normal((d, d)))


def random_pure(layout_: SystemLayout, rng: np.random.Generator) -> PureVec:
    """Haar-random pure state on a layout."""
    d = layout_.dim
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureVec(layout_, z / np.linalg.norm(z))


def random_density(layout_: SystemLayout, rng: np.random.Generator,
                   rank: int | None = None) -> DensityOp:
    """Random mixed state: partial trace of a Haar-random purification."""
    d = layout_.dim
    r = rank or d
    z = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    m = z @ z.conj().T
    return DensityOp(layout_, m / np.trace(m).real)
