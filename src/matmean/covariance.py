"""Covariance models for vectorized subject matrices.

The covariance of a random r x c matrix X is expressed on vec(X), the
column-major stacking of X (first column, then second, ...).  Four
builders cover the simulation designs: identity, a Kronecker product
of a row factor and a column factor, a block-diagonal layout over
vec(X), and a fully dense matrix.

Sampling never materializes the full covariance unless it has to: each
spec yields a root object that maps an (n, r, c) block of iid noise to
correlated data, using the symmetric (spectral) square root of each
factor.  The symmetric root matters: with skewed noise a Cholesky
factor would induce a different sampling law.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MAX_DENSE_DIM",
    "Ar1Factor",
    "CompoundFactor",
    "DenseFactor",
    "IdentityCovariance",
    "KroneckerCovariance",
    "BlockDiagonalCovariance",
    "DenseCovariance",
    "CompoundCovariance",
    "sqrt_factor",
    "factor_from_dict",
    "covariance_from_dict",
]

# Largest vec dimension (r*c) we will hold as a dense matrix.
MAX_DENSE_DIM = 2048

_MIN_EIGENVALUE = 1e-10


def _spd_root(mat: np.ndarray, label: str) -> np.ndarray:
    """Symmetric square root; rejects factors that are not positive definite."""
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() <= _MIN_EIGENVALUE:
        raise ValueError(
            f"{label} is not positive definite (min eigenvalue {vals.min():.3e})"
        )
    return (vecs * np.sqrt(vals)) @ vecs.T


def _unvec(v: np.ndarray, r: int, c: int) -> np.ndarray:
    return v.reshape(-1, c, r).transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# factors


@dataclass(frozen=True)
class Ar1Factor:
    """Autoregressive correlation {rho^|a-b|} of a given dimension."""

    dim: int
    rho: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("factor dimension must be positive")
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"ar1 rho must lie in (-1, 1), got {self.rho}")

    def build(self) -> np.ndarray:
        idx = np.arange(self.dim)
        return self.rho ** np.abs(idx[:, None] - idx[None, :])

    def to_dict(self) -> dict:
        return {"kind": "ar1", "dim": self.dim, "rho": self.rho}


@dataclass(frozen=True)
class CompoundFactor:
    """Exchangeable matrix (1-rho) I + rho J; rho=0.5 gives 0.5 (I + J)."""

    dim: int
    rho: float = 0.5

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("factor dimension must be positive")

    def build(self) -> np.ndarray:
        return (1.0 - self.rho) * np.eye(self.dim) + self.rho * np.ones(
            (self.dim, self.dim)
        )

    def to_dict(self) -> dict:
        return {"kind": "compound", "dim": self.dim, "rho": self.rho}


@dataclass(frozen=True)
class DenseFactor:
    """Explicit symmetric factor matrix."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"dense factor must be square, got shape {v.shape}")
        if not np.allclose(v, v.T):
            raise ValueError("dense factor must be symmetric")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def build(self) -> np.ndarray:
        return self.values

    def to_dict(self) -> dict:
        return {"kind": "dense", "values": self.values.tolist()}


def factor_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "ar1":
        return Ar1Factor(dim=int(d["dim"]), rho=float(d["rho"]))
    if kind == "compound":
        return CompoundFactor(dim=int(d["dim"]), rho=float(d.get("rho", 0.5)))
    if kind == "dense":
        return DenseFactor(values=np.asarray(d["values"], dtype=float))
    raise ValueError(f"unknown factor kind {kind!r}")


# ---------------------------------------------------------------------------
# covariance specs


def _scratch(scratch, count: int, size: int):
    """The caller's scratch arrays, or ``count`` fresh ones of ``size`` floats."""
    if scratch is None:
        return [np.empty(size) for _ in range(count)]
    return scratch


def _vec_into(buf: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Column-major vec of each matrix of ``z``, written into the flat ``buf``."""
    n, r, c = z.shape
    v = buf.reshape(n, c, r)
    np.copyto(v, z.transpose(0, 2, 1))
    return v.reshape(n, c * r)


# Every root's ``apply(z, out=None, scratch=None)`` writes into ``out``
# when given (which may be ``z`` itself, since z is read before out is
# written) and works in ``scratch``: ``scratch_count`` flat float arrays
# of z.size entries.  Without them it allocates, so a root can be shared
# by threads that each pass their own buffers.


class _IdentityRoot:
    scratch_count = 0

    def apply(self, z, out=None, scratch=None):
        if out is None or out is z:
            return z
        np.copyto(out, z)
        return out


class _KroneckerRoot:
    scratch_count = 2

    def __init__(self, row_root, col_root):
        self.row_root = row_root
        self.col_root = col_root

    def apply(self, z, out=None, scratch=None):
        n, r, c = z.shape
        zt, rz = _scratch(scratch, self.scratch_count, z.size)
        zb = zt.reshape(r, n, c)
        np.copyto(zb, z.transpose(1, 0, 2))
        w = np.matmul(self.row_root, zb.reshape(r, n * c), out=rz.reshape(r, n * c))
        return np.matmul(w.reshape(r, n, c).transpose(1, 0, 2), self.col_root, out=out)


class _BlockRoot:
    scratch_count = 2

    def __init__(self, offsets_roots, r, c):
        self.offsets_roots = offsets_roots
        self.r = r
        self.c = c

    def apply(self, z, out=None, scratch=None):
        vs, ws = _scratch(scratch, self.scratch_count, z.size)
        v = _vec_into(vs, z)
        w = ws.reshape(v.shape)
        for off, root in self.offsets_roots:
            d = root.shape[0]
            # roots are symmetric, so right-multiplication applies them
            np.matmul(v[:, off : off + d], root, out=w[:, off : off + d])
        if out is None:
            out = np.empty(z.shape)
        np.copyto(out, _unvec(w, self.r, self.c))
        return out


class _CompoundRoot:
    """Root of (1-rho) I + rho J in closed form: a I + b J."""

    scratch_count = 1

    def __init__(self, rho, r, c):
        d = r * c
        self.a = np.sqrt(1.0 - rho)
        self.b = (np.sqrt(1.0 - rho + d * rho) - self.a) / d

    def apply(self, z, out=None, scratch=None):
        (vs,) = _scratch(scratch, self.scratch_count, z.size)
        # the sum runs in vec order; the rest is elementwise
        shift = self.b * _vec_into(vs, z).sum(axis=1)
        out = np.multiply(z, self.a, out=out)
        out += shift[:, None, None]
        return out


@dataclass(frozen=True)
class IdentityCovariance:
    """vec(X) has iid unit-variance entries."""

    def check_dims(self, r: int, c: int) -> None:
        pass

    def materialize(self, r: int, c: int) -> np.ndarray:
        _guard_dense(r * c)
        return np.eye(r * c)

    def root(self, r: int, c: int) -> _IdentityRoot:
        return _IdentityRoot()

    def to_dict(self) -> dict:
        return {"kind": "identity"}


@dataclass(frozen=True)
class KroneckerCovariance:
    """cov[vec(X)] = col_factor (x) row_factor, column-major vec."""

    row: object
    col: object

    def check_dims(self, r: int, c: int) -> None:
        if self.row.dim != r or self.col.dim != c:
            raise ValueError(
                f"kronecker factors are {self.row.dim} x {self.col.dim}, "
                f"data is {r} x {c}"
            )

    def materialize(self, r: int, c: int) -> np.ndarray:
        self.check_dims(r, c)
        _guard_dense(r * c)
        return np.kron(self.col.build(), self.row.build())

    def root(self, r: int, c: int) -> _KroneckerRoot:
        self.check_dims(r, c)
        return _KroneckerRoot(
            _spd_root(self.row.build(), "row factor"),
            _spd_root(self.col.build(), "column factor"),
        )

    def to_dict(self) -> dict:
        return {"kind": "kronecker", "row": self.row.to_dict(), "col": self.col.to_dict()}


@dataclass(frozen=True)
class BlockDiagonalCovariance:
    """Block-diagonal over vec(X); block dimensions must sum to r*c.

    With c blocks of dimension r, block b is the covariance of column b.
    """

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("block-diagonal covariance needs at least one block")

    def check_dims(self, r: int, c: int) -> None:
        total = sum(b.dim for b in self.blocks)
        if total != r * c:
            raise ValueError(
                f"block dimensions sum to {total}, expected r*c = {r * c}"
            )

    def materialize(self, r: int, c: int) -> np.ndarray:
        self.check_dims(r, c)
        _guard_dense(r * c)
        out = np.zeros((r * c, r * c))
        off = 0
        for b in self.blocks:
            d = b.dim
            out[off : off + d, off : off + d] = b.build()
            off += d
        return out

    def root(self, r: int, c: int) -> _BlockRoot:
        self.check_dims(r, c)
        offsets_roots = []
        off = 0
        for i, b in enumerate(self.blocks):
            offsets_roots.append((off, _spd_root(b.build(), f"block {i + 1}")))
            off += b.dim
        return _BlockRoot(offsets_roots, r, c)

    def to_dict(self) -> dict:
        return {"kind": "block_diagonal", "blocks": [b.to_dict() for b in self.blocks]}


@dataclass(frozen=True)
class DenseCovariance:
    """Explicit covariance of vec(X)."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"dense covariance must be square, got {v.shape}")
        if v.shape[0] > MAX_DENSE_DIM:
            raise ValueError(
                f"dense covariance of dimension {v.shape[0]} exceeds the "
                f"supported maximum {MAX_DENSE_DIM}"
            )
        if not np.allclose(v, v.T):
            raise ValueError("dense covariance must be symmetric")
        object.__setattr__(self, "values", v)

    def check_dims(self, r: int, c: int) -> None:
        if self.values.shape[0] != r * c:
            raise ValueError(
                f"dense covariance has dimension {self.values.shape[0]}, "
                f"expected r*c = {r * c}"
            )

    def materialize(self, r: int, c: int) -> np.ndarray:
        self.check_dims(r, c)
        return self.values

    def root(self, r: int, c: int) -> _BlockRoot:
        self.check_dims(r, c)
        # one block spanning all of vec(X)
        return _BlockRoot([(0, _spd_root(self.values, "covariance"))], r, c)

    def to_dict(self) -> dict:
        return {"kind": "dense", "values": self.values.tolist()}


@dataclass(frozen=True)
class CompoundCovariance:
    """Exchangeable covariance on vec(X): (1-rho) I + rho J at any size.

    The root has the closed form a I + b J, so sampling is O(n r c)
    and no dimension cap applies.  Requires rho in (-1/(rc-1), 1).
    """

    rho: float

    def check_dims(self, r: int, c: int) -> None:
        d = r * c
        if not -1.0 / (d - 1) < self.rho < 1.0:
            raise ValueError(
                f"compound rho must lie in (-1/(rc-1), 1) for rc = {d}, "
                f"got {self.rho}"
            )

    def materialize(self, r: int, c: int) -> np.ndarray:
        self.check_dims(r, c)
        _guard_dense(r * c)
        d = r * c
        return (1.0 - self.rho) * np.eye(d) + self.rho * np.ones((d, d))

    def root(self, r: int, c: int) -> _CompoundRoot:
        self.check_dims(r, c)
        return _CompoundRoot(self.rho, r, c)

    def to_dict(self) -> dict:
        return {"kind": "compound", "rho": self.rho}


def _guard_dense(dim: int) -> None:
    if dim > MAX_DENSE_DIM:
        raise ValueError(
            f"refusing to materialize a {dim} x {dim} covariance "
            f"(limit {MAX_DENSE_DIM}); use a structured spec instead"
        )


def sqrt_factor(spec, r: int, c: int):
    """Sampling root of a covariance spec.

    The returned object's ``apply`` maps an (n, r, c) stack of iid
    unit-variance noise to a stack with covariance ``spec`` on each vec(X).
    It takes ``out=`` (which may be the noise itself) and ``scratch=``,
    ``scratch_count`` flat arrays of n*r*c floats, to work without
    allocating.
    """
    return spec.root(r, c)


def covariance_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "identity":
        return IdentityCovariance()
    if kind == "kronecker":
        return KroneckerCovariance(
            row=factor_from_dict(d["row"]), col=factor_from_dict(d["col"])
        )
    if kind == "block_diagonal":
        return BlockDiagonalCovariance(
            blocks=tuple(factor_from_dict(b) for b in d["blocks"])
        )
    if kind == "dense":
        return DenseCovariance(values=np.asarray(d["values"], dtype=float))
    if kind == "compound":
        return CompoundCovariance(rho=float(d["rho"]))
    raise ValueError(f"unknown covariance kind {kind!r}")
