"""Versioned binary container for fitted artifacts.

Layout (all little-endian): magic "LKDL", format version u16, record kind
u16, then kind-specific fields and nothing after them. Matrices are stored
as u32 rows, u32 cols followed by row-major float64 data. Kinds 2 and 3
(bare dictionaries) are retired.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .classify import ClassDictionaryModel
from .kernels import KernelSpec
from .lcksvd import LCKSVDModel
from .nystrom import NystromMap

MAGIC = b"LKDL"
FORMAT_VERSION = 1

KIND_NYSTROM_MAP = 1
KIND_CLASS_MODEL = 4
KIND_LCKSVD_MODEL = 5

_KERNEL_KINDS = ("linear", "polynomial", "gaussian")


def _pack_array(a: np.ndarray) -> bytes:
    a = np.ascontiguousarray(np.atleast_2d(np.asarray(a, dtype="<f8")))
    return struct.pack("<II", a.shape[0], a.shape[1]) + a.tobytes()


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.data):
            raise ValueError("truncated container")
        out = struct.unpack_from(fmt, self.data, self.pos)
        self.pos += size
        return out

    def array(self) -> np.ndarray:
        rows, cols = self.unpack("<II")
        count = rows * cols
        size = 8 * count
        if self.pos + size > len(self.data):
            raise ValueError("truncated container")
        a = np.frombuffer(self.data, dtype="<f8", count=count, offset=self.pos)
        self.pos += size
        return a.reshape(rows, cols).copy()

    def end(self) -> None:
        if self.pos != len(self.data):
            raise ValueError("trailing bytes after the last field")


def _pack_kernel(kernel: KernelSpec) -> bytes:
    return struct.pack(
        "<BIdd", _KERNEL_KINDS.index(kernel.kind), kernel.degree,
        kernel.sigma, kernel.coef0,
    )


def _read_kernel(r: _Reader) -> KernelSpec:
    kind, degree, sigma, coef0 = r.unpack("<BIdd")
    if kind >= len(_KERNEL_KINDS):
        raise ValueError(f"unknown kernel kind {kind}")
    return KernelSpec(
        kind=_KERNEL_KINDS[kind], degree=degree, sigma=sigma, coef0=coef0
    )


def _header(kind: int) -> bytes:
    return MAGIC + struct.pack("<HH", FORMAT_VERSION, kind)


def _open(path) -> tuple[int, _Reader]:
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: not an LKDL container")
    r = _Reader(data)
    r.pos = 4
    version, kind = r.unpack("<HH")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    return kind, r


def save_nystrom_map(nmap: NystromMap, path) -> None:
    payload = (
        _header(KIND_NYSTROM_MAP)
        + _pack_kernel(nmap.kernel)
        + struct.pack("<IIIB", nmap.p, nmap.c, nmap.k, int(nmap.truncated))
        + _pack_array(nmap.X_R)
        + _pack_array(nmap.V_k)
        + _pack_array(nmap.sigma_k.reshape(1, -1))
    )
    Path(path).write_bytes(payload)


def load_nystrom_map(path) -> NystromMap:
    kind, r = _open(path)
    if kind != KIND_NYSTROM_MAP:
        raise ValueError(f"{path}: container holds kind {kind}, not a map")
    kernel = _read_kernel(r)
    p, c, k, truncated = r.unpack("<IIIB")
    X_R = r.array()
    V_k = r.array()
    sigma_k = r.array().ravel()
    r.end()
    if X_R.shape != (p, c) or V_k.shape != (c, k) or sigma_k.shape != (k,):
        raise ValueError(f"{path}: inconsistent container dimensions")
    if k == 0:
        raise ValueError(f"{path}: map has dimension k = 0")
    if not (np.all(np.isfinite(X_R)) and np.all(np.isfinite(V_k))):
        raise ValueError(f"{path}: map has non-finite landmarks or eigenvectors")
    if not np.all(np.isfinite(sigma_k) & (sigma_k > 0)):
        raise ValueError(f"{path}: map eigenvalues must be finite and positive")
    return NystromMap(
        kernel=kernel, X_R=X_R, V_k=V_k, sigma_k=sigma_k,
        truncated=bool(truncated),
    )


def save_model(model: ClassDictionaryModel | LCKSVDModel, path) -> None:
    """Save a classifier of either kind in its own container."""
    if isinstance(model, LCKSVDModel):
        payload = _header(KIND_LCKSVD_MODEL) + struct.pack(
            "<BIdd d", model.variant, model.q, model.sqrt_alpha,
            model.sqrt_beta, model.tau2,
        )
        arrays = [model.classes, model.D, model.T, model.Theta, model.atom_scales]
    else:
        payload = _header(KIND_CLASS_MODEL) + struct.pack(
            "<II", model.n_classes, model.q
        )
        arrays = [model.labels, *model.dictionaries]
    # vectors (labels, classes, atom scales) are stored as 1 x n matrices
    Path(path).write_bytes(payload + b"".join(map(_pack_array, arrays)))


def load_model(path) -> ClassDictionaryModel | LCKSVDModel:
    """Load a classifier container of either kind: a per-class model or an
    LC-KSVD model."""
    kind, r = _open(path)
    if kind == KIND_LCKSVD_MODEL:
        variant, q, sa, sb, tau2 = r.unpack("<BIdd d")
        classes = r.array().ravel().astype(np.int64)
        D, T, Theta = r.array(), r.array(), r.array()
        scales = r.array().ravel()
        r.end()
        if variant not in (1, 2):
            raise ValueError(f"{path}: unknown LC-KSVD variant {variant}")
        return LCKSVDModel(
            D=D, T=T, Theta=Theta, sqrt_alpha=sa, sqrt_beta=sb,
            variant=variant, tau2=tau2, q=q, classes=classes, atom_scales=scales,
        )
    if kind != KIND_CLASS_MODEL:
        raise ValueError(f"{path}: container holds kind {kind}, not a model")
    n_classes, q = r.unpack("<II")
    labels = r.array().ravel().astype(np.int64)
    dictionaries = [r.array() for _ in range(n_classes)]
    r.end()
    if q == 0:
        raise ValueError(f"{path}: class model has cardinality q = 0")
    if labels.size != n_classes or len({D.shape[0] for D in dictionaries}) != 1:
        raise ValueError(f"{path}: inconsistent container dimensions")
    return ClassDictionaryModel(labels=labels, dictionaries=dictionaries, q=q)
