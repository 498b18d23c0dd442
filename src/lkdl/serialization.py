"""Versioned binary container for fitted artifacts.

Layout (all little-endian): magic "LKDL", format version u16, record kind
u16, then kind-specific fields. Matrices are stored as u32 rows, u32 cols
followed by row-major float64 data.
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
KIND_DICTIONARY = 2
KIND_COEFFICIENT_DICTIONARY = 3
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


def _pack_kernel(kernel: KernelSpec) -> bytes:
    return struct.pack(
        "<BIdd", _KERNEL_KINDS.index(kernel.kind), kernel.degree,
        kernel.sigma, kernel.coef0,
    )


def _read_kernel(r: _Reader) -> KernelSpec:
    kind, degree, sigma, coef0 = r.unpack("<BIdd")
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
    if X_R.shape != (p, c) or V_k.shape != (c, k) or sigma_k.shape != (k,):
        raise ValueError(f"{path}: inconsistent container dimensions")
    return NystromMap(
        kernel=kernel, X_R=X_R, V_k=V_k, sigma_k=sigma_k,
        truncated=bool(truncated),
    )


def save_dictionary(D: np.ndarray, path, kind: int = KIND_DICTIONARY) -> None:
    Path(path).write_bytes(_header(kind) + _pack_array(D))


def load_dictionary(path, kind: int = KIND_DICTIONARY) -> np.ndarray:
    got, r = _open(path)
    if got != kind:
        raise ValueError(f"{path}: container holds kind {got}, expected {kind}")
    return r.array()


def save_coefficient_dictionary(A: np.ndarray, path) -> None:
    save_dictionary(A, path, kind=KIND_COEFFICIENT_DICTIONARY)


def load_coefficient_dictionary(path) -> np.ndarray:
    return load_dictionary(path, kind=KIND_COEFFICIENT_DICTIONARY)


def save_class_model(model: ClassDictionaryModel, path) -> None:
    payload = _header(KIND_CLASS_MODEL) + struct.pack(
        "<II", model.n_classes, model.q
    )
    payload += _pack_array(np.asarray(model.labels, dtype=np.float64).reshape(1, -1))
    for D in model.dictionaries:
        payload += _pack_array(D)
    Path(path).write_bytes(payload)


def load_class_model(path) -> ClassDictionaryModel:
    kind, r = _open(path)
    if kind != KIND_CLASS_MODEL:
        raise ValueError(f"{path}: container holds kind {kind}, not a model")
    n_classes, q = r.unpack("<II")
    labels = r.array().ravel().astype(np.int64)
    dictionaries = [r.array() for _ in range(n_classes)]
    return ClassDictionaryModel(labels=labels, dictionaries=dictionaries, q=q)


def save_model(model: ClassDictionaryModel | LCKSVDModel, path) -> None:
    """Save a classifier of either kind in its own container."""
    if isinstance(model, LCKSVDModel):
        save_lcksvd_model(model, path)
    else:
        save_class_model(model, path)


def load_model(path) -> ClassDictionaryModel | LCKSVDModel:
    """Load a classifier container of either kind: a per-class model or an
    LC-KSVD model."""
    kind, _ = _open(path)
    if kind == KIND_LCKSVD_MODEL:
        return load_lcksvd_model(path)
    return load_class_model(path)


def save_lcksvd_model(model: LCKSVDModel, path) -> None:
    payload = _header(KIND_LCKSVD_MODEL) + struct.pack(
        "<BIdd d", model.variant, model.q, model.sqrt_alpha, model.sqrt_beta,
        model.tau2,
    )
    payload += _pack_array(np.asarray(model.classes, dtype=np.float64).reshape(1, -1))
    payload += _pack_array(model.D)
    payload += _pack_array(model.T)
    payload += _pack_array(model.Theta)
    payload += _pack_array(model.atom_scales.reshape(1, -1))
    Path(path).write_bytes(payload)


def load_lcksvd_model(path) -> LCKSVDModel:
    kind, r = _open(path)
    if kind != KIND_LCKSVD_MODEL:
        raise ValueError(f"{path}: container holds kind {kind}, not a model")
    variant, q, sa, sb, tau2 = r.unpack("<BIdd d")
    classes = r.array().ravel().astype(np.int64)
    D = r.array()
    T = r.array()
    Theta = r.array()
    scales = r.array().ravel()
    return LCKSVDModel(
        D=D, T=T, Theta=Theta, sqrt_alpha=sa, sqrt_beta=sb,
        variant=variant, tau2=tau2, q=q, classes=classes, atom_scales=scales,
    )
