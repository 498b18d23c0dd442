"""Kernelized dictionary learning through landmark virtual samples.

The package turns any linear dictionary-learning pipeline into a kernel one:
approximate the kernel matrix from a sampled landmark set, factor it into
finite-dimensional "virtual samples", and run standard sparse-coding-based
learning and classification on those. Exact-kernel learning (KOMP plus the
batch coefficient-dictionary update) is included as the reference baseline,
and label-consistent dictionary learning as the supervised extension.
"""

__version__ = "0.1.0"

from .kernels import KernelSpec, kernel_eval, kernel_matrix
from .sampling import LandmarkSet, SamplerSpec, select_landmarks
from .nystrom import (
    NystromMap,
    approximation_error,
    exact_virtual_samples,
    fit,
    transform,
)
from .sparse_coding import SparseCode, komp, omp, omp_batch
from .dict_learning import LearnReport, kernel_mod_learn, learn
from .classify import ClassDictionaryModel, classify_batch, train_per_class
from .lcksvd import LCKSVDModel, build_label_structures
from .datasets import LabeledDataset

__all__ = [
    "KernelSpec", "kernel_eval", "kernel_matrix",
    "LandmarkSet", "SamplerSpec", "select_landmarks",
    "NystromMap", "fit", "transform", "exact_virtual_samples",
    "approximation_error",
    "SparseCode", "omp", "omp_batch", "komp",
    "LearnReport", "learn", "kernel_mod_learn",
    "ClassDictionaryModel", "train_per_class", "classify_batch",
    "LCKSVDModel", "build_label_structures",
    "LabeledDataset",
    "__version__",
]
