import numpy as np
import pytest

from lkdl.classify import ClassDictionaryModel
from lkdl.kernels import KernelSpec
from lkdl.lcksvd import LCKSVDModel
from lkdl.nystrom import fit, transform
from lkdl.sampling import SamplerSpec
from lkdl.serialization import (
    FORMAT_VERSION,
    MAGIC,
    load_class_model,
    load_coefficient_dictionary,
    load_dictionary,
    load_lcksvd_model,
    load_model,
    load_nystrom_map,
    save_class_model,
    save_coefficient_dictionary,
    save_dictionary,
    save_lcksvd_model,
    save_model,
    save_nystrom_map,
)


def test_nystrom_map_round_trip(tmp_path):
    X = np.random.default_rng(0).standard_normal((4, 25))
    nmap = fit(
        X, KernelSpec(kind="gaussian", sigma=1.3),
        SamplerSpec(method="uniform", c=10, seed=1), k=6,
    )
    f = tmp_path / "map.lkdl"
    save_nystrom_map(nmap, f)
    back = load_nystrom_map(f)
    assert back.kernel == nmap.kernel
    assert np.array_equal(back.X_R, nmap.X_R)
    assert np.array_equal(back.V_k, nmap.V_k)
    assert np.array_equal(back.sigma_k, nmap.sigma_k)
    assert back.truncated == nmap.truncated
    # loaded map transforms identically (up to BLAS rounding: the loaded
    # eigenvector block is contiguous while the fitted one is a slice)
    Z = np.random.default_rng(1).standard_normal((4, 7))
    assert np.allclose(transform(back, Z), transform(nmap, Z), atol=1e-14)


def test_dictionary_round_trip(tmp_path):
    D = np.random.default_rng(2).standard_normal((6, 9))
    f = tmp_path / "dict.lkdl"
    save_dictionary(D, f)
    assert np.array_equal(load_dictionary(f), D)


def test_coefficient_dictionary_round_trip_and_kind_check(tmp_path):
    A = np.random.default_rng(3).standard_normal((12, 5))
    f = tmp_path / "coef.lkdl"
    save_coefficient_dictionary(A, f)
    assert np.array_equal(load_coefficient_dictionary(f), A)
    # the two dictionary kinds are not interchangeable
    with pytest.raises(ValueError, match="kind"):
        load_dictionary(f)


def test_class_model_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    model = ClassDictionaryModel(
        labels=np.array([1, 3, 9]),
        dictionaries=[rng.standard_normal((5, 4)) for _ in range(3)],
        q=2,
    )
    f = tmp_path / "model.lkdl"
    for save, load in ((save_class_model, load_class_model),
                       (save_model, load_model)):
        save(model, f)
        back = load(f)
        assert isinstance(back, ClassDictionaryModel)
        assert back.labels.tolist() == [1, 3, 9]
        assert back.q == 2
        for a, b in zip(back.dictionaries, model.dictionaries):
            assert np.array_equal(a, b)


def test_lcksvd_model_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    model = LCKSVDModel(
        D=rng.standard_normal((6, 8)),
        T=rng.standard_normal((8, 8)),
        Theta=rng.standard_normal((3, 8)),
        sqrt_alpha=1.5, sqrt_beta=0.5, variant=2, tau2=1e-4, q=3,
        classes=np.array([1, 2, 3]),
        atom_scales=rng.uniform(0.5, 2.0, 8),
    )
    f = tmp_path / "lcksvd.lkdl"
    for save, load in ((save_lcksvd_model, load_lcksvd_model),
                       (save_model, load_model)):
        save(model, f)
        back = load(f)
        assert isinstance(back, LCKSVDModel)
        assert np.array_equal(back.D, model.D)
        assert np.array_equal(back.T, model.T)
        assert np.array_equal(back.Theta, model.Theta)
        assert np.array_equal(back.atom_scales, model.atom_scales)
        assert back.classes.tolist() == [1, 2, 3]
        assert (back.variant, back.q) == (2, 3)
        assert back.sqrt_alpha == 1.5 and back.sqrt_beta == 0.5
        assert back.tau2 == 1e-4


def test_header_magic_and_version(tmp_path):
    D = np.eye(3)
    f = tmp_path / "dict.lkdl"
    save_dictionary(D, f)
    raw = f.read_bytes()
    assert raw[:4] == MAGIC == b"LKDL"
    version = int.from_bytes(raw[4:6], "little")
    assert version == FORMAT_VERSION


def test_corrupted_containers_rejected(tmp_path):
    D = np.random.default_rng(6).standard_normal((4, 4))
    f = tmp_path / "dict.lkdl"
    save_dictionary(D, f)
    raw = f.read_bytes()

    not_magic = tmp_path / "bad_magic.lkdl"
    not_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="container"):
        load_dictionary(not_magic)

    bad_version = tmp_path / "bad_version.lkdl"
    bad_version.write_bytes(raw[:4] + (99).to_bytes(2, "little") + raw[6:])
    with pytest.raises(ValueError, match="version"):
        load_dictionary(bad_version)

    truncated = tmp_path / "truncated.lkdl"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_dictionary(truncated)
