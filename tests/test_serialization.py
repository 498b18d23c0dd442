import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lkdl.classify import ClassDictionaryModel
from lkdl.kernels import KernelSpec
from lkdl.lcksvd import LCKSVDModel
from lkdl.nystrom import NystromMap, fit, transform
from lkdl.sampling import SamplerSpec
from lkdl.serialization import (
    FORMAT_VERSION,
    MAGIC,
    load_model,
    load_nystrom_map,
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


def test_class_model_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    model = ClassDictionaryModel(
        labels=np.array([1, 3, 9]),
        dictionaries=[rng.standard_normal((5, 4)) for _ in range(3)],
        q=2,
    )
    f = tmp_path / "model.lkdl"
    save_model(model, f)
    back = load_model(f)
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
    save_model(model, f)
    back = load_model(f)
    assert isinstance(back, LCKSVDModel)
    assert np.array_equal(back.D, model.D)
    assert np.array_equal(back.T, model.T)
    assert np.array_equal(back.Theta, model.Theta)
    assert np.array_equal(back.atom_scales, model.atom_scales)
    assert back.classes.tolist() == [1, 2, 3]
    assert (back.variant, back.q) == (2, 3)
    assert back.sqrt_alpha == 1.5 and back.sqrt_beta == 0.5
    assert back.tau2 == 1e-4


def _class_model(rng, n_classes=3, d=5, m=4, q=2):
    return ClassDictionaryModel(
        labels=np.arange(n_classes) * 2 + 1,
        dictionaries=[rng.standard_normal((d, m)) for _ in range(n_classes)],
        q=q,
    )


def test_header_magic_and_version(tmp_path):
    f = tmp_path / "model.lkdl"
    save_model(_class_model(np.random.default_rng(6)), f)
    raw = f.read_bytes()
    assert raw[:4] == MAGIC == b"LKDL"
    version = int.from_bytes(raw[4:6], "little")
    assert version == FORMAT_VERSION


def test_corrupted_containers_rejected(tmp_path):
    f = tmp_path / "model.lkdl"
    save_model(_class_model(np.random.default_rng(6)), f)
    raw = f.read_bytes()

    not_magic = tmp_path / "bad_magic.lkdl"
    not_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="container"):
        load_model(not_magic)

    bad_version = tmp_path / "bad_version.lkdl"
    bad_version.write_bytes(raw[:4] + (99).to_bytes(2, "little") + raw[6:])
    with pytest.raises(ValueError, match="version"):
        load_model(bad_version)

    truncated = tmp_path / "truncated.lkdl"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_model(truncated)


def _saved_map(tmp_path, **fields):
    """A fitted map saved with ``fields`` replaced (any shape), and its path."""
    X = np.random.default_rng(8).standard_normal((3, 20))
    nmap = fit(
        X, KernelSpec(kind="gaussian", sigma=1.5),
        SamplerSpec(method="uniform", c=6, seed=2), k=4,
    )
    f = tmp_path / "map.lkdl"
    save_nystrom_map(NystromMap(**{**vars(nmap), **fields}), f)
    return nmap, f


def test_map_of_dimension_zero_rejected(tmp_path):
    # a k = 0 map would transform every sample to an empty feature vector
    _, f = _saved_map(tmp_path, V_k=np.empty((6, 0)), sigma_k=np.empty(0))
    with pytest.raises(ValueError, match="k = 0"):
        load_nystrom_map(f)


@pytest.mark.parametrize("field", ["X_R", "V_k"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_map_with_non_finite_arrays_rejected(tmp_path, field, value):
    nmap, _ = _saved_map(tmp_path)
    a = getattr(nmap, field).copy()
    a[1, 2] = value
    _, f = _saved_map(tmp_path, **{field: a})
    with pytest.raises(ValueError, match="non-finite"):
        load_nystrom_map(f)


@pytest.mark.parametrize("value", [-1.0, np.nan, 0.0, np.inf])
def test_map_with_bad_eigenvalue_rejected(tmp_path, value):
    # transform scales by sigma^(-1/2): these give non-finite or zero features
    nmap, _ = _saved_map(tmp_path)
    sigma_k = nmap.sigma_k.copy()
    sigma_k[-1] = value
    _, f = _saved_map(tmp_path, sigma_k=sigma_k)
    with pytest.raises(ValueError, match="finite and positive"):
        load_nystrom_map(f)


@pytest.mark.parametrize("offset", [13, 21])  # sigma, coef0 of the kernel
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_map_with_non_finite_kernel_parameter_rejected(tmp_path, offset, value):
    # the kernel field (u8 kind, u32 degree, f64 sigma, f64 coef0) follows
    # the 8-byte header
    _, f = _saved_map(tmp_path)
    raw = f.read_bytes()
    f.write_bytes(raw[:offset] + np.float64(value).tobytes() + raw[offset + 8:])
    with pytest.raises(ValueError, match="finite"):
        load_nystrom_map(f)


def test_corrupt_but_well_formed_models_rejected(tmp_path):
    # every field parses, but the model it describes cannot classify
    f = tmp_path / "model.lkdl"
    save_model(_class_model(np.random.default_rng(6)), f)
    raw = f.read_bytes()
    # q is the u32 after the 8-byte header and the u32 class count
    f.write_bytes(raw[:12] + (0).to_bytes(4, "little") + raw[16:])
    with pytest.raises(ValueError, match="q = 0"):
        load_model(f)
    rng = np.random.default_rng(7)
    for labels, rows in (([1, 2], (4, 5)), ([1, 2, 3], (4, 4)), ([], ())):
        save_model(ClassDictionaryModel(
            labels=np.array(labels),
            dictionaries=[rng.standard_normal((d, 3)) for d in rows], q=1,
        ), f)
        with pytest.raises(ValueError, match="dimensions"):
            load_model(f)
    save_model(_random_artifact("lcksvd", 0)[0], f)
    raw = f.read_bytes()
    # the variant byte follows the 8-byte header
    for variant in (0, 3, 7, 255):
        f.write_bytes(raw[:8] + bytes([variant]) + raw[9:])
        with pytest.raises(ValueError, match="variant"):
            load_model(f)

def _random_artifact(kind, seed):
    """A random artifact of ``kind`` with its (save, load) pair."""
    rng = np.random.default_rng(seed)
    if kind == "map":
        X = rng.standard_normal((int(rng.integers(1, 4)), 12))
        nmap = fit(
            X, KernelSpec(kind="gaussian", sigma=1.0 + rng.random()),
            SamplerSpec(method="uniform", c=int(rng.integers(1, 7)), seed=seed),
            k=1,
        )
        return nmap, save_nystrom_map, load_nystrom_map
    if kind == "class_model":
        model = _class_model(rng, *(int(v) for v in rng.integers(1, 4, size=4)))
        return model, save_model, load_model
    d, m, L = (int(v) for v in rng.integers(1, 4, size=3))
    model = LCKSVDModel(
        D=rng.standard_normal((d, m)), T=rng.standard_normal((m, m)),
        Theta=rng.standard_normal((L, m)), sqrt_alpha=float(rng.random()),
        sqrt_beta=float(rng.random()), variant=int(rng.integers(1, 3)),
        tau2=1e-4, q=int(rng.integers(1, 4)), classes=np.arange(L),
        atom_scales=rng.random(m),
    )
    return model, save_model, load_model


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(["map", "class_model", "lcksvd"]),
    seed=st.integers(0, 2**32 - 1),
    extra=st.binary(min_size=1, max_size=1),
    kernel_kind=st.integers(3, 255),
)
def test_containers_round_trip_and_reject_corruption(
    tmp_path_factory, kind, seed, extra, kernel_kind
):
    tmp = tmp_path_factory.mktemp("containers")
    f, again = tmp / "artifact.lkdl", tmp / "again.lkdl"
    artifact, save, load = _random_artifact(kind, seed)
    save(artifact, f)
    raw = f.read_bytes()
    # the loaded artifact saves to the same bytes: every field came back
    save(load(f), again)
    assert again.read_bytes() == raw
    # every truncation, then one appended byte
    for size in range(len(raw)):
        f.write_bytes(raw[:size])
        with pytest.raises(ValueError):
            load(f)
    f.write_bytes(raw + extra)
    with pytest.raises(ValueError, match="trailing"):
        load(f)
    if kind == "map":
        # the kernel-kind byte follows the 8-byte header
        f.write_bytes(raw[:8] + bytes([kernel_kind]) + raw[9:])
        with pytest.raises(ValueError, match="kernel kind"):
            load(f)
