"""Binary archives: the shared reader, the on-disk layouts, malformed files."""

import struct
import tracemalloc

import numpy as np
import pytest

from lsmnet import archive, deeponet, nn, noisenet
from lsmnet.deeponet import TrainingSet

K = 2.0 * np.pi


def _rdon(path):
    trunk = deeponet.make_trunk(1.0, 1.0, 1.0, 0.3)
    model = deeponet.make_deeponet(trunk, 6, 6, seed=9)
    deeponet.save_deeponet(path, model)
    return model


def _rds1(path):
    rng = np.random.default_rng(3)
    count, m0, n0, p_h = 3, 4, 5, 9
    corpus = TrainingSet(
        rng.standard_normal((count, m0, n0)) + 1j * rng.standard_normal((count, m0, n0)),
        rng.uniform(-1.0, 1.0, (count, 2)), rng.uniform(0.5, 1.5, count),
        rng.uniform(0.0, 0.1, count), rng.integers(0, 2, (count, p_h), dtype=np.uint8),
        K)
    deeponet.save_training_set(path, corpus)
    return corpus


def _nnet(path):
    net = noisenet.make_noisenet(14, 10, seed=3)
    net.label_min, net.label_max = -2.5, 0.75
    noisenet.save_noisenet(path, net)
    return net


def _nds1(path):
    dataset = noisenet.gen_noise_dataset(K, 8, 12, seed=5, count=6)
    noisenet.save_noise_dataset(path, dataset)
    return dataset


# name: (writer, loader, bytes of magic and headers, header bytes whose
# flip must be refused).  The other header bytes are floats, where a
# flipped byte can still describe a well-formed archive; those flips must
# load or raise ValueError.  Both native-shape fields count: the one that
# min(m0, n0) does not see must still be within NATIVE_ASPECT of it.
MLP1_HEADER = 4 + 4 + 3 * 4 + 2
FORMATS = {
    "RDON": (_rdon, deeponet.load_deeponet, 52 + MLP1_HEADER,
             [*range(0, 4), *range(44, 52), *range(52, 52 + MLP1_HEADER)]),
    "RDS1": (_rds1, deeponet.load_training_set, 28, [*range(0, 20)]),
    "NNET": (_nnet, noisenet.load_noisenet, 28 + MLP1_HEADER,
             [*range(0, 12), *range(28, 28 + MLP1_HEADER)]),
    "NDS1": (_nds1, noisenet.load_noise_dataset, 24, [*range(0, 16)]),
}


@pytest.fixture
def guarded_trunk(monkeypatch):
    """Fail if any trunk centers are built: the loaders read and check
    headers and blobs only, so a corrupt archive raises before a size it
    claims is allocated."""
    def refuse(axis):
        pytest.fail(f"trunk centers built for a {len(axis)}-point axis")

    monkeypatch.setattr(deeponet, "tensor_points", refuse)


def _outcome(load, path, size):
    """None if the file loads, else the ValueError; bounds the allocation."""
    tracemalloc.start()
    try:
        load(path)
    except ValueError as err:
        assert str(path) in str(err)
        return err
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 8 * size + 2 ** 20, f"load allocated {peak} bytes"
    return None


@pytest.mark.parametrize("name", FORMATS)
def test_truncated_and_extended_archives_raise(name, tmp_path, guarded_trunk):
    write, load, header, _ = FORMATS[name]
    path = tmp_path / f"{name}.bin"
    write(path)
    blob = path.read_bytes()
    step = max(1, (len(blob) - header) // 40)
    lengths = [*range(header + 1), *range(header + 1, len(blob), step),
               len(blob) - 1]
    for length in lengths:
        path.write_bytes(blob[:length])
        assert _outcome(load, path, len(blob)) is not None, length
    path.write_bytes(blob + b"\x00")
    assert "trailing" in str(_outcome(load, path, len(blob)))


@pytest.mark.parametrize("name", FORMATS)
def test_flipped_header_bytes_load_or_raise(name, tmp_path, guarded_trunk):
    write, load, header, must_raise = FORMATS[name]
    path = tmp_path / f"{name}.bin"
    write(path)
    blob = path.read_bytes()
    loaded = []
    for offset in range(header):
        flipped = bytearray(blob)
        flipped[offset] ^= 0xFF
        path.write_bytes(flipped)
        if _outcome(load, path, len(blob)) is None:
            loaded.append(offset)
    assert not set(loaded) & set(must_raise)


@pytest.mark.parametrize("name, sign_byte", [("RDS1", 27), ("NDS1", 23)])
def test_negative_wavenumber_is_refused(name, sign_byte, tmp_path):
    write, load, _, _ = FORMATS[name]
    path = tmp_path / f"{name}.bin"
    write(path)
    blob = bytearray(path.read_bytes())
    blob[sign_byte] ^= 0x80                           # k -> -k
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="wavenumber must be positive") as err:
        load(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("name, byte", [("NNET", 7), ("NDS1", 15)])
def test_unseen_native_side_is_bounded(name, byte, tmp_path):
    """A flipped top byte of the shape field min(m0, n0) does not see makes
    m0 = 4,278,190,094, a 3 TiB native matrix for predict_delta; the loader
    refuses it, naming the file and the field."""
    write, load, _, _ = FORMATS[name]
    path = tmp_path / f"{name}.bin"
    write(path)
    blob = bytearray(path.read_bytes())
    blob[byte] ^= 0xFF
    path.write_bytes(blob)
    err = _outcome(load, path, len(blob))
    assert err is not None and "native shape (m0, n0) = (" in str(err)


def test_trunk_is_checked_against_the_branch_before_it_is_built(
        tmp_path, monkeypatch):
    path = tmp_path / "model.bin"
    _rdon(path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<d", blob, 4 + 2 * 8, 1e-3)    # h: 2001^2 centers
    path.write_bytes(blob)

    def refuse(axis):
        pytest.fail("trunk centers built before the header was checked")

    monkeypatch.setattr(deeponet, "tensor_points", refuse)
    with pytest.raises(ValueError, match="does not give the branch's 9 outputs") as err:
        deeponet.load_deeponet(path)
    assert "model.bin" in str(err.value)


def test_spacing_without_finite_shape_parameter_is_refused(tmp_path):
    """lam = h = 1e-170 and L = 1 still give the branch's 3 x 3 centers,
    but h ** 2 underflows to 0, so -ln(s) / h ** 2 has no value."""
    path = tmp_path / "model.bin"
    _rdon(path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<d", blob, 4, 1e-170)            # lam
    struct.pack_into("<d", blob, 4 + 2 * 8, 1e-170)    # h
    path.write_bytes(blob)
    with pytest.raises(ValueError, match=r"spacing h=1e-170") as err:
        deeponet.load_deeponet(path)
    assert "model.bin" in str(err.value)


def test_reader_checks_bounds_before_reading():
    reader = archive.Reader(struct.pack("<I", 7) + b"\x00" * 8)
    assert reader.header("I") == (7,)
    with pytest.raises(ValueError, match="needs 16 bytes at offset 4, 8 left"):
        reader.array("<f8", (2, 1))
    assert reader.offset == 4
    np.testing.assert_array_equal(reader.array("<f8", (1,)), [0.0])
    assert reader.offset == len(reader.blob)


# -- layouts as the README's "Binary formats" table states them ----------

def _check_mlp1(blob, offset, mlp):
    magic, count = struct.unpack_from("<4sI", blob, offset)
    assert (magic, count) == (b"MLP1", len(mlp.sizes))
    offset += 8
    assert struct.unpack_from(f"<{count}I", blob, offset) == mlp.sizes
    offset += 4 * count
    codes = struct.unpack_from("<BB", blob, offset)
    assert codes == (nn.ACTIVATIONS.index(mlp.activation),
                     nn.OUTPUTS.index(mlp.output))
    offset += 2
    for w, b in zip(mlp.weights, mlp.biases):
        for values in (w, b):
            stored = np.frombuffer(blob, "<f8", values.size, offset)
            np.testing.assert_array_equal(stored.reshape(values.shape), values)
            offset += 8 * values.size
    return offset


def _check_arrays(blob, offset, arrays):
    for dtype, values in arrays:
        stored = np.frombuffer(blob, dtype, values.size, offset)
        np.testing.assert_array_equal(stored.reshape(values.shape), values)
        offset += stored.nbytes
    assert offset == len(blob)


def test_rdon_layout(tmp_path):
    path = tmp_path / "model.bin"
    model = _rdon(path)
    blob = path.read_bytes()
    trunk = model.trunk
    assert struct.unpack_from("<4s5d2I", blob) == (
        b"RDON", trunk.lam, trunk.L, trunk.h, trunk.s, trunk.epsilon, 6, 6)
    assert _check_mlp1(blob, 52, model.branch) == len(blob)


def test_rds1_layout(tmp_path):
    path = tmp_path / "set.bin"
    corpus = _rds1(path)
    blob = path.read_bytes()
    assert struct.unpack_from("<4s4Id", blob) == (b"RDS1", 3, 4, 5, 9, K)
    _check_arrays(blob, 28, [("<c16", corpus.matrices), ("<f8", corpus.centers),
                             ("<f8", corpus.radii), ("<f8", corpus.etas),
                             ("u1", corpus.labels)])


def test_nnet_layout(tmp_path):
    path = tmp_path / "est.bin"
    net = _nnet(path)
    blob = path.read_bytes()
    assert struct.unpack_from("<4s2I2d", blob) == (b"NNET", 14, 10, -2.5, 0.75)
    assert _check_mlp1(blob, 28, net.mlp) == len(blob)


def test_nds1_layout(tmp_path):
    path = tmp_path / "ds.bin"
    dataset = _nds1(path)
    blob = path.read_bytes()
    assert struct.unpack_from("<4s3Id", blob) == (b"NDS1", 6, 8, 12, K)
    _check_arrays(blob, 24, [("<f8", dataset.features), ("<f8", dataset.labels),
                             ("<f8", dataset.etas), ("<f8", dataset.radii),
                             ("<f8", dataset.deltas)])
