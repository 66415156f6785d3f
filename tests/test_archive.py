"""Binary archives: the shared reader, the on-disk layouts, malformed files."""

import dataclasses
import math
import struct
import tracemalloc
from fractions import Fraction

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
        rng.integers(0, 2, (count, p_h), dtype=np.uint8), K)
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


def test_reader_checks_bounds_before_reading(open_blob):
    reader = archive.Reader(open_blob(struct.pack("<I", 7) + b"\x00" * 8))
    assert reader.header("I") == (7,)
    with pytest.raises(ValueError, match="needs 16 bytes at offset 4, 8 left"):
        reader.array("<f8", (2, 1))
    assert reader.offset == 4
    np.testing.assert_array_equal(reader.array("<f8", (1,)), [0.0])
    assert reader.offset == reader.length


# -- what a loader hands back -------------------------------------------

SAVERS = {"RDON": deeponet.save_deeponet, "RDS1": deeponet.save_training_set,
          "NNET": noisenet.save_noisenet, "NDS1": noisenet.save_noise_dataset}


def _arrays(loaded):
    """Every array a loaded object holds, its network's included."""
    if isinstance(loaded, np.ndarray):
        return [loaded]
    if isinstance(loaded, (list, tuple)):
        return [values for item in loaded for values in _arrays(item)]
    if dataclasses.is_dataclass(loaded):
        return [values for field in dataclasses.fields(loaded)
                for values in _arrays(getattr(loaded, field.name))]
    return []


@pytest.mark.parametrize("name", FORMATS)
def test_loaded_arrays_are_aligned_writable_and_their_own(name, tmp_path):
    write, load, _, _ = FORMATS[name]
    path = tmp_path / f"{name}.bin"
    write(path)
    arrays = _arrays(load(path))
    assert len(arrays) >= 4
    for values in arrays:
        assert values.flags.c_contiguous and values.flags.aligned
        assert values.flags.writeable and values.flags.owndata


@pytest.mark.parametrize("name", FORMATS)
def test_loaded_arrays_outlive_their_file(name, tmp_path):
    """Another save truncates and rewrites the file, and then it is
    deleted; neither reaches what was loaded from it."""
    write, load, _, _ = FORMATS[name]
    path = tmp_path / f"{name}.bin"
    write(path)
    loaded = load(path)
    kept = [values.copy() for values in _arrays(loaded)]
    other = load(path)
    for values in _arrays(other):
        values[...] = ~values if values.dtype == np.uint8 else -values - 1.0
    blob = path.read_bytes()
    SAVERS[name](path, other)
    assert path.read_bytes() != blob
    for gone in (False, True):
        if gone:
            path.unlink()
        for values, copy in zip(_arrays(loaded), kept, strict=True):
            np.testing.assert_array_equal(values, copy)


class _ShortRead:
    """A file whose readinto number `short` delivers one byte less than
    asked, as when the file shrinks while it is read; counts the calls."""

    def __init__(self, fh, short=None):
        self.fh, self.short, self.calls = fh, short, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fileno(self):
        return self.fh.fileno()

    def readinto(self, buffer):
        self.calls += 1
        flat = np.frombuffer(buffer, np.uint8)
        if self.calls == self.short:
            flat = flat[:-1]
        return self.fh.readinto(flat)


@pytest.mark.parametrize("name", FORMATS)
def test_short_read_raises_naming_the_file(name, tmp_path, monkeypatch):
    write, load, _, _ = FORMATS[name]
    path = tmp_path / f"{name}.bin"
    write(path)
    opened = []

    def open_short(short):
        def open_(file, mode):
            opened.append(_ShortRead(open(file, mode), short))
            return opened[-1]
        return open_

    monkeypatch.setattr(archive, "open", open_short(None), raising=False)
    load(path)
    calls = opened[-1].calls
    assert calls >= 5
    for short in range(1, calls + 1):
        monkeypatch.setattr(archive, "open", open_short(short), raising=False)
        with pytest.raises(ValueError, match="truncated archive: .* the file "
                                             "shrank while it was read") as err:
            load(path)
        assert str(err.value).startswith(f"{path}: "), short


def test_rdon_load_holds_one_copy_of_the_weights(tmp_path):
    """A 3.6 MB model loads within its own size plus 1 MiB: the weights
    are read into their arrays, not into a whole-file buffer first."""
    path = tmp_path / "model.bin"
    trunk = deeponet.make_trunk(1.0, 2.0, 0.5, 0.3)
    deeponet.save_deeponet(path, deeponet.make_deeponet(trunk, 30, 30, seed=2))
    size = path.stat().st_size
    assert size > 3 * 2 ** 20
    tracemalloc.start()
    try:
        model = deeponet.load_deeponet(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.branch.sizes == (1800, 243, 81)
    assert size - 2 ** 10 < peak < size + 2 ** 20, peak


def test_non_contiguous_arrays_are_written_as_their_contiguous_copies(
        tmp_path):
    net = noisenet.make_noisenet(14, 10, seed=3)
    transposed = np.asfortranarray(net.mlp.weights[0])
    assert not transposed.flags.c_contiguous
    noisenet.save_noisenet(tmp_path / "contiguous.bin", net)
    net.mlp.weights[0] = transposed
    noisenet.save_noisenet(tmp_path / "transposed.bin", net)
    assert (tmp_path / "transposed.bin").read_bytes() == \
        (tmp_path / "contiguous.bin").read_bytes()

    corpus = _rds1(tmp_path / "rows.bin")
    columns = dataclasses.replace(
        corpus, matrices=np.asfortranarray(corpus.matrices),
        centers=np.asfortranarray(corpus.centers))
    assert not columns.matrices.flags.c_contiguous
    deeponet.save_training_set(tmp_path / "columns.bin", columns)
    assert (tmp_path / "columns.bin").read_bytes() == \
        (tmp_path / "rows.bin").read_bytes()


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
                             ("<f8", corpus.radii), ("u1", corpus.labels)])


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


def test_write_lines_is_utf8_with_one_lf_per_line(tmp_path):
    path = tmp_path / "lines.txt"
    archive.write_lines(path, ["x,y,value", "λ = 2π/k", "", "last"])
    assert path.read_bytes() == \
        b"x,y,value\n\xce\xbb = 2\xcf\x80/k\n\nlast\n"
    # A line that carries its own newlines, as the CSV rows do, gets
    # only the one final LF added.
    archive.write_lines(path, ("header", "a\nb"))
    assert path.read_bytes() == b"header\na\nb\n"


# -- format_g17 against '%.17g' itself ----------------------------------------

def _printf_matrix(values):
    """The oracle: `'%.17g' %` of each value, NUL-padded like format_g17."""
    return np.array([b"%.17g" % v for v in values.tolist()],
                    dtype=f"S{archive.G17_WIDTH}").view(np.uint8).reshape(
                        -1, archive.G17_WIDTH)


def _exact_exponent(value):
    """floor(log10 |value|), decided in exact rationals."""
    exact = abs(Fraction(value))
    e = math.floor(math.log10(value) if value > 0 else math.log10(-value))
    while Fraction(10) ** e > exact:
        e -= 1
    while Fraction(10) ** (e + 1) <= exact:
        e += 1
    return e


def _g17_cases():
    rng = np.random.default_rng(2024)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    powers = np.concatenate([powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf)])
    # Each side of the fixed/scientific switches: 40 doubles on either side
    # of 1e-4 and 1e17, and of the largest values that still round below them.
    switches = np.concatenate([
        start * np.ones(81) + np.arange(-40, 41) * np.spacing(start)
        for start in (1e-4, 9.9999999999999995e-5, 1e17, 99999999999999992.0, 1e16)])
    # odd / 2**17, for odd between 2**17 and 2**18, has 18 significant
    # digits, the last a 5: an exact tie at 17 digits (131073 / 131072 =
    # 1.00000762939453125), moved by powers of ten it absorbs exactly.
    odd = np.append(rng.choice(np.arange(2 ** 17 + 3, 2 ** 18, 2), size=4095,
                               replace=False), 131073)
    ties = np.concatenate([odd / 2.0 ** 17 * 10.0 ** j for j in range(16)])
    subnormals = rng.integers(1, 2 ** 52, size=2000, dtype=np.uint64).view(np.float64)
    cases = {
        "bits": rng.integers(0, 2 ** 64, size=300_000, dtype=np.uint64).view(np.float64),
        "scaled normals": rng.standard_normal(100_000)
        * 10.0 ** rng.integers(-40, 40, size=100_000),
        "integers": np.arange(-20_000.0, 20_000.0),
        "powers": powers, "switches": switches, "ties": ties,
        "subnormals": subnormals,
        "specials": np.array([0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308,
                              1.7976931348623157e308, 1e-280, 1e280]),
    }
    return {name: np.concatenate([v, -v]) for name, v in cases.items()}


def test_format_g17_is_printf_byte_for_byte(monkeypatch):
    """Over a million values, every row is what `'%.17g' %` prints; and
    each fallback category was actually printed by the fallback."""
    cases = _g17_cases()
    values = np.concatenate(list(cases.values()))
    assert values.size >= 1_000_000
    printed = []
    printf = archive._printf
    monkeypatch.setattr(archive, "_printf",
                        lambda v: printed.append(v.copy()) or printf(v))
    got = archive.format_g17(values)
    want = _printf_matrix(values)
    bad = np.flatnonzero((got != want).any(axis=1))
    assert bad.size == 0, [(values[i], got[i].tobytes(), want[i].tobytes())
                           for i in bad[:5]]
    fell = np.concatenate(printed)
    magnitude = np.abs(fell)
    assert np.isin(cases["ties"], fell).all()
    assert (fell == 0.0).any() and np.signbit(fell[fell == 0.0]).any()
    assert np.isnan(fell).any() and np.isinf(fell).any()
    assert ((magnitude > 0.0) & (magnitude < 1e-280)).any()
    assert ((magnitude > 1e280) & np.isfinite(magnitude)).any()
    # In range, the double-double product decided every value but those
    # within the tie window of a half-unit tie (exact ties, mostly) and
    # those scaled to within it of 10**16, where one retry may not settle E.
    in_range = fell[(magnitude >= 1e-280) & (magnitude <= 1e280)]
    assert in_range.size < 0.2 * values.size
    for value in in_range[~np.isin(in_range, cases["ties"])].tolist():
        scaled = abs(Fraction(value)) * Fraction(10) ** (16 - _exact_exponent(value))
        assert (abs(scaled - math.floor(scaled) - Fraction(1, 2)) < 1e-9
                or abs(scaled - 10 ** 16) < 1e-9), value


def test_format_g17_cases_reach_the_exponent_retry_and_the_carry():
    """Some neighbours of powers of ten have floor(log10) one off their
    exponent (the retry), and some round up to the next power (the carry)."""
    powers = _g17_cases()["powers"]
    powers = powers[(np.abs(powers) >= 1e-280) & (np.abs(powers) <= 1e280)]
    exact = np.array([_exact_exponent(v) for v in powers.tolist()])
    assert (np.floor(np.log10(np.abs(powers))) != exact).any()
    text = _printf_matrix(powers).view(f"S{archive.G17_WIDTH}").ravel()
    carried = [v for v, t in zip(powers.tolist(), text.tolist())
               if t.lstrip(b"-").startswith(b"1e")
               and abs(Fraction(v)) < Fraction(10) ** int(t.split(b"e")[1])]
    assert carried


@pytest.mark.parametrize("values", [np.zeros(0), np.array([0.25]),
                                    np.array([[1.5, -2.0], [1e300, np.nan]])])
def test_format_g17_shapes(values):
    """Any shape is flattened to one row per value; an empty array gives
    an empty matrix."""
    got = archive.format_g17(values)
    assert got.shape == (values.size, archive.G17_WIDTH) and got.dtype == np.uint8
    np.testing.assert_array_equal(got, _printf_matrix(values.ravel()))
