import numpy as np

from nfbeam.heatmap import PGM_MAXVAL, write_pgm16


def read_pgm16(path):
    """Pixels of a binary 16-bit graymap as (rows top-to-bottom, columns)."""
    blob = path.read_bytes()
    magic, size, maxval, data = blob.split(b"\n", 3)
    assert magic == b"P5" and int(maxval) == PGM_MAXVAL
    width, height = map(int, size.split())
    return np.frombuffer(data, dtype=">u2").reshape(height, width)


def test_min_and_max_map_to_ends(tmp_path):
    values = np.array([[-2.0, 0.5], [1.0, 3.0], [0.0, -1.0]])
    assert write_pgm16(values, tmp_path / "a.pgm") == (-2.0, 3.0)
    pixels = read_pgm16(tmp_path / "a.pgm")
    assert pixels.min() == 0 and pixels.max() == PGM_MAXVAL
    # interior values map linearly: values[1, 0] = 1.0 sits 3/5 of the way up
    assert pixels[1, 1] == round(3.0 / 5.0 * PGM_MAXVAL)


def test_orientation(tmp_path):
    # values[i1, i2]: the first axis runs left to right, the second bottom to top
    values = np.zeros((3, 2))
    values[2, 0] = 1.0  # rightmost column, bottom row
    write_pgm16(values, tmp_path / "o.pgm")
    pixels = read_pgm16(tmp_path / "o.pgm")
    assert pixels.shape == (2, 3)
    expected = np.zeros((2, 3), dtype=int)
    expected[1, 2] = PGM_MAXVAL
    np.testing.assert_array_equal(pixels, expected)


def test_constant_input_is_all_zeros(tmp_path):
    assert write_pgm16(np.full((4, 3), 7.5), tmp_path / "c.pgm") == (7.5, 7.5)
    pixels = read_pgm16(tmp_path / "c.pgm")
    assert pixels.shape == (3, 4)
    assert not pixels.any()
