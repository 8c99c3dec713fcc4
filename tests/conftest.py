import numpy as np
import pytest

FREQ_100GHZ = 100e9
C0 = 299_792_458.0
WAVELENGTH_100GHZ = C0 / FREQ_100GHZ


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def csv_oracle():
    """The per-row formula every nfbeam CSV must reproduce byte for byte."""

    def text(header, columns):
        rows = zip(*(np.asarray(c).tolist() for c in columns))
        return header + "\n" + "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows)

    return text
