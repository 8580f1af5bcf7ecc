import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x: only the byte pins, recorded on numpy 2.4, fail
    __cpu_features__ = {}

from shockline import DampingLaw, GasModel, Grid
from shockline.fields import init_field


def kernel_path(x86_v4, x86_v3):
    """The value of a byte pin on the float kernels numpy dispatches to:
    x86_v4 on its AVX-512 (X86_V4) kernels, x86_v3 on the AVX2 (X86_V3)
    ones it uses on a CPU without AVX-512 or with X86_V4 disabled through
    NPY_DISABLE_CPU_FEATURES.  The two can differ in the last bit of a
    power, exp or log, and a run carries that into its outputs.  A
    machine whose numpy names no X86_V4 feature (not x86-64) gets x86_v3,
    which need not hold there: the pins fail, the rest of the module runs."""
    return x86_v4 if __cpu_features__.get("X86_V4", False) else x86_v3


@pytest.fixture
def gm2():
    return GasModel(gamma=2.0, big_k=1.0)


@pytest.fixture
def gm5():
    return GasModel(gamma=5.0, big_k=1.0)


@pytest.fixture
def dl_const():
    return DampingLaw(alpha=1.0, lam=0.0)


@pytest.fixture
def dl_crit():
    return DampingLaw(alpha=1.0, lam=1.0)


@pytest.fixture
def grid128():
    return Grid(n=128, length=10.0)


@pytest.fixture
def sine_field(gm2, dl_const, grid128):
    return init_field(
        {"preset": "sine", "tau0": 1.0, "u_amp": -0.2}, grid128, gm2, dl_const
    )


def rng(seed=0):
    return np.random.default_rng(seed)
