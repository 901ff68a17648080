"""Shared builders for the small composite systems used across the suite, and a fresh interpreter's environment."""

import os
from pathlib import Path

import numpy as np
import pytest

from edgesense.master_eq import _openblas_threads
from edgesense.lattice import build_ssh
from edgesense.leads import RingLead, assemble_composite

MU_BIAS = np.pi / 40
SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def child_env(**thread_vars: str) -> dict[str, str]:
    """The environment of a fresh interpreter on this checkout's src, with only the given thread variables."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {**env, **thread_vars}


def make_ssh_system(
    length=4,
    ring=8,
    mu=MU_BIAS,
    gamma=0.05,
    epsilon=0.2,
    gate=0.0,
    beta=np.inf,
    hop_lead=1.0,
):
    """SSH chain between two biased rings; defaults give N=20."""
    lat = build_ssh(length, 0.5, 1.0, gate)
    left = RingLead(size=ring, hop=hop_lead, mu=mu, beta=beta, gamma=gamma)
    right = RingLead(size=ring, hop=hop_lead, mu=-mu, beta=beta, gamma=gamma)
    return assemble_composite(lat, left, right, epsilon)


@pytest.fixture
def small_system():
    return make_ssh_system()


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """Fail a test that leaves the OpenBLAS thread count other than it found it."""
    blas = _openblas_threads()
    before = blas[0]() if blas else None
    yield
    after = blas[0]() if blas else None
    if after != before:
        pytest.fail(f"OpenBLAS thread count changed from {before} to {after}")
