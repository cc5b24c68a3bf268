"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import strategies as st

import repro
from repro import (
    BlockedMapper,
    CartesianGrid,
    GraphMapper,
    HyperplaneMapper,
    KDTreeMapper,
    NodeAllocation,
    NodecartMapper,
    RandomMapper,
    StencilStripsMapper,
)

# ----------------------------------------------------------------------
# Plain fixtures
# ----------------------------------------------------------------------


@pytest.fixture
def paper_grid_50() -> CartesianGrid:
    """The Figure 6 instance grid (50 nodes x 48 processes)."""
    return CartesianGrid([50, 48])


@pytest.fixture
def paper_alloc_50() -> NodeAllocation:
    return NodeAllocation.homogeneous(50, 48)


@pytest.fixture
def small_grid() -> CartesianGrid:
    return CartesianGrid([6, 4])


@pytest.fixture
def small_alloc() -> NodeAllocation:
    return NodeAllocation.homogeneous(4, 6)


def all_mappers() -> dict[str, repro.Mapper]:
    """Fresh instances of every mapper (GraphMapper with a small budget)."""
    return {
        "blocked": BlockedMapper(),
        "random": RandomMapper(seed=11),
        "hyperplane": HyperplaneMapper(),
        "kd_tree": KDTreeMapper(),
        "stencil_strips": StencilStripsMapper(),
        "nodecart": NodecartMapper(),
        "graphmap": GraphMapper(seed=2, local_search_factor=0.5),
    }


@pytest.fixture(params=sorted(all_mappers()))
def any_mapper(request) -> repro.Mapper:
    """Parametrised over every mapping algorithm."""
    return all_mappers()[request.param]


@pytest.fixture(params=["hyperplane", "kd_tree", "stencil_strips"])
def paper_mapper(request) -> repro.Mapper:
    """Parametrised over the paper's three distributed algorithms."""
    return all_mappers()[request.param]


OPENSSL = shutil.which("openssl")


def make_cert(directory, name: str) -> tuple[str, str]:
    """One self-signed cert/key pair for 127.0.0.1, via the openssl CLI."""
    cert = str(directory / f"{name}.pem")
    key = str(directory / f"{name}.key")
    subprocess.run(
        [
            OPENSSL,
            "req",
            "-x509",
            "-newkey",
            "rsa:2048",
            "-keyout",
            key,
            "-out",
            cert,
            "-days",
            "2",
            "-nodes",
            "-subj",
            "/CN=127.0.0.1",
            "-addext",
            "subjectAltName=IP:127.0.0.1,DNS:localhost",
        ],
        check=True,
        capture_output=True,
    )
    return cert, key


def make_signed_cert(
    directory, name: str, ca: tuple[str, str], usage: str
) -> tuple[str, str]:
    """A cert/key pair for 127.0.0.1 signed by *ca*, for *usage* only
    (``serverAuth`` or ``clientAuth``), via the openssl CLI."""
    cert = str(directory / f"{name}.pem")
    key = str(directory / f"{name}.key")
    csr = directory / f"{name}.csr"
    extensions = directory / f"{name}.ext"
    extensions.write_text(
        "basicConstraints=CA:FALSE\n"
        f"extendedKeyUsage={usage}\n"
        "subjectAltName=IP:127.0.0.1,DNS:localhost\n"
    )
    for command in (
        ["req", "-new", "-newkey", "rsa:2048", "-nodes", "-keyout", key,
         "-out", str(csr), "-subj", f"/CN={name}"],
        ["x509", "-req", "-in", str(csr), "-CA", ca[0], "-CAkey", ca[1],
         "-set_serial", "1", "-days", "2", "-out", cert,
         "-extfile", str(extensions)],
    ):
        subprocess.run([OPENSSL, *command], check=True, capture_output=True)
    return cert, key


@pytest.fixture(scope="session")
def tls_files(tmp_path_factory):
    """A self-signed daemon certificate and key (TLS suites)."""
    if OPENSSL is None:  # pragma: no cover - openssl ships everywhere we CI
        pytest.skip("openssl CLI not available")
    return make_cert(tmp_path_factory.mktemp("tls"), "daemon")


@pytest.fixture(scope="session")
def tls_pki(tmp_path_factory) -> dict:
    """Two private CAs and a leaf from each: ``daemon`` (signed by
    ``server_ca``, server use only) and ``client`` (signed by the
    separate ``client_ca``, client use only), as ``(cert, key)`` pairs;
    the CAs are their certificate paths."""
    if OPENSSL is None:  # pragma: no cover - openssl ships everywhere we CI
        pytest.skip("openssl CLI not available")
    directory = tmp_path_factory.mktemp("pki")
    server_ca = make_cert(directory, "server-ca")
    client_ca = make_cert(directory, "client-ca")
    return {
        "server_ca": server_ca[0],
        "client_ca": client_ca[0],
        "daemon": make_signed_cert(directory, "daemon", server_ca, "serverAuth"),
        "client": make_signed_cert(directory, "client", client_ca, "clientAuth"),
    }


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------


def grids(max_ndim: int = 3, max_size: int = 120) -> st.SearchStrategy:
    """Random small Cartesian grids."""

    def build(dims):
        return CartesianGrid(dims)

    return (
        st.integers(1, max_ndim)
        .flatmap(
            lambda d: st.lists(st.integers(1, 8), min_size=d, max_size=d)
        )
        .filter(lambda dims: int(np.prod(dims)) <= max_size)
        .map(build)
    )


def stencils_for(ndim: int) -> st.SearchStrategy:
    """Random stencils matching *ndim*: paper families + random offsets."""
    families = [repro.nearest_neighbor(ndim)]
    if ndim >= 2:
        families.append(repro.component(ndim))
        families.append(repro.nearest_neighbor_with_hops(ndim))

    def offsets_to_stencil(offs):
        unique = [o for o in dict.fromkeys(map(tuple, offs)) if any(o)]
        if not unique:
            unique = [tuple([1] + [0] * (ndim - 1))]
        return repro.Stencil(unique)

    random_stencils = st.lists(
        st.lists(st.integers(-2, 2), min_size=ndim, max_size=ndim),
        min_size=1,
        max_size=6,
    ).map(offsets_to_stencil)
    return st.one_of(st.sampled_from(families), random_stencils)


def allocations_for(total: int) -> st.SearchStrategy:
    """Random node allocations covering exactly *total* processes."""

    def split(seed: int) -> NodeAllocation:
        rng = np.random.default_rng(seed)
        sizes = []
        left = total
        while left > 0:
            take = int(rng.integers(1, left + 1))
            take = min(take, left)
            sizes.append(take)
            left -= take
        return NodeAllocation(sizes)

    homogeneous = st.sampled_from(
        [n for n in (1, 2, 3, 4, 6, 8) if total % n == 0]
    ).map(lambda n: NodeAllocation.homogeneous(total // n, n))
    return st.one_of(homogeneous, st.integers(0, 2**32 - 1).map(split))


# ----------------------------------------------------------------------
# Assertion helpers
# ----------------------------------------------------------------------


def assert_valid_mapping(perm: np.ndarray, alloc: NodeAllocation) -> None:
    """A mapping must be a bijection; capacities follow automatically."""
    p = alloc.total_processes
    assert perm.shape == (p,)
    assert sorted(perm.tolist()) == list(range(p))
