from pathlib import Path

import pytest

from coreshell import (
    GeometrySpec,
    ModelParams,
    assemble,
    build_annulus_mesh,
    build_radial_mesh,
)
from coreshell.fem import SparseOperator

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def desk_params():
    return ModelParams(b1=1.0, b2=5.0, c0=1.0, c1=2.0)


@pytest.fixture(scope="session")
def radial_desk_spec():
    return GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.0078125)


@pytest.fixture(scope="session")
def radial_desk_mesh(radial_desk_spec):
    return build_radial_mesh(radial_desk_spec)


@pytest.fixture(scope="session")
def radial_desk_system(radial_desk_mesh, desk_params):
    return assemble(radial_desk_mesh, desk_params)


@pytest.fixture(scope="session")
def annulus_desk_spec():
    return GeometrySpec(kind="planar2d", dimension=2, r1=0.5, r2=1.0, h=0.1)


@pytest.fixture(scope="session")
def annulus_desk_mesh(annulus_desk_spec):
    return build_annulus_mesh(annulus_desk_spec)


@pytest.fixture(scope="session")
def annulus_desk_system(annulus_desk_mesh, desk_params):
    return assemble(annulus_desk_mesh, desk_params)


@pytest.fixture(scope="session")
def coarse_radial_mesh():
    return build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.25))


@pytest.fixture(scope="session")
def repo_root():
    return REPO_ROOT


@pytest.fixture
def sparse_products(monkeypatch):
    """A list that gains one entry per `SparseOperator` product during the test."""
    products = []
    product = SparseOperator.__matmul__

    def counting_product(matrix, x):
        products.append(1)
        return product(matrix, x)

    monkeypatch.setattr(SparseOperator, "__matmul__", counting_product)
    return products
