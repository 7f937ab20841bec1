"""Named product instances used by tests, scripts, and experiment configs.

Names follow the factor list: ``K4xK3`` is the product of a complete
graph on 4 vertices and one on 3, ``Q6`` is the 6-dimensional hypercube
(six K2 factors).  ``petersen`` is the Petersen graph as a single-factor
product.  ``resolve_product`` turns a config's ``product`` value into
base specs; it lives here, with ``ConfigError``, so that a subcommand
that only builds a product loads no experiment module.
"""

import math

from .graph_core import (BaseGraphSpec, GraphBuildError, ProductGraph,
                         build_base, build_product)

# Accepted tau3_mode values; all run the same algorithm.
TAU3_MODES = ("bisect", "incremental")


class ConfigError(ValueError):
    """Invalid experiment configuration."""

K2 = BaseGraphSpec.complete(2)
K3 = BaseGraphSpec.complete(3)
K4 = BaseGraphSpec.complete(4)
K5 = BaseGraphSpec.complete(5)
C4 = BaseGraphSpec.cycle(4)
C5 = BaseGraphSpec.cycle(5)
C10 = BaseGraphSpec.cycle(10)
PETERSEN = BaseGraphSpec.petersen()

CATALOG: dict[str, tuple[BaseGraphSpec, ...]] = {
    **{f"Q{t}": (K2,) * t for t in range(2, 11)},
    "K3xK3": (K3, K3),
    "C5xK2": (C5, K2),
    "C4xK3": (C4, K3),
    "K4xK3": (K4, K3),
    "C5xC5": (C5, C5),
    "K3xK3xK2": (K3, K3, K2),
    "C5xK2xK3": (C5, K2, K3),
    "petersen": (PETERSEN,),
    "petersenxK2": (PETERSEN, K2),
    "K5": (K5,),
    "C10xC10": (C10, C10),
    "K4xK4xK4": (K4, K4, K4),
}


def catalog_specs(name: str) -> tuple[BaseGraphSpec, ...]:
    try:
        return CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(CATALOG))
        raise KeyError(f"unknown catalog product {name!r}; known: {known}") from None


def build_catalog_product(name: str) -> ProductGraph:
    return build_product(catalog_specs(name))


def tiny_names(max_vertices: int = 12) -> list[str]:
    """Catalog names small enough for exhaustive cross-checks."""
    return [name for name, specs in CATALOG.items()
            if math.prod(build_base(s).order for s in specs) <= max_vertices]


def resolve_product(product) -> tuple[tuple[BaseGraphSpec, ...], str | None]:
    """Turn a config ``product`` value (catalog name or list of base
    spec objects) into specs plus the catalog name when one was used."""
    if isinstance(product, str):
        try:
            return catalog_specs(product), product
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
    if isinstance(product, list) and product:
        try:
            return tuple(BaseGraphSpec.from_dict(item) for item in product), None
        except GraphBuildError as exc:
            raise ConfigError(f"bad base spec: {exc}") from None
    raise ConfigError("product must be a catalog name or a nonempty list of base specs")
