"""Synthetic networks and datasets with known structure.

Everything here is deterministic given its arguments, so tests and demos
can pin exact expectations.  The car network mimics a used-car listing
table: model names are tied to makes, body style and price follow model
and year, mileage follows year.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .bayesnet import BayesNet
from .tabular import Schema

__all__ = ["car_demo_net", "correlated_pair_net", "random_net"]

_MAKES = ("acura", "audi", "bmw", "honda")
_MODELS_OF = {
    "acura": ("mdx", "tl"),
    "audi": ("a4", "a8"),
    "bmw": ("328", "745"),
    "honda": ("civic", "crv"),
}
_YEARS = tuple(str(y) for y in range(1999, 2007))
_BODIES = ("convt", "coupe", "sedan", "suv", "wagon")
_MILEAGES = tuple(str(m) for m in range(10000, 90000, 10000))
_PRICES = tuple(str(p) for p in range(5000, 50000, 5000))

_MAIN_BODY = {
    "mdx": "suv",
    "tl": "sedan",
    "a4": "sedan",
    "a8": "sedan",
    "328": "coupe",
    "745": "sedan",
    "civic": "coupe",
    "crv": "suv",
}
_BASE_PRICE = {
    "civic": 10000,
    "crv": 15000,
    "a4": 20000,
    "tl": 20000,
    "328": 25000,
    "mdx": 30000,
    "a8": 35000,
    "745": 40000,
}


def _peaked(values: Sequence[str], mean: float, width: float) -> np.ndarray:
    # discretized double-exponential bump centered on `mean`
    arr = np.array([np.exp(-abs(int(v) - mean) / width) for v in values])
    return arr / arr.sum()


def car_demo_net() -> BayesNet:
    """A 6-attribute car-listing network with two-parent CPTs.

    Structure: Make -> Model; Model, Year -> Body; Model, Year -> Price;
    Year -> Mileage.  Model nearly determines Make (so the reverse AFD is
    strong); Body is mostly fixed by Model with a mild year effect; Price
    and Mileage decay with age.
    """
    models = tuple(sorted(m for ms in _MODELS_OF.values() for m in ms))
    schema = Schema(
        ("Make", "Model", "Year", "Body", "Mileage", "Price"),
        {
            "Make": _MAKES,
            "Model": models,
            "Year": _YEARS,
            "Body": _BODIES,
            "Mileage": _MILEAGES,
            "Price": _PRICES,
        },
    )
    parents = {
        "Model": ("Make",),
        "Body": ("Model", "Year"),
        "Price": ("Model", "Year"),
        "Mileage": ("Year",),
    }
    dom = schema.domain

    make_p = np.array([0.2, 0.3, 0.3, 0.2])

    model_p = np.zeros((len(dom("Make")), len(dom("Model"))))
    for i, make in enumerate(dom("Make")):
        own = _MODELS_OF[make]
        for j, model in enumerate(dom("Model")):
            model_p[i, j] = 0.485 if model in own else 0.005

    year_p = np.array([0.08, 0.10, 0.12, 0.15, 0.15, 0.15, 0.13, 0.12])

    body_p = np.zeros((len(dom("Model")), len(dom("Year")), len(dom("Body"))))
    for i, model in enumerate(dom("Model")):
        for j, year in enumerate(dom("Year")):
            weights = {b: 0.05 for b in _BODIES}
            weights[_MAIN_BODY[model]] = 0.72
            # older listings skew toward wagons, newer toward convertibles
            if int(year) <= 2001:
                weights["wagon"] += 0.08
            else:
                weights["convt"] += 0.08
            arr = np.array([weights[b] for b in dom("Body")])
            body_p[i, j] = arr / arr.sum()

    price_p = np.zeros((len(dom("Model")), len(dom("Year")), len(dom("Price"))))
    for i, model in enumerate(dom("Model")):
        for j, year in enumerate(dom("Year")):
            mean = _BASE_PRICE[model] - (2006 - int(year)) * 2500
            mean = min(max(mean, 5000), 45000)
            price_p[i, j] = _peaked(dom("Price"), mean, 5000.0)

    mileage_p = np.zeros((len(dom("Year")), len(dom("Mileage"))))
    for j, year in enumerate(dom("Year")):
        mean = min(10000 + (2006 - int(year)) * 9000, 80000)
        mileage_p[j] = _peaked(dom("Mileage"), mean, 12000.0)

    cpts = {
        "Make": make_p,
        "Model": model_p,
        "Year": year_p,
        "Body": body_p,
        "Mileage": mileage_p,
        "Price": price_p,
    }
    return BayesNet(schema, parents, cpts)


def correlated_pair_net() -> BayesNet:
    """Two near-copies plus one noisy reading of each.

    ``copy`` equals ``source`` with probability 0.95; each reading reports
    its variable with probability 0.7.  The copy odds (19:1) beat the
    product of both reading likelihood ratios ((7/3)^2), so the joint MAP
    over (source, copy) is consistent for every evidence combination, while
    the two marginal argmaxes disagree when the readings point in opposite
    directions.
    """
    d = ("a", "b")
    schema = Schema(
        ("source", "copy", "source_reading", "copy_reading"),
        {a: d for a in ("source", "copy", "source_reading", "copy_reading")},
    )
    parents = {
        "copy": ("source",),
        "source_reading": ("source",),
        "copy_reading": ("copy",),
    }
    cpts = {
        "source": np.array([0.52, 0.48]),
        "copy": np.array([[0.95, 0.05], [0.05, 0.95]]),
        "source_reading": np.array([[0.7, 0.3], [0.3, 0.7]]),
        "copy_reading": np.array([[0.7, 0.3], [0.3, 0.7]]),
    }
    return BayesNet(schema, parents, cpts)


def random_net(
    n_nodes: int,
    max_domain: int = 4,
    seed: int | Sequence[int] = 0,
    max_parents: int = 2,
    min_domain: int = 2,
) -> BayesNet:
    """A random DAG with Dirichlet(1.5) CPT rows, floored away from zero.

    A floor of 0.05 keeps every conditional probability at least
    ``0.05 / (1 + 0.05 * domain_size)``, which keeps Gibbs chains mixing.
    Deterministic per seed.
    """
    if n_nodes < 1 or n_nodes > 26:
        raise ValueError("n_nodes must be in 1..26")
    if min_domain < 2 or max_domain < min_domain:
        raise ValueError("need 2 <= min_domain <= max_domain")
    if max_domain > 10:
        raise ValueError("max_domain above 10 breaks label sort order")
    rng = np.random.default_rng(seed)
    names = [chr(ord("A") + i) for i in range(n_nodes)]
    sizes = {
        a: int(rng.integers(min_domain, max_domain + 1)) for a in names
    }
    domains = {a: tuple(f"v{i}" for i in range(sizes[a])) for a in names}
    schema = Schema(names, domains)

    order = [names[i] for i in rng.permutation(n_nodes)]
    parents: dict[str, tuple[str, ...]] = {}
    for pos, attr in enumerate(order):
        k = int(rng.integers(0, min(max_parents, pos) + 1))
        if k:
            picked = rng.choice(pos, size=k, replace=False)
            parents[attr] = tuple(sorted(order[int(i)] for i in picked))

    cpts = {}
    for attr in names:
        ps = parents.get(attr, ())
        shape = tuple(sizes[p] for p in ps) + (sizes[attr],)
        rows = int(np.prod(shape[:-1], dtype=np.int64)) if ps else 1
        flat = np.empty((rows, sizes[attr]))
        for r in range(rows):
            row = rng.dirichlet(np.full(sizes[attr], 1.5))
            row = (row + 0.05) / (1.0 + 0.05 * sizes[attr])
            flat[r] = row
        cpts[attr] = flat.reshape(shape)
    return BayesNet(schema, parents, cpts)
