"""The paper's experiment, pinned: digests of what the eval produces.

Three small configs run in-process through ``run_imputation_experiment``
and ``run_rewriting_experiment``: car imputation at three levels, a
20-node imputation at two, and car rewriting with every method on one
single-attribute query and one conjunction.  Each config's digests are the
sha256 of its CSV lines (``imputation_csv_lines`` or ``pr_csv_lines``,
which hold no timings) and, for imputation, of every fill the harness
receives: each table ``impute_table`` returns (ids and code matrix) and each
row and report ``afd_impute_tuple`` returns.  A changed fill that leaves an
accuracy as it was still changes a digest.

The digests in ``eval_digests.json`` must hold.  A change that moves one
says in CHANGES.md which and why; none is loosened.  To print the digests a
tree gives, run this file as a script with that tree's ``src`` on
``PYTHONPATH``.
"""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from nullbayes import SelectionQuery, harness, sample_rows
from nullbayes.harness import (
    ExperimentConfig,
    imputation_csv_lines,
    pr_csv_lines,
    run_imputation_experiment,
    run_rewriting_experiment,
)
from nullbayes.rewriting import REWRITING_METHODS
from nullbayes.synth import random_net

_DIGESTS = Path(__file__).with_name("eval_digests.json")

_CONFIGS = {
    "car-imputation": ExperimentConfig(
        mode="imputation",
        targets=("Body", "Price"),
        levels=(0, 50, 90),
        gibbs_samples=50,
        gibbs_burn_in=20,
    ),
    "wide-imputation": ExperimentConfig(
        mode="imputation",
        targets=("A", "H", "Q"),
        levels=(30, 50),
        gibbs_samples=50,
        gibbs_burn_in=20,
        max_parents=3,
    ),
    "car-rewriting": ExperimentConfig(
        mode="rewriting",
        queries=(SelectionQuery.parse("Body=sedan"), SelectionQuery.parse("Make=bmw & Body=sedan")),
        methods=REWRITING_METHODS,
    ),
}


def _table(name):
    # the 20-node table is sampled here; the car configs sample their own
    if name == "wide-imputation":
        return sample_rows(random_net(20, seed=3, max_parents=3), 2000, 0)
    return None


def _digests(name):
    """``{"csv": ..., "fills": ...}`` for one config (no fills for rewriting)."""
    fills = hashlib.sha256()
    impute_table, afd_impute_tuple = harness.impute_table, harness.afd_impute_tuple

    def hashed_table(*args, **kwargs):
        imputed, report = impute_table(*args, **kwargs)
        for array in (imputed._id_column(), imputed._column_codes()):
            fills.update(repr(array.shape).encode())
            fills.update(np.ascontiguousarray(array, dtype="<i8").tobytes())
        return imputed, report

    def hashed_tuple(*args):
        filled, unpredictable = afd_impute_tuple(*args)
        fills.update(repr((filled.id, filled.cells, unpredictable)).encode())
        return filled, unpredictable

    cfg = _CONFIGS[name]
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(harness, "impute_table", hashed_table)
        patch.setattr(harness, "afd_impute_tuple", hashed_tuple)
        # methods that do not apply to a query are skipped with a warning
        warnings.simplefilter("ignore", UserWarning)
        if cfg.mode == "imputation":
            lines = imputation_csv_lines(run_imputation_experiment(cfg, _table(name)))
        else:
            curves = run_rewriting_experiment(cfg, _table(name))
            lines = [line for curve in curves for line in pr_csv_lines(curve)]
    out = {"csv": hashlib.sha256("\n".join(lines).encode()).hexdigest()}
    if cfg.mode == "imputation":
        out["fills"] = fills.hexdigest()
    return out


@pytest.mark.parametrize("name", list(_CONFIGS))
def test_eval_outputs_keep_their_digests(name):
    want = json.loads(_DIGESTS.read_text())[name]
    assert _digests(name) == want, f"config {name!r}: eval outputs changed"


if __name__ == "__main__":
    print(json.dumps({name: _digests(name) for name in _CONFIGS}, indent=2))
