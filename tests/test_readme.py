"""The README's quick start runs as written, on files like the ones it names."""

import pathlib
import re

from nullbayes import fit_parameters, inject_nulls, learn_structure, load_csv, sample_rows, save_csv
from nullbayes.synth import car_demo_net

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_fits_the_network_it_imputes_and_rewrites_with(tmp_path, monkeypatch, capsys):
    net = car_demo_net()
    save_csv(sample_rows(net, 1000, seed=1), str(tmp_path / "train.csv"))
    listings = inject_nulls(sample_rows(net, 3000, seed=2), ["Body"], 0.3, seed=3)
    save_csv(listings, str(tmp_path / "listings.csv"))
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(_quick_start(), str(README), "exec"), scope)
    train = load_csv(str(tmp_path / "train.csv"))
    assert scope["net"] == fit_parameters(learn_structure(train), train)
    assert scope["report"].tuples_imputed == 900
    out = capsys.readouterr().out
    assert "issued " in out and "expected precision" in out
