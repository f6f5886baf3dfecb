"""Smoke tests of the scripts under scripts/: each runs at a tiny size and writes its files."""

import importlib.util
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv(path):
    header, *rows = path.read_text().splitlines()
    return header, [[float(v) for v in row.split(",")] for row in rows]


def test_thickness_vs_coupling(tmp_path, capsys):
    out = tmp_path / "thickness.csv"
    _load("thickness_vs_coupling").main(["--level", "10", "--couplings", "0.1,1", "--out", str(out)])
    header, rows = _csv(out)
    assert header == "lambda,thickness,box_dim,bands,total_length"
    assert [row[0] for row in rows] == [0.1, 1.0]
    (_, thick_small, dim_small, bands_small, _), (_, thick_large, dim_large, bands_large, _) = rows
    # thickness falls as the coupling grows, while the band count rises
    assert thick_small > thick_large > 0 and 1 <= bands_small < bands_large
    assert 0 < dim_small <= 1 and 0 < dim_large <= 1
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_labyrinth_dos_demo(tmp_path, capsys):
    _load("labyrinth_dos_demo").main(["--N", "16", "--outdir", str(tmp_path)])
    header, cdf = _csv(tmp_path / "cdf.csv")
    assert header == "energy,cdf" and len(cdf) == 401
    values = np.array(cdf)[:, 1]
    assert values[0] == 0 and values[-1] == 1 and np.all(np.diff(values) >= 0)
    header, hist = _csv(tmp_path / "histogram.csv")
    assert header == "center,mass" and len(hist) == 512
    assert abs(sum(mass for _, mass in hist) - 1) < 1e-12
    assert (tmp_path / "cdf.svg").read_text().startswith("<svg")
    out = capsys.readouterr().out
    # at N <= 16 the script checks the product CDF against a dense solve
    assert "dense-vs-product CDF sup deviation at N=16: 0.000e+00" in out
