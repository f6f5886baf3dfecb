"""Smoke tests of the scripts under scripts/: each runs at a tiny size and writes its files."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from quasilab import cli, tracemap
from quasilab.jacobi1d import hopping_from_coupling
from quasilab.labyrinth import LabyrinthParams, product_eigs

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


class _Levels(Exception):
    """Raised by a stand-in cover_sequence, carrying the levels it was asked for."""


def _record_levels(params, levels, *args, **kwargs):
    raise _Levels(list(levels))


@pytest.mark.parametrize("level", [1, 6, 15])
def test_thickness_script_and_cli_use_the_same_default_levels(monkeypatch, tmp_path, level):
    script = _load("thickness_vs_coupling")
    monkeypatch.setattr(script, "cover_sequence", _record_levels)
    monkeypatch.setattr(tracemap, "cover_sequence", _record_levels)
    with pytest.raises(_Levels) as from_script:
        script.main(["--level", str(level), "--couplings", "1"])
    with pytest.raises(_Levels) as from_cli:
        cli.main(["thickness", "--lambda", "1", "--level", str(level), "--output", str(tmp_path / "t.csv")])
    assert from_script.value.args == from_cli.value.args
    assert from_cli.value.args[0] == tracemap.thickness_levels(level)


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


def _product_list_csvs(n):
    """The script's cdf.csv and histogram.csv from all N^2 products, formed and sorted."""
    prods = product_eigs(LabyrinthParams(1, hopping_from_coupling(0.5), hopping_from_coupling(0.5)), n)
    hull = float(np.max(np.abs(prods.support))) * 1.05
    grid = np.linspace(-hull, hull, 401)
    hist, edges = np.histogram(prods.support, bins=512, range=(-hull, hull))
    centers = 0.5 * (edges[:-1] + edges[1:])
    cdf = "".join(f"{e:.17g},{v:.17g}\n" for e, v in zip(grid, prods.cdf(grid)))
    mass = "".join(f"{c:.17g},{m:.17g}\n" for c, m in zip(centers, hist / prods.size))
    return ("energy,cdf\n" + cdf).encode(), ("center,mass\n" + mass).encode()


@pytest.mark.parametrize("n", [16, 256])
def test_labyrinth_dos_demo_counts_give_the_product_list_bytes(tmp_path, n):
    # the script counts the products off the two axes; forming them gives the same bytes
    _load("labyrinth_dos_demo").main(["--N", str(n), "--outdir", str(tmp_path)])
    cdf, histogram = _product_list_csvs(n)
    assert (tmp_path / "cdf.csv").read_bytes() == cdf
    assert (tmp_path / "histogram.csv").read_bytes() == histogram
