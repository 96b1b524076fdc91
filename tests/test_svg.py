"""SVG rendering: one polyline vertex per bin, one circle per point, and a
clear error for empty input."""

import re

import pytest

from urnstats.cloud import build_cloud, compress
from urnstats.histogram import HistogramSpec, station_voting_histogram
from urnstats.svg import polyline_svg, scatter_svg


def polyline_vertices(svg_text: str) -> list[int]:
    return [len(pts.split()) for pts in re.findall(r'<polyline points="([^"]*)"', svg_text)]


def test_polyline_has_one_vertex_per_bin(tiny_ds):
    h = station_voting_histogram(tiny_ds, "P", HistogramSpec(bin_width=0.05))
    text = polyline_svg([(h.centers.tolist(), h.weights.tolist())])
    assert text.startswith("<svg") and text.endswith("</svg>\n")
    assert polyline_vertices(text) == [len(h.weights)]


def test_polyline_one_element_per_series():
    text = polyline_svg([([0.1, 0.2, 0.3], [1, 2, 3]), ([0.5, 0.6], [4, 0])])
    assert polyline_vertices(text) == [3, 2]


def test_scatter_has_one_circle_per_point(tiny_ds):
    cloud = build_cloud(tiny_ds, "P")
    for points in (cloud.points, compress(cloud)):
        text = scatter_svg([p.coords for p in points])
        assert text.count("<circle ") == len(cloud) == 4


def test_scatter_of_no_points_is_an_empty_frame():
    assert "<circle" not in scatter_svg([])


@pytest.mark.parametrize("series", [[], [([], [])]])
def test_polyline_rejects_empty_input(series):
    with pytest.raises(ValueError, match="at least one"):
        polyline_svg(series)
