"""SVG chart rendering: structure and determinism."""

import pytest

from dpmod.plot import render_line_chart


def test_render_structure():
    svg = render_line_chart(
        [("alpha", [1, 2, 3], [0.5, 0.25, 0.125]), ("beta", [1, 2, 3], [1, 1, 1])],
        title="decay", xlabel="step", ylabel="value",
    )
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert svg.count("<circle") == 6
    assert ">alpha</text>" in svg and ">beta</text>" in svg
    assert ">decay</text>" in svg and ">step</text>" in svg


def test_render_is_deterministic_and_handles_flat_series():
    a = render_line_chart([("s", [0, 1], [2.0, 2.0])])
    b = render_line_chart([("s", [0, 1], [2.0, 2.0])])
    assert a == b          # constant series must not divide by zero


def test_render_rejects_empty():
    with pytest.raises(ValueError):
        render_line_chart([])
    with pytest.raises(ValueError):
        render_line_chart([("empty", [], [])])
