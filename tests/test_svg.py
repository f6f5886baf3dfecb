import json
from xml.sax.saxutils import escape as sax_escape

from quasilab import svg
from quasilab.bands import BandCover


def test_metadata_escape_matches_sax_escape():
    meta = {"output": "a&b<c>d\"e'f", "note": "&amp; <x/> \"q\" 'p'"}
    text = svg.band_stack_svg([3], [BandCover(((0.0, 1.0),))], meta)
    payload = text.split("<metadata>", 1)[1].split("</metadata>", 1)[0]
    assert payload == sax_escape(json.dumps(meta, sort_keys=True))
    assert "&amp;" in payload and "&lt;" in payload and "&gt;" in payload
