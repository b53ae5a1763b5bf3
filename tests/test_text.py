"""The CSV writer behind every CSV the package writes."""

import csv
import io

from wikiqe.text import _csv_text


def test_csv_text_writes_the_one_convention():
    text = _csv_text(["rank", "url", "score"], [
        [1, "https://u/a,b", 0.1 + 0.2],
        [0, 'https://u/"q"', 1 / 3],
        [2, "plain", "0.500000"],
    ])
    assert text == (
        "rank,url,score\n"
        '1,"https://u/a,b",0.3\n'
        '0,"https://u/""q""",0.333333333333\n'
        "2,plain,0.500000\n"
    )
    assert list(csv.reader(io.StringIO(text))) == [
        ["rank", "url", "score"],
        ["1", "https://u/a,b", "0.3"],
        ["0", 'https://u/"q"', "0.333333333333"],
        ["2", "plain", "0.500000"],
    ]
    assert _csv_text(["query", "qe_seconds", "qe_terms"], []) == "query,qe_seconds,qe_terms\n"
