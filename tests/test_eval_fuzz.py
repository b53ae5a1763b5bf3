"""Fuzzed eval inputs: one file of a small eval set (the judgments CSV, a run
file or a gold file) is truncated, has a byte flipped or a NUL put in, gets
a field over the csv module's 131,072-character limit, has a grade retyped
or is a directory. ``wikiqe eval`` must exit 0, 1 or 2 without a traceback
(a traceback fails the test: ``main`` runs in process), any error must
name the mutated file, and every run that reads neither mutated file must
still be scored."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from wikiqe.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

URLS = [f"https://u/{i}" for i in range(4)]
JUDGMENTS = "judgments.csv"
JUDGMENT_ROWS = [
    f"{query},{url},{judge},{(i + len(judge)) % 3}"
    for query in ("q a", "q b")
    for i, url in enumerate(URLS)
    for judge in ("j1", "j2")
]
RUNS = [("q_a", "graph"), ("q_a", "bm25"), ("q_b", "graph"), ("q_c", "graph")]
FILES = {
    JUDGMENTS: "".join(line + "\n" for line in ["query,url,judge,grade", *JUDGMENT_ROWS]),
    **{f"runs/{slug}__{method}.urls": "".join(u + "\n" for u in URLS[i % 2:])
       for i, (slug, method) in enumerate(RUNS)},
    **{f"gold/{slug}.urls": "".join(u + "\n" for u in URLS[:2]) for slug, _ in RUNS},
}
OVER_THE_CSV_LIMIT = 131_073
GRADES = ["x", "", "3", "-1", "1.5", "None", "٢"]


@st.composite
def mutations(draw):
    name = draw(st.sampled_from(sorted(FILES)))
    data = FILES[name].encode()
    kinds = ["truncate", "flip", "nul", "long field", "directory"]
    kind = draw(st.sampled_from(kinds + ["grade"] if name == JUDGMENTS else kinds))
    if kind == "truncate":
        return name, kind, draw(st.integers(0, len(data) - 1))
    if kind == "flip":
        return name, kind, (draw(st.integers(0, len(data) - 1)), draw(st.integers(1, 255)))
    if kind == "nul":
        return name, kind, draw(st.integers(0, len(data)))
    if kind == "long field":
        return name, kind, draw(st.integers(0, data.count(b"\n") - 1))
    if kind == "grade":
        return name, kind, (draw(st.integers(1, len(JUDGMENT_ROWS))), draw(st.sampled_from(GRADES)))
    return name, kind, None


def mutate(path: Path, kind: str, arg) -> None:
    if kind == "directory":
        path.unlink()
        path.mkdir()
        return
    data = bytearray(path.read_bytes())
    if kind == "truncate":
        del data[arg:]
    elif kind == "flip":
        position, mask = arg
        data[position] ^= mask
    elif kind == "nul":
        data[arg:arg] = b"\0"
    else:
        lines = data.decode().split("\n")
        row = arg if kind == "long field" else arg[0]
        fields = lines[row].split(",")
        if kind == "long field":
            fields[len(fields) // 2] += "x" * OVER_THE_CSV_LIMIT
        else:
            fields[3] = arg[1]
        lines[row] = ",".join(fields)
        data = "\n".join(lines).encode()
    path.write_bytes(data)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(mutations())
@hypothesis.example((JUDGMENTS, "long field", 1))  # a traceback before csv.Error became ValueError
def test_a_broken_eval_input_costs_only_what_reads_it(case):
    name, kind, arg = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for relative, text in FILES.items():
            (root / relative).parent.mkdir(exist_ok=True)
            (root / relative).write_text(text, encoding="utf-8")
        path = root / name
        mutate(path, kind, arg)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["eval", "--runs", str(root / "runs"), "--gold", str(root / "gold"),
                         "--judgments", str(root / JUDGMENTS)])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2) and "Traceback" not in err, err
        if code:
            # Only the judgments file is read by every run.
            assert name == JUDGMENTS, err
            assert err.startswith("error: ") and str(path) in err and len(err.splitlines()) == 1, err
            return
        for line in err.splitlines():
            # Mutated judgments can still parse, with one row's query now
            # sharing a slug with another's.
            shared = name == JUDGMENTS and line.startswith("skipping judgments for ")
            assert shared or str(path) in line, err
        for slug, method in RUNS:
            reads_it = name in (f"runs/{slug}__{method}.urls", f"gold/{slug}.urls")
            assert reads_it or f"\n{slug},{method},P,3," in out, (slug, method, err)
