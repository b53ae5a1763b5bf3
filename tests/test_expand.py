"""Top-k windows, Borda fusion, filtering and the two expansion paths."""

import itertools
import random
from pathlib import Path

import pytest

import wikiqe
import wikiqe.expand as expand_module
from wikiqe.centrality import build_table, ranked_prefix
from wikiqe.config import RunConfig
from wikiqe.expand import (
    ExpansionResult,
    RankedTermList,
    SynonymDictionary,
    _top_k_windows,
    borda_combine,
    expand_query,
    filter_terms,
    rewrite,
    source_term_lists,
    term_from_title,
    term_lists,
    thesaurus_expand,
)
from wikiqe.ingest import WikiSource, search_key
from wikiqe.text import default_stopwords, load_stopwords

from conftest import fixture_root_subgraphs, make_subgraph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def ranked(source, terms):
    return RankedTermList(source=source, terms=list(terms))


# ---------------------------------------------------------------------------
# term derivation from titles
# ---------------------------------------------------------------------------

def test_term_strips_trailing_disambiguator():
    assert term_from_title("Java (programming language)") == "java"
    assert term_from_title("Mercury (element)") == "mercury"


def test_term_keeps_inner_parentheses_and_case_folds():
    assert term_from_title("Disability-Adjusted Life Year") == "disability-adjusted life year"
    assert term_from_title("(What) a title") == "(what) a title"


# ---------------------------------------------------------------------------
# borda_combine
# ---------------------------------------------------------------------------

def test_borda_single_list():
    assert borda_combine([["a", "b"]]) == [("a", 2), ("b", 1)]


def test_borda_hand_enumerated_example():
    # L1=[a,b,c] gives a:3 b:2 c:1; L2=[b,a] gives b:2 a:1.
    # a and b tie at 4 and both reached rank 1, so lexicographic order wins.
    assert borda_combine([["a", "b", "c"], ["b", "a"]]) == [("a", 4), ("b", 4), ("c", 1)]


def test_borda_identical_lists_triple_scores():
    single = borda_combine([["x", "y", "z"]])
    triple = borda_combine([["x", "y", "z"]] * 3)
    assert [t for t, _ in triple] == [t for t, _ in single]
    assert [s for _, s in triple] == [s * 3 for _, s in single]


def test_borda_is_permutation_stable(rng):
    universe = ["a", "b", "c", "d", "e", "f"]
    for _ in range(100):
        lists = [rng.sample(universe, rng.randint(1, 6)) for _ in range(3)]
        shuffled = list(lists)
        rng.shuffle(shuffled)
        assert borda_combine(lists) == borda_combine(shuffled)


def brute_force_borda(lists):
    """Independent re-derivation: explicit score table, then sort."""
    points = {}
    best = {}
    for lst in lists:
        for position, term in enumerate(lst):
            rank = position + 1
            points[term] = points.get(term, 0) + (len(lst) - position)
            if term not in best or rank < best[term]:
                best[term] = rank
    table = sorted(points.items(), key=lambda kv: (-kv[1], best[kv[0]], kv[0]))
    return table


def test_borda_exhaustive_against_oracle():
    universe = ["a", "b", "c", "d", "e", "f"]
    pool = []
    for length in (1, 2, 3):
        pool.extend(itertools.permutations(universe, length))
    rng = random.Random(99)
    cases = 0
    for _ in range(1200):
        lists = [list(rng.choice(pool)) for _ in range(rng.randint(1, 3))]
        assert borda_combine(lists) == brute_force_borda(lists)
        cases += 1
    assert cases >= 1000


# ---------------------------------------------------------------------------
# filter_terms
# ---------------------------------------------------------------------------

def test_bundled_stopwords_parse_like_a_stopword_file():
    bundled = Path(wikiqe.__file__).parent / "data" / "stopwords.txt"
    assert default_stopwords() == load_stopwords(bundled)
    assert len(default_stopwords()) == 570


def test_stopword_file_comments_and_blanks(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("# header\n  The \n\n   # indented comment\nOF\n", encoding="utf-8")
    assert load_stopwords(path) == {"the", "of"}


def test_filter_drops_query_words_and_stopwords():
    stops = default_stopwords()
    out = filter_terms(["alcoholism", "the", "ethanol"], "adolescent alcoholism", stops)
    assert out == ["ethanol"]


def test_filter_keeps_partially_novel_multiword_terms():
    stops = default_stopwords()
    assert filter_terms(["public health"], "health policy", stops) == ["public health"]
    # but drops a phrase made entirely of query words / stopwords
    assert filter_terms(["the health policy"], "health policy", stops) == []


def test_filter_empty_input():
    assert filter_terms([], "anything", default_stopwords()) == []


def test_filter_is_case_insensitive():
    stops = default_stopwords()
    assert filter_terms(["Alcoholism"], "ADOLESCENT ALCOHOLISM", stops) == []


# ---------------------------------------------------------------------------
# expand_query
# ---------------------------------------------------------------------------

def fixture_table():
    adjacency = {
        "alcoholism": ["ethanol", "substance abuse", "alcoholic beverage", "public health"],
        "ethanol": ["alcoholic beverage", "substance abuse"],
        "substance abuse": ["public health"],
        "alcoholic beverage": ["ethanol"],
        "public health": [],
    }
    return build_table(make_subgraph(adjacency))


def test_expand_never_returns_query_or_stop_words(rng):
    stops = default_stopwords()
    vocabulary = ["ethanol", "the", "addiction", "public health", "alcoholism", "of", "dmoz"]
    for _ in range(50):
        titles = rng.sample(vocabulary, rng.randint(2, len(vocabulary)))
        adjacency = {t: [x for x in titles if x != t and rng.random() < 0.5] for t in titles}
        table = build_table(make_subgraph(adjacency))
        result = expand_query(table, "adolescent alcoholism", m=3, stopwords=stops)
        query_tokens = {"adolescent", "alcoholism"}
        for term in result.qe_terms:
            assert term not in stops
            assert term not in query_tokens


def test_expand_identical_lists_keep_shared_order():
    # One isolated node list: all three centrality lists coincide, so the
    # pre-filter Borda ranking must equal that shared order.
    adjacency = {"delta": [], "alpha": [], "carol": []}
    table = build_table(make_subgraph(adjacency))
    order = ranked_prefix(table.degree, 3)
    assert order == ranked_prefix(table.closeness, 3) == ranked_prefix(table.pagerank, 3)
    result = expand_query(table, "zz", m=3)
    assert result.qe_terms == order


def test_expand_shortfall_flag():
    adjacency = {"alcoholism": []}
    table = build_table(make_subgraph(adjacency))
    result = expand_query(table, "adolescent alcoholism", m=2)
    assert result.shortfall
    assert result.qe_terms == []


def test_expand_provenance_and_scores():
    result = expand_query(fixture_table(), "adolescent alcoholism", m=2)
    assert len(result.qe_terms) == 2
    for term in result.qe_terms:
        assert result.borda_scores[term] > 0
        assert set(result.provenance[term]) <= {"degree", "closeness", "pagerank"}
        assert result.provenance[term]


def test_intersection_follows_primary_order():
    # The paper intersects each list with the other two; on one table's
    # lists that keeps every term of the window, in that source's own order.
    table = fixture_table()
    lists = source_term_lists(table, "zzz", stopwords=frozenset())
    for source, window in full_sort_windows(table, 100).items():
        assert lists[source].terms == window


def test_intersection_respects_k_window():
    table = fixture_table()
    lists = full_sort_windows(table, len(table.degree))
    for k in range(1, len(lists["degree"]) + 2):
        windows = [lists[s][:k] for s in ("degree", "closeness", "pagerank")]
        fused = brute_force_borda(windows)
        result = expand_query(table, "zzz", m=len(fused), stopwords=frozenset(), k=k)
        assert result.qe_terms == [t for t, _ in fused]
        assert result.borda_scores == dict(fused)
        for term in result.qe_terms:
            assert result.provenance[term] == [
                s for s, w in zip(("degree", "closeness", "pagerank"), windows) if term in w
            ]
        windowed = source_term_lists(table, "zzz", stopwords=frozenset(), k=k)
        assert [windowed[s].terms for s in ("degree", "closeness", "pagerank")] == windows


def test_intersection_is_subset_of_primary_prefix(rng):
    # Brute-force the paper's intersection (each list's top-k window, keeping
    # the terms found in both other lists) on random graphs, some with titles
    # that collapse to one term, and compare it with the windows used.
    universe = [f"t{i}" for i in range(12)] + ["t1 (film)", "t2 (band)"]
    sources = ("degree", "closeness", "pagerank")
    for _ in range(200):
        titles = rng.sample(universe, rng.randint(1, len(universe)))
        adjacency = {t: [x for x in titles if x != t and rng.random() < 0.3] for t in titles}
        table = build_table(make_subgraph(adjacency))
        lists = full_sort_windows(table, len(table.degree))
        k = rng.randint(1, 15)
        windowed = source_term_lists(table, "zzz", stopwords=frozenset(), k=k)
        for source in sources:
            first, second = (set(lists[s]) for s in sources if s != source)
            brute = [t for t in lists[source][:k] if t in first and t in second]
            assert windowed[source].terms == brute


def test_window_rejects_k_below_one():
    with pytest.raises(ValueError, match="k must be >= 1"):
        expand_query(fixture_table(), "q", m=1, k=0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        source_term_lists(fixture_table(), "q", k=0)


def test_source_term_lists_filter_and_label():
    lists = source_term_lists(fixture_table(), "adolescent alcoholism")
    assert set(lists) == {"degree", "closeness", "pagerank"}
    for source, term_list in lists.items():
        assert term_list.source == source
        assert "alcoholism" not in term_list.terms


# ---------------------------------------------------------------------------
# top-k windows against the full-sort path
# ---------------------------------------------------------------------------

SOURCES = ("degree", "closeness", "pagerank")
TIED_STOPWORDS = frozenset({"x2"})


def full_sort_windows(table, k):
    """Frozen copy of the windows before ranking went top-k: every node
    list sorted in full by (-score, title), every title converted, the
    first occurrence of each term kept, then the first k terms."""
    def full_sort(scores):
        return sorted(scores, key=lambda title: (-scores[title], title))

    term_of = {title: term_from_title(title) for title in table.degree}
    return {
        source: list(dict.fromkeys(map(term_of.__getitem__, full_sort(getattr(table, source)))))[:k]
        for source in SOURCES
    }


def full_sort_expand(table, user_query, m, stopwords, k):
    """Frozen copy of expand_query on the full-sort windows."""
    windows = full_sort_windows(table, k)
    combined = borda_combine(list(windows.values()))
    qe_terms = filter_terms([term for term, _ in combined], user_query, stopwords)[:m]
    scores = dict(combined)
    return ExpansionResult(
        qe_terms=qe_terms,
        borda_scores={t: scores[t] for t in qe_terms},
        provenance={t: [s for s in SOURCES if t in windows[s]] for t in qe_terms},
        shortfall=len(qe_terms) < m,
    )


def assert_matches_full_sort(table, user_query, k, stopwords):
    windows = full_sort_windows(table, k)
    assert _top_k_windows(table, k) == windows
    for m in (1, 2, 5):
        assert expand_query(table, user_query, m, stopwords, k) == full_sort_expand(
            table, user_query, m, stopwords, k
        )
    assert source_term_lists(table, user_query, stopwords, k) == {
        source: ranked(source, filter_terms(window, user_query, stopwords))
        for source, window in windows.items()
    }


def assert_term_lists_match_full_sort(table):
    assert term_lists(table) == {
        source: ranked(source, terms)
        for source, terms in full_sort_windows(table, len(table.degree)).items()
    }


def test_term_lists_match_full_sort_on_every_fixture_root():
    for _, subgraph, pagerank_params in fixture_root_subgraphs():
        assert_term_lists_match_full_sort(build_table(subgraph, pagerank_params))


def stress_ks(table):
    n = len(table.degree)
    return sorted({1, 2, 100, n - 1, n, n + 5} - {0})


def test_top_k_matches_full_sort_on_tied_graphs():
    # Out-degrees of 0 to 2 tie many nodes on degree, every leaf scores
    # closeness 0, and titles collapse to one term in threes ("x3",
    # "x3 (film)", "x3 (novel)"), so ties and repeated terms sit at the cut.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    senses = ("", " (film)", " (novel)")
    title = st.builds(lambda i, sense: f"x{i}{sense}", st.integers(0, 9), st.sampled_from(senses))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        titles = data.draw(st.lists(title, min_size=1, max_size=40, unique=True))
        targets = st.lists(st.sampled_from(titles), max_size=2, unique=True)
        adjacency = {t: [x for x in data.draw(targets) if x != t] for t in titles}
        table = build_table(make_subgraph(adjacency))
        assert_term_lists_match_full_sort(table)
        for k in stress_ks(table):
            assert_matches_full_sort(table, "x1 zzz", k, TIED_STOPWORDS)

    check()


def test_top_k_matches_full_sort_on_every_fixture_query():
    config = RunConfig.load(FIXTURES / "config.json")
    source = WikiSource.from_env(snapshot_dir=config.snapshot_dir)
    stopwords = default_stopwords()
    tables = {}
    for query in (FIXTURES / "queries.txt").read_text(encoding="utf-8").splitlines():
        key = search_key(query)
        if key not in tables:
            graph = source.build_graph(query, config.crawl)
            tables[key] = build_table(graph.select_best_concept(), config.pagerank)
        for k in stress_ks(tables[key]):
            assert_matches_full_sort(tables[key], query, k, stopwords)


def test_top_k_doubles_the_prefix_when_titles_collapse(monkeypatch):
    # By degree the two best titles are "x" and "x (film)": one term, so
    # k = 2 needs a second, doubled prefix to reach the term "a".
    adjacency = {
        "x": ["a", "b", "c"],
        "x (film)": ["a", "b"],
        "x (novel)": ["a"],
        "a": [], "b": [], "c": [],
    }
    table = build_table(make_subgraph(adjacency))
    wants = []

    def recording(scores, want):
        if scores is table.degree:
            wants.append(want)
        return ranked_prefix(scores, want)

    monkeypatch.setattr(expand_module, "ranked_prefix", recording)
    assert_matches_full_sort(table, "zzz", 2, frozenset())
    assert _top_k_windows(table, 2)["degree"] == ["x", "a"]
    assert wants[:2] == [2, 4]


# ---------------------------------------------------------------------------
# thesaurus_expand
# ---------------------------------------------------------------------------

WORDNET = SynonymDictionary(
    {
        "adolescent": ["stripling", "teenage", "young"],
        "alcoholism": ["alcohol", "drink"],
        "java": ["coffee", "jdk"],
        "applet": ["widget"],
        "programming": ["coding"],
    },
    ordering="ranked",
)


def test_fcfs_two_term_query_m3():
    result = thesaurus_expand(WORDNET, "adolescent and alcoholism", m=3)
    assert result.qe_terms == ["stripling", "alcohol", "teenage"]
    assert not result.shortfall


def test_fcfs_three_term_query_m2_uses_first_two_terms_only():
    result = thesaurus_expand(WORDNET, "java and applet and programming", m=2)
    assert result.qe_terms == ["coffee", "widget"]
    assert result.provenance == {"coffee": ["java"], "widget": ["applet"]}


def test_fcfs_empty_dictionary_shortfall():
    empty = SynonymDictionary({}, ordering="ranked")
    result = thesaurus_expand(empty, "adolescent alcoholism", m=2)
    assert result.shortfall
    assert result.qe_terms == []


def test_unranked_dictionary_is_seed_deterministic():
    moby = SynonymDictionary(
        {"adolescent": ["juvenal", "minor", "youth"], "alcoholism": ["drug", "dipsomania"]},
        ordering="unranked",
    )
    first = thesaurus_expand(moby, "adolescent alcoholism", m=3, seed=0)
    second = thesaurus_expand(moby, "adolescent alcoholism", m=3, seed=0)
    other_seed = thesaurus_expand(moby, "adolescent alcoholism", m=3, seed=5)
    assert first.qe_terms == second.qe_terms
    assert len(other_seed.qe_terms) == 3


def test_synonym_file_round_trip(tmp_path):
    path = tmp_path / "syn.txt"
    path.write_text(
        "# comment line\nadolescent: stripling, teenage\nAlcoholism: alcohol\n",
        encoding="utf-8",
    )
    dictionary = SynonymDictionary.from_file(path)
    assert dictionary.lookup("ADOLESCENT") == ["stripling", "teenage"]
    assert dictionary.lookup("alcoholism") == ["alcohol"]


def test_synonym_file_rejects_missing_colon(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("just a line without separator\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.txt:1"):
        SynonymDictionary.from_file(path)


# ---------------------------------------------------------------------------
# rewrite
# ---------------------------------------------------------------------------

def test_rewrite_drops_operators_appends_terms():
    expansion = ExpansionResult(qe_terms=["alcoholic beverage"])
    assert rewrite("adolescent and alcoholism", expansion) == "adolescent alcoholism alcoholic beverage"


def test_rewrite_empty_expansion_returns_content_tokens():
    expansion = ExpansionResult(qe_terms=[])
    assert rewrite("adolescent and alcoholism", expansion) == "adolescent alcoholism"


def test_rewrite_or_query():
    expansion = ExpansionResult(qe_terms=["coding theory"])
    assert rewrite("programming or algorithm", expansion) == "programming algorithm coding theory"


# ---------------------------------------------------------------------------
# list/table plumbing
# ---------------------------------------------------------------------------

def test_ranked_term_list_rejects_duplicates_and_bad_source():
    with pytest.raises(ValueError):
        RankedTermList(source="degree", terms=["a", "a"])
    with pytest.raises(ValueError):
        RankedTermList(source="psychic", terms=["a"])


def test_term_lists_collapse_disambiguated_titles():
    adjacency = {
        "mercury (element)": ["mercury (planet)", "zinc"],
        "mercury (planet)": ["zinc"],
        "zinc": [],
    }
    lists = term_lists(build_table(make_subgraph(adjacency)))
    for term_list in lists.values():
        assert term_list.terms.count("mercury") == 1
