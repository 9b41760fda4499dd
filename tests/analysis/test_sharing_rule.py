"""redundant-structure: detectors must route through the sharing plane."""

import textwrap

from repro.analysis import analyze_source

DETECTOR_PATH = "src/repro/detectors/fixture.py"


def run(source, path=DETECTOR_PATH):
    return analyze_source(
        textwrap.dedent(source), path, rules=["redundant-structure"]
    )


BAD_FIT = """
from repro.neighbors import NearestNeighbors

class Leaky:
    def _fit(self, X):
        nn = NearestNeighbors(n_neighbors=self.n_neighbors)
        nn.fit(X)
        dist, _ = nn.kneighbors(X, exclude_self=True)
        return dist[:, -1]
"""

# The corrected twin: same detector, neighbors requested through the
# sharing plane so the share stage can fold the build.
GOOD_FIT = """
from repro.neighbors import neighbors_for_fit

class Shared:
    def _fit(self, X):
        dist, _ = neighbors_for_fit(
            self, X, n_neighbors=self.n_neighbors, metric=self.metric
        )
        return dist[:, -1]
"""


def test_inline_nn_in_fit_flagged():
    found = run(BAD_FIT)
    assert [f.rule for f in found] == ["redundant-structure"]
    assert "NearestNeighbors" in found[0].message
    assert "_fit" in found[0].message
    assert "neighbors_for_fit" in found[0].hint


def test_corrected_twin_is_clean():
    assert run(GOOD_FIT) == []


def test_inline_kdtree_in_decision_function_flagged():
    bad = """
    from repro.neighbors.kdtree import KDTree

    class Leaky:
        def decision_function(self, X):
            tree = KDTree(self._train)
            dist, _ = tree.query(X, self.n_neighbors)
            return dist.mean(axis=1)
    """
    found = run(bad)
    assert [f.rule for f in found] == ["redundant-structure"]
    assert "KDTree" in found[0].message


def test_helper_nested_in_scoring_path_flagged():
    # A closure inside _score still runs on the scoring path.
    bad = """
    from repro.neighbors import NearestNeighbors

    class Leaky:
        def _score(self, X):
            def query(block):
                return NearestNeighbors(5).fit(self._train).kneighbors(block)
            return query(X)[0][:, -1]
    """
    found = run(bad)
    assert [f.rule for f in found] == ["redundant-structure"]


def test_construction_outside_scoring_path_is_clean():
    # __init__ / module level / arbitrary helpers are not scoring paths.
    good = """
    from repro.neighbors import NearestNeighbors

    _PROBE = NearestNeighbors(1)

    class Fine:
        def __init__(self):
            self._nn = NearestNeighbors(5)

        def warm_cache(self, X):
            return NearestNeighbors(3).fit(X)
    """
    assert run(good) == []


def test_non_detector_paths_are_clean():
    # The sharing plane itself builds these structures — that's its job.
    assert run(BAD_FIT, path="src/repro/neighbors/shared.py") == []
    assert run(BAD_FIT, path="src/repro/pipeline/sharing.py") == []


def test_pragma_suppresses_with_justification():
    justified = """
    from repro.neighbors import NearestNeighbors

    class Special:
        def _fit(self, X):
            # repro: allow[redundant-structure] -- per-fold trees on bootstrap resamples; keys never collide
            nn = NearestNeighbors(5)
            return nn.fit(X)
    """
    assert run(justified) == []
