import pytest

from magiclab.cli import main
from magiclab.families import (
    cartesian_cycles,
    circulant,
    direct_cycles,
    wreath,
    wreath_degenerate_labeling,
    wreath_natural_labeling,
    wreath_non_sr_labeling,
    wreath_nondegenerate_labeling,
)
from magiclab.graphs import Graph, GraphError, are_isomorphic, is_vertex_transitive
from magiclab.labelings import (
    is_degenerate,
    is_distance_magic,
    is_self_reverse,
    label_set,
)
from magiclab.search import SearchOptions, find_labelings


class TestWreath:
    def test_small(self):
        g = wreath(3)
        assert g.n == 6 and g.is_regular(4) and g.is_connected()

    def test_w4_is_k44(self):
        k44 = Graph(8, [(a, 4 + b) for a in range(4) for b in range(4)])
        assert are_isomorphic(wreath(4), k44)

    def test_vertex_transitive(self):
        for m in range(3, 9):
            assert is_vertex_transitive(wreath(m))

    def test_too_small(self):
        with pytest.raises(GraphError):
            wreath(2)


class TestNaturalLabeling:
    def test_values(self):
        l = wreath_natural_labeling(3)
        assert l.labels == (1, 3, 5, -1, -3, -5)

    def test_distance_magic_range(self):
        for m in range(3, 13):
            assert is_distance_magic(wreath(m), wreath_natural_labeling(m))

    def test_always_degenerate(self):
        for m in range(3, 10):
            assert is_degenerate(wreath(m), wreath_natural_labeling(m))


class TestDegenerateFormula:
    def test_m4_first_pair(self):
        l = wreath_degenerate_labeling(4)
        assert {l.labels[0], l.labels[4]} == {-7, 7}
        assert l.labels[0] == -7  # smaller value goes to the x vertex

    def test_m8_last_pair(self):
        l = wreath_degenerate_labeling(8)
        assert {l.labels[7], l.labels[15]} == {-1, 1}

    def test_full_label_multiset(self):
        for m in (4, 8, 12):
            assert sorted(wreath_degenerate_labeling(m).labels) == list(label_set(2 * m))

    def test_signature(self):
        for m in (4, 8, 12, 16, 20):
            g, l = wreath(m), wreath_degenerate_labeling(m)
            assert is_distance_magic(g, l)
            assert is_self_reverse(g, l)
            assert is_degenerate(g, l)

    def test_rejects_non_multiples(self):
        for m in (3, 6, 10):
            with pytest.raises(GraphError):
                wreath_degenerate_labeling(m)


class TestNondegenerateFormula:
    def test_m4_explicit_pairs(self):
        l = wreath_nondegenerate_labeling(4)
        pairs = {i: {l.labels[i], l.labels[4 + i]} for i in range(4)}
        assert pairs[0] == {1, -3}
        assert pairs[3] == {-1, 3}
        assert pairs[1] == {5, -7}
        assert pairs[2] == {-5, 7}
        assert l.labels[0] == 1 and l.labels[1] == 5  # first listed value on x

    def test_signature(self):
        for m in (4, 8, 12, 16, 20):
            g, l = wreath(m), wreath_nondegenerate_labeling(m)
            assert is_distance_magic(g, l)
            assert is_self_reverse(g, l)
            assert not is_degenerate(g, l)

    def test_rejects_non_multiples(self):
        with pytest.raises(GraphError):
            wreath_nondegenerate_labeling(6)


class TestNonSelfReverseTweak:
    def test_m8_verdicts(self):
        g, l = wreath(8), wreath_non_sr_labeling(8)
        assert is_distance_magic(g, l)
        assert not is_self_reverse(g, l)

    def test_m12_verdicts(self):
        g, l = wreath(12), wreath_non_sr_labeling(12)
        assert is_distance_magic(g, l)
        assert not is_self_reverse(g, l)

    def test_m4_rejected(self):
        with pytest.raises(GraphError):
            wreath_non_sr_labeling(4)


class TestExhaustiveWreathLabelings:
    """Every distance magic labeling of W(m), m not divisible by 4, is
    self-reverse, degenerate, and satisfies the pair-sum recurrences."""

    @pytest.mark.parametrize("m", [3, 5, 6, 7])
    def test_all_labelings_self_reverse_degenerate(self, m):
        g = wreath(m)
        labelings = find_labelings(g, SearchOptions(require_self_reverse=False))
        assert labelings
        for l in labelings:
            assert is_self_reverse(g, l)
            assert is_degenerate(g, l)

    @pytest.mark.parametrize("m", [3, 5, 6, 7])
    def test_pair_sum_recurrences(self, m):
        g = wreath(m)
        for l in find_labelings(g, SearchOptions(require_self_reverse=False)):
            sums = [l.labels[i] + l.labels[m + i] for i in range(m)]
            for i in range(m):
                assert sums[(i + 2) % m] == -sums[i]
                assert sums[(i + 4) % m] == sums[i]


class TestCirculant:
    def test_known_circulants(self):
        g = circulant(24, [1, 5, -1, -5])
        assert g.is_regular(4) and g.is_connected() and is_vertex_transitive(g)
        g30 = circulant(30, [1, 4, -1, -4])
        assert g30.n == 30 and g30.is_regular(4)

    def test_cycle(self):
        g = circulant(5, [1, -1])
        assert g.is_regular(2) and g.n == 5

    def test_rejects_non_inverse_closed(self):
        with pytest.raises(GraphError):
            circulant(7, [1, 2, -1])

    def test_rejects_zero(self):
        with pytest.raises(GraphError):
            circulant(6, [0, 1, -1])

    @pytest.mark.parametrize("n", [0, -1, -6])
    def test_rejects_nonpositive_order(self, n):
        # n = 0 raised ZeroDivisionError from the residues mod n
        with pytest.raises(GraphError):
            circulant(n, [1, -1])

    def test_cli_reports_nonpositive_order(self, capsys):
        assert main(["gen", "circulant", "0", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestCycleProducts:
    def test_cartesian(self):
        g = cartesian_cycles(3, 6)
        assert g.n == 18 and g.is_regular(4) and is_vertex_transitive(g)
        assert cartesian_cycles(3, 3).is_regular(4)
        for m, k in ((3, 3), (4, 5), (5, 4)):
            assert cartesian_cycles(m, k).is_connected()

    def test_direct(self):
        g = direct_cycles(4, 4)
        assert g.is_regular(4) and not g.is_connected()
        assert direct_cycles(3, 3).is_regular(4)

    def test_rejects_short_cycles(self):
        with pytest.raises(GraphError):
            cartesian_cycles(2, 5)
        with pytest.raises(GraphError):
            direct_cycles(3, 2)


class TestArgumentTypes:
    @pytest.mark.parametrize("make, args, kind", [
        (wreath, (3.0,), "float"),
        (wreath, (True,), "bool"),
        (wreath_natural_labeling, (3.0,), "float"),
        (wreath_nondegenerate_labeling, (4.0,), "float"),
        (wreath_degenerate_labeling, (4.0,), "float"),
        (wreath_non_sr_labeling, (8.0,), "float"),
        (circulant, (5.0, [1, 2]), "float"),
        (circulant, (5, [True, 4]), "bool"),
        (cartesian_cycles, (3, "4"), "str"),
        (direct_cycles, (3, 3.0), "float"),
    ], ids=lambda x: getattr(x, "__name__", None))
    def test_arguments_are_exact_ints(self, make, args, kind):
        # floats raised a bare TypeError, or for circulant a wrong message
        # about negation, and bools passed as ints
        with pytest.raises(GraphError, match=f"must be int, got {kind}"):
            make(*args)
