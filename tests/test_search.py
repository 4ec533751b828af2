import pytest

from magiclab.families import cartesian_cycles, circulant, wreath
from magiclab.graphs import Graph, are_isomorphic, canonical_code
from magiclab.labelings import (
    is_degenerate,
    is_distance_magic,
    is_self_reverse,
    label_graph,
)
from magiclab.search import (
    EnumerationReport,
    SearchError,
    SearchOptions,
    enumerate_dm,
    enumerate_sr,
    find_labelings,
    iter_sr_pairs,
    table1_report,
)

from oracle import (
    lg_connected,
    lg_degenerate,
    lg_self_reverse,
    naive_dm_label_graphs,
)


def lg_edges(g, l):
    return frozenset(label_graph(g, l).edges)


class TestEnumerateSrSmall:
    def test_counts_16_and_17(self):
        _, rep16 = enumerate_sr(16, SearchOptions(require_nondegenerate=True))
        assert (rep16.sr_count, rep16.iso_class_count, rep16.vt_count) == (48, 1, 1)
        _, rep17 = enumerate_sr(17, SearchOptions(require_nondegenerate=True))
        assert rep17.sr_count == 0

    def test_every_emission_passes_predicates(self):
        pairs, _ = enumerate_sr(14, SearchOptions(require_nondegenerate=False))
        assert pairs
        for g, l in pairs:
            assert g.is_connected()
            assert g.is_regular(4)
            assert is_distance_magic(g, l)
            assert is_self_reverse(g, l)

    def test_emissions_are_distinct_label_graphs(self):
        pairs, rep = enumerate_sr(16, SearchOptions(require_nondegenerate=True))
        keys = {lg_edges(g, l) for g, l in pairs}
        assert len(keys) == rep.sr_count

    def test_sorted_output(self):
        pairs, _ = enumerate_sr(12, SearchOptions())
        keys = [tuple(sorted(lg_edges(g, l))) for g, l in pairs]
        assert keys == sorted(keys)

    def test_order_too_small(self):
        with pytest.raises(SearchError):
            enumerate_sr(4)


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [6, 8, 10, 12])
    def test_matches_naive_oracle(self, n):
        naive = naive_dm_label_graphs(n)
        sr = {e for e in naive if lg_self_reverse(e) and lg_connected(e, n)}
        sr_nd = {e for e in sr if not lg_degenerate(e)}
        for flag, expected in ((False, sr), (True, sr_nd)):
            pairs, _ = enumerate_sr(n, SearchOptions(require_nondegenerate=flag))
            assert {lg_edges(g, l) for g, l in pairs} == expected

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_enumerate_dm_matches_naive_oracle(self, n):
        naive = {e for e in naive_dm_label_graphs(n) if lg_connected(e, n)}
        pairs, _ = enumerate_dm(n)
        assert {lg_edges(g, l) for g, l in pairs} == naive


class TestThreadDeterminism:
    @pytest.mark.parametrize("n", [12, 14])
    def test_reports_and_results_identical(self, n):
        reference = None
        for budget in (1, 2, 8):
            pairs, rep = enumerate_sr(
                n, SearchOptions(require_nondegenerate=False, thread_budget=budget)
            )
            sig = [(tuple(g.edges()), l.labels) for g, l in pairs]
            if reference is None:
                reference = (sig, rep)
            else:
                assert sig == reference[0]
                assert rep == reference[1]


class TestEnumerateDm:
    def test_order_12_unique_nonwreath(self):
        pairs, _ = enumerate_dm(12)
        nonwreath = {
            canonical_code(g) for g, _ in pairs if not are_isomorphic(g, wreath(6))
        }
        assert len(nonwreath) == 1

    def test_order_14_unique_nonwreath(self):
        pairs, _ = enumerate_dm(14)
        nonwreath = {
            canonical_code(g) for g, _ in pairs if not are_isomorphic(g, wreath(7))
        }
        assert len(nonwreath) == 1

    def test_cap(self):
        with pytest.raises(SearchError):
            enumerate_dm(18)


class TestFindLabelings:
    def test_k5_empty(self):
        k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert find_labelings(k5, SearchOptions(require_self_reverse=False)) == []

    def test_wreath3_unique_class(self):
        labs = find_labelings(wreath(3), SearchOptions(require_self_reverse=False))
        assert len(labs) == 1

    def test_wreath6_sr_count_matches_closed_form(self):
        labs = find_labelings(wreath(6), SearchOptions(require_self_reverse=True))
        assert len(labs) == 60  # (6-1)!/2 circular magnitude arrangements

    def test_sr_mode_agrees_with_dm_mode_filter(self):
        g = wreath(5)
        via_dm = {
            lg_edges(g, l)
            for l in find_labelings(g, SearchOptions(require_self_reverse=False))
            if is_self_reverse(g, l)
        }
        via_sr = {
            lg_edges(g, l)
            for l in find_labelings(g, SearchOptions(require_self_reverse=True))
        }
        assert via_sr == via_dm

    def test_named_graphs_have_sr_labelings(self):
        for g in (cartesian_cycles(3, 6), circulant(24, [1, 5, -1, -5])):
            found = find_labelings(
                g, SearchOptions(require_self_reverse=True), max_results=1
            )
            assert len(found) == 1
            assert is_self_reverse(g, found[0])

    def test_results_verified_and_deduplicated(self):
        g = wreath(6)
        labs = find_labelings(g, SearchOptions(require_self_reverse=True))
        keys = {lg_edges(g, l) for l in labs}
        assert len(keys) == len(labs)
        for l in labs[:10]:
            assert is_distance_magic(g, l)

    def test_matches_quotient_enumeration_on_fixed_graph(self):
        # dual-route check: classes on C3 x C6 from the fixed-graph search
        # equal the order-18 enumeration restricted to that graph
        g18 = cartesian_cycles(3, 6)
        direct = {
            lg_edges(g18, l)
            for l in find_labelings(
                g18,
                SearchOptions(require_self_reverse=True, require_nondegenerate=True),
            )
        }
        pairs, _ = enumerate_sr(18, SearchOptions(require_nondegenerate=True))
        via_enum = {
            lg_edges(g, l) for g, l in pairs if are_isomorphic(g, g18)
        }
        assert direct == via_enum


class TestLazyStream:
    def test_prefix_of_full_run(self):
        stream = iter_sr_pairs(12, SearchOptions(require_nondegenerate=False))
        first = next(stream)
        assert is_distance_magic(first[0], first[1])

    def test_rejects_non_sr_options(self):
        with pytest.raises(SearchError):
            next(iter_sr_pairs(12, SearchOptions(require_self_reverse=False)))


class TestTimeLimit:
    def test_partial_report_flagged(self):
        _, rep = enumerate_sr(22, SearchOptions(require_nondegenerate=True, time_limit=0.05))
        assert not rep.complete
        assert rep.elapsed < 1.0

    def test_bad_options(self):
        with pytest.raises(SearchError):
            SearchOptions(time_limit=-1)
        with pytest.raises(SearchError):
            SearchOptions(thread_budget=0)
        with pytest.raises(SearchError):
            SearchOptions(valence=3)


class TestTable1:
    def test_rows_16_17(self):
        table = table1_report(16, 17)
        assert table.rows == [(16, 48, 1, 1), (17, 0, 0, 0)]
        assert table.complete

    def test_small_order_golden_values(self):
        # orders 5..15: no odd-order classes exist, even orders carry only
        # the wreath classes; values frozen from a verified run
        table = table1_report(5, 15)
        got = {n: sr for n, sr, _, _ in table.rows}
        assert all(got[n] == 0 for n in range(5, 16, 2))
        assert got[8] == 1
        assert got[6] == got[10] == got[12] == got[14] == 0

    def test_text_rendering(self):
        table = table1_report(16, 16)
        text = table.to_text()
        assert "#SR" in text and " 48 " in text + " "

    def test_bad_range(self):
        with pytest.raises(SearchError):
            table1_report(4, 10)


class TestReportSemantics:
    def test_equality_ignores_elapsed(self):
        a = EnumerationReport(10, 1, 1, 1, True, elapsed=0.5)
        b = EnumerationReport(10, 1, 1, 1, True, elapsed=9.9)
        assert a == b

    def test_counts_monotone(self):
        for n in (12, 16, 18):
            _, rep = enumerate_sr(n, SearchOptions(require_nondegenerate=True))
            assert rep.sr_count >= rep.iso_class_count >= rep.vt_count >= 0


class TestSpecInvariants:
    def test_degenerate_implies_wreath_over_all_dm(self):
        # every degenerate self-reverse instance among all distance magic
        # label graphs of orders <= 14 lives on a wreath graph
        for n in (8, 10, 12, 14):
            pairs, _ = enumerate_dm(n)
            m = n // 2
            for g, l in pairs:
                if is_self_reverse(g, l) and is_degenerate(g, l):
                    assert are_isomorphic(g, wreath(m))

    def test_connectivity_flag(self):
        kept, _ = enumerate_sr(16, SearchOptions(require_nondegenerate=True))
        loose, _ = enumerate_sr(
            16,
            SearchOptions(require_nondegenerate=True, require_connected=False),
        )
        assert len(loose) > len(kept)
        assert any(not g.is_connected() for g, _ in loose)
        assert all(g.is_connected() for g, _ in kept)

    def test_counts_follow_existence_theorem(self):
        # nondegenerate classes exist exactly at 8, 16, 18 within 5..18
        for n in range(5, 19):
            _, rep = enumerate_sr(n, SearchOptions(require_nondegenerate=True))
            assert (rep.sr_count > 0) == (n in (8, 16, 18))

    def test_enumerate_dm_16_unique_nonwreath(self):
        pairs, _ = enumerate_dm(16)
        nonwreath = {
            canonical_code(g) for g, _ in pairs if not are_isomorphic(g, wreath(8))
        }
        assert len(nonwreath) == 1
        # piggyback on the expensive run: degenerate self-reverse instances
        # at order 16 also live on the wreath graph only
        for g, l in pairs:
            if is_self_reverse(g, l) and is_degenerate(g, l):
                assert are_isomorphic(g, wreath(8))

    def test_reverse_equivalence_over_all_dm(self):
        from magiclab.labelings import are_equivalent
        for n in (8, 10, 12):
            pairs, _ = enumerate_dm(n)
            for g, l in pairs:
                assert are_equivalent(g, l, g, l.reverse()) == is_self_reverse(g, l)
