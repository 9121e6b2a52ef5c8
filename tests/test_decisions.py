import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overhang.decisions import (
    ConsistencyMatrix,
    DecisionError,
    Mark,
    MarketSign,
    PreferenceSet,
    SupplyEffect,
    TerminalState,
    TerminalStateKind,
    bear_case_summary,
    consistency_matrix,
    rank_terminal_states,
    supply_effect,
)
from overhang.impact import ExecutionQuality
from overhang.ledger import SupplyLedger
from overhang.scenarios import builtin_scenarios, run_scenario, sensitivity_sweep

EXPECTED_ORDER = [
    TerminalStateKind.DORMANCY_NON_RECOVERY,
    TerminalStateKind.SILENT_BURN,
    TerminalStateKind.ADVERSARIAL_SWITCH,
    TerminalStateKind.PATIENT_LIQUIDATION,
]


@pytest.fixture
def ledger():
    return SupplyLedger.from_btc()


@pytest.fixture
def matrix():
    return consistency_matrix()


def test_matrix_is_total(matrix):
    assert len(matrix.entries) == len(PreferenceSet) * len(TerminalStateKind)


def test_builtin_matrix_is_one_shared_read_only_value(matrix):
    assert consistency_matrix() is matrix
    assert consistency_matrix(retention_variant=True) is consistency_matrix(retention_variant=True)
    key = (PreferenceSet.ADVERSARIAL, TerminalStateKind.ADVERSARIAL_SWITCH)
    with pytest.raises(TypeError):
        matrix.entries[key] = Mark.CONSISTENT
    assert matrix.mark(*key) is Mark.WEAK


def test_key_marks(matrix):
    assert (
        matrix.mark(
            PreferenceSet.IDEOLOGICAL_NON_INTERVENTION,
            TerminalStateKind.DORMANCY_NON_RECOVERY,
        )
        is Mark.CONSISTENT
    )
    assert (
        matrix.mark(
            PreferenceSet.PURE_WEALTH_MAX, TerminalStateKind.DORMANCY_NON_RECOVERY
        )
        is Mark.INCONSISTENT
    )
    assert (
        matrix.mark(PreferenceSet.ADVERSARIAL, TerminalStateKind.ADVERSARIAL_SWITCH)
        is Mark.WEAK
    )
    assert (
        matrix.mark(PreferenceSet.PURE_WEALTH_MAX, TerminalStateKind.PATIENT_LIQUIDATION)
        is Mark.WEAK
    )


def test_group_stalemate_mirrors_key_loss(matrix):
    for kind in TerminalStateKind:
        assert matrix.mark(PreferenceSet.GROUP_STALEMATE, kind) is matrix.mark(
            PreferenceSet.KEY_LOSS_INCAPACITY, kind
        )


def test_retention_variant_adds_weak_marks():
    variant = consistency_matrix(retention_variant=True)
    assert (
        variant.mark(PreferenceSet.SATISFICING_HABIT, TerminalStateKind.SILENT_BURN)
        is Mark.WEAK
    )
    assert (
        variant.mark(PreferenceSet.LEGAL_CAUTION, TerminalStateKind.SILENT_BURN)
        is Mark.WEAK
    )


def test_ranking(matrix):
    assert rank_terminal_states(matrix) == EXPECTED_ORDER


def test_ranking_with_retention_variant():
    assert rank_terminal_states(consistency_matrix(retention_variant=True)) == EXPECTED_ORDER


def test_ranking_is_insertion_order_independent(matrix):
    reversed_entries = dict(reversed(list(matrix.entries.items())))
    assert rank_terminal_states(ConsistencyMatrix(reversed_entries)) == EXPECTED_ORDER


def test_all_equal_matrix_ties_break_by_declaration_order():
    flat = ConsistencyMatrix(
        {(p, t): Mark.WEAK for p in PreferenceSet for t in TerminalStateKind}
    )
    assert rank_terminal_states(flat) == list(TerminalStateKind)


def _mark_count_ranking(matrix):
    """The ranking from each state's marks read one by one through
    matrix.mark: the reference for the one-pass tally of rank_terminal_states."""
    declaration_order = list(TerminalStateKind)

    def key(state):
        marks = [matrix.mark(p, state) for p in PreferenceSet]
        consistent = sum(m is Mark.CONSISTENT for m in marks)
        weak = sum(m is Mark.WEAK for m in marks)
        return (-consistent, -weak, declaration_order.index(state))

    return sorted(declaration_order, key=key)


@pytest.mark.parametrize("retention_variant", [False, True])
def test_ranking_matches_the_mark_count_oracle_on_builtins(retention_variant):
    matrix = consistency_matrix(retention_variant=retention_variant)
    assert rank_terminal_states(matrix) == _mark_count_ranking(matrix)


_COLUMN = st.lists(
    st.sampled_from(Mark), min_size=len(PreferenceSet), max_size=len(PreferenceSet)
)


@st.composite
def _total_matrices(draw):
    """Total matrices whose states often tie: a state may take another
    state's column of marks, shuffled over the preference sets, so the two
    hold equal counts. The entries are inserted in a drawn order."""
    columns = draw(st.lists(_COLUMN, min_size=1, max_size=len(TerminalStateKind)))
    entries = {}
    for state in TerminalStateKind:
        column = draw(st.permutations(draw(st.sampled_from(columns))))
        entries.update(((p, state), mark) for p, mark in zip(PreferenceSet, column))
    order = draw(st.permutations(list(entries)))
    return ConsistencyMatrix({key: entries[key] for key in order})


@settings(max_examples=300)
@given(matrix=_total_matrices())
def test_ranking_matches_the_mark_count_oracle(matrix):
    assert rank_terminal_states(matrix) == _mark_count_ranking(matrix)


def test_removing_burn_consistency_demotes_it(matrix):
    entries = dict(matrix.entries)
    for p in PreferenceSet:
        if entries[(p, TerminalStateKind.SILENT_BURN)] is Mark.CONSISTENT:
            entries[(p, TerminalStateKind.SILENT_BURN)] = Mark.INCONSISTENT
    ranking = rank_terminal_states(ConsistencyMatrix(entries))
    assert ranking.index(TerminalStateKind.SILENT_BURN) > ranking.index(
        TerminalStateKind.ADVERSARIAL_SWITCH
    )


def test_incomplete_matrix_rejected(matrix):
    entries = dict(matrix.entries)
    entries.pop((PreferenceSet.ADVERSARIAL, TerminalStateKind.SILENT_BURN))
    with pytest.raises(DecisionError):
        ConsistencyMatrix(entries)


def test_matrix_with_entries_beyond_the_pairs_rejected(matrix):
    # the one-pass ranking tallies every entry, so a stray key would be counted
    entries = dict(matrix.entries)
    entries[("ghost", TerminalStateKind.PATIENT_LIQUIDATION)] = Mark.CONSISTENT
    with pytest.raises(DecisionError, match="beyond"):
        ConsistencyMatrix(entries)


def test_burn_retention_bounds():
    TerminalState(TerminalStateKind.SILENT_BURN, retention_fraction=0.01)
    with pytest.raises(DecisionError):
        TerminalState(TerminalStateKind.SILENT_BURN, retention_fraction=0.2)
    with pytest.raises(DecisionError):
        TerminalState(TerminalStateKind.DORMANCY_NON_RECOVERY, retention_fraction=0.01)


def test_supply_effect_burn_with_retention(ledger):
    state = TerminalState(TerminalStateKind.SILENT_BURN, retention_fraction=0.01)
    effect = supply_effect(state, ledger, bear_bound=-0.25)
    assert effect.delta_effective_float == pytest.approx(-1_136_520)
    assert effect.market_sign is MarketSign.BULLISH


def test_supply_effect_dormancy(ledger):
    effect = supply_effect(
        TerminalState(TerminalStateKind.DORMANCY_NON_RECOVERY), ledger, -0.25
    )
    assert effect.delta_effective_float == pytest.approx(-1.148e6)
    assert effect.market_sign is MarketSign.BULLISH
    assert effect.bound is None


@pytest.mark.parametrize(
    "kind", [TerminalStateKind.DORMANCY_NON_RECOVERY, TerminalStateKind.SILENT_BURN]
)
def test_supply_effect_removes_a_position_that_is_the_whole_float(kind):
    # burning the whole float leaves no valid ledger, so the effect must not build one
    ledger = SupplyLedger.from_btc(total_mined=10, lost_estimate=4, position=6)
    effect = supply_effect(TerminalState(kind), ledger, -0.25)
    assert effect.delta_effective_float == -6.0
    assert effect.market_sign is MarketSign.BULLISH


def test_supply_effect_liquidation_is_bearish_with_bound(ledger):
    effect = supply_effect(
        TerminalState(TerminalStateKind.PATIENT_LIQUIDATION), ledger, -0.25
    )
    assert effect.market_sign is MarketSign.BEARISH
    assert effect.bound == pytest.approx(-0.25)
    assert effect.delta_effective_float == pytest.approx(1.148e6)


def test_supply_effect_conserves_position(ledger):
    for kind in TerminalStateKind:
        effect = supply_effect(TerminalState(kind), ledger, -0.25)
        assert abs(effect.delta_effective_float) <= ledger.position + 1e-9


def test_top_two_states_converge_on_supply_outcome(ledger, matrix):
    top_two = rank_terminal_states(matrix)[:2]
    retention = 0.01
    deltas = []
    for kind in top_two:
        r = retention if kind is TerminalStateKind.SILENT_BURN else 0.0
        deltas.append(
            supply_effect(TerminalState(kind, r), ledger, -0.25).delta_effective_float
        )
    assert abs(deltas[0] - deltas[1]) <= ledger.position * retention + 1e-9


def test_bearish_effect_requires_bound():
    with pytest.raises(DecisionError):
        SupplyEffect(1.0, MarketSign.BEARISH, bound=None)


@pytest.mark.parametrize("bound", [float("nan"), float("-inf"), 0.5, -1.5])
def test_bearish_bound_must_be_finite_and_in_unit_interval(bound):
    with pytest.raises(DecisionError):
        SupplyEffect(1.0, MarketSign.BEARISH, bound=bound)
    assert SupplyEffect(1.0, MarketSign.BEARISH, bound=-1.0).bound == -1.0
    assert SupplyEffect(1.0, MarketSign.BEARISH, bound=0.0).bound == 0.0


def test_bear_case_summary_requires_scenario_results(ledger, matrix):
    with pytest.raises(DecisionError, match="^scenario results required$"):
        bear_case_summary(matrix, ledger, [])


def test_bear_case_summary(ledger, matrix):
    results = [run_scenario(s, ledger) for s in builtin_scenarios()]
    report = bear_case_summary(matrix, ledger, results)
    assert report.worst_case_bound[0] == pytest.approx(-0.25, abs=0.006)
    assert [e.market_sign for e in report.effects] == [
        MarketSign.BULLISH, MarketSign.BULLISH, MarketSign.BEARISH, MarketSign.BEARISH
    ]
    for kind, effect in zip(report.ranking, report.effects):
        assert effect == supply_effect(TerminalState(kind), ledger, report.worst_case_bound[0])
        if effect.market_sign is MarketSign.BEARISH:
            assert effect.bound == report.worst_case_bound[0]


def test_bear_case_summary_zero_position(matrix):
    ledger = SupplyLedger.from_btc(position=0)
    for kind in TerminalStateKind:
        effect = supply_effect(TerminalState(kind), ledger, -0.25)
        assert effect.delta_effective_float == 0.0
        assert effect.market_sign is MarketSign.NEUTRAL


@settings(max_examples=60)
@given(
    position=st.floats(1e4, 2e6),
    epsilons=st.lists(st.floats(0.3, 1.5), min_size=1, max_size=4),
    qualities=st.lists(st.sampled_from(ExecutionQuality), min_size=1, max_size=3),
    horizons=st.lists(st.floats(2.0, 30.0), min_size=1, max_size=4),
)
def test_bear_bound_is_the_first_minimal_sweep_total(position, epsilons, qualities, horizons):
    ledger = SupplyLedger.from_btc(position=position)
    results = sensitivity_sweep(ledger, epsilons, qualities, horizons).results
    report = bear_case_summary(consistency_matrix(), ledger, results)
    assert report.worst_case_bound is min(results, key=lambda r: r.total[0]).total


def test_bear_bound_takes_the_first_of_tied_totals(ledger, matrix):
    """Totals tied on their low end: the first one is the bound, as the
    keyed min over the results finds, whatever its high end."""
    cell = run_scenario(builtin_scenarios()[2], ledger)
    low = cell.total[0]
    results = [cell._replace(total=total) for total in
               [(low + 0.01, -0.01), (low, low + 0.02), (low, low + 0.01), (low, low + 0.03)]]
    report = bear_case_summary(matrix, ledger, results)
    assert report.worst_case_bound is results[1].total
