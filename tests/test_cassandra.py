import numpy as np
import pytest

from psrplan import cli
from psrplan.cassandra import DEFAULT_REWARD_CAP, load_pomdp, parse_pomdp
from psrplan.errors import ParseError, UnsupportedConstructError, ValidationError


def test_fair_coin_file(fair_coin):
    m = fair_coin
    assert m.n == 1
    assert m.actions == ["flip"]
    assert m.observations == ["heads", "tails"]
    np.testing.assert_allclose(m.signal_kernel.sum(axis=2), 1.0)
    # single reward value 0.5 already sits in [0,1]: no rescaling
    np.testing.assert_allclose(m.reward_values, [0.5])
    assert m.reward_scale == 1.0 and m.reward_offset == 0.0


def test_tiger_shape_and_normalization(tiger):
    m = tiger
    assert m.n == 2 and m.n_actions == 3 and m.n_observations == 2
    # raw rewards {-100, -1, 10} map affinely onto [0, 1]
    assert m.reward_scale == pytest.approx(110.0)
    assert m.reward_offset == pytest.approx(-100.0)
    np.testing.assert_allclose(m.reward_values, [0.0, 0.9, 1.0])
    raw = m.reward_values * m.reward_scale + m.reward_offset
    np.testing.assert_allclose(np.sort(raw), [-100.0, -1.0, 10.0])
    np.testing.assert_allclose(m.initial_belief, [0.5, 0.5])


BAD_ROW = """
discount: 0.9
values: reward
states: s0 s1
actions: go
observations: o0
T: go : s0 : s1 0.9
T: go : s1 : s1 1.0
O: go uniform
"""


def test_substochastic_row_names_state_and_action():
    with pytest.raises(ValidationError) as err:
        parse_pomdp(BAD_ROW)
    assert "s0" in str(err.value) and "go" in str(err.value)


def test_cost_files_rejected():
    text = BAD_ROW.replace("values: reward", "values: cost")
    with pytest.raises(UnsupportedConstructError, match="cost"):
        parse_pomdp(text)


MATRIX_FORMS = """
discount: 0.5
values: reward
states: 3
actions: fwd spin
observations: low high
start exclude: s1

T: fwd
0.1 0.2 0.7
0.3 0.3 0.4
0.0 0.5 0.5
T: spin uniform
O: fwd
0.9 0.1
0.2 0.8
0.5 0.5
O: spin : * uniform
R: fwd : * : s2 : * 1.0
"""


def test_matrix_row_and_keyword_forms():
    m = parse_pomdp(MATRIX_FORMS)
    np.testing.assert_allclose(m.transition[:, 0, :],
                               [[0.1, 0.2, 0.7], [0.3, 0.3, 0.4], [0.0, 0.5, 0.5]])
    np.testing.assert_allclose(m.transition[:, 1, :], np.full((3, 3), 1 / 3))
    # start exclude drops s1, leaving uniform mass on s0 and s2
    np.testing.assert_allclose(m.initial_belief, [0.5, 0.0, 0.5])
    # spin's observation kernel is uniform over two observations
    np.testing.assert_allclose(m.signal_kernel[:, 1, :].sum(axis=1), 1.0)


def test_start_single_state_and_vector():
    base = MATRIX_FORMS.replace("start exclude: s1", "start: s2")
    m = parse_pomdp(base)
    np.testing.assert_allclose(m.initial_belief, [0.0, 0.0, 1.0])
    base = MATRIX_FORMS.replace("start exclude: s1", "start: 0.2 0.3 0.5")
    m = parse_pomdp(base)
    np.testing.assert_allclose(m.initial_belief, [0.2, 0.3, 0.5])
    # within the one stochasticity tolerance, as validate() allows, and read
    # as 0, as the filter needs
    base = MATRIX_FORMS.replace("start exclude: s1", "start: 0.5 0.5 -1e-10")
    m = parse_pomdp(base)
    np.testing.assert_allclose(m.initial_belief, [0.5, 0.5, 0.0])


@pytest.mark.parametrize("start", ["0.5 0.5 -1e-8", "0.2 0.3 0.500000002"])
def test_start_vector_past_the_tolerance_exits_2(start, tmp_path, capsys):
    path = tmp_path / "m.POMDP"
    path.write_text(MATRIX_FORMS.replace("start exclude: s1", f"start: {start}"), encoding="utf-8")
    assert cli.main(["plan", str(path)]) == 2
    assert "start belief is not a probability vector" in capsys.readouterr().err


ONE_STATE = (
    "discount: 0.9\nvalues: reward\nstates: 1\nactions: 1\nobservations: 1\n"
    "start: 0\nT: * uniform\nO: * uniform\nR: * : * : * : * 1.0\n"
)


@pytest.mark.parametrize("start", ["0", "1", "s0", "uniform", "include: 0"])
def test_one_state_start_by_index_name_or_vector(start):
    # "0" names the one state; "1" is the one-entry probability vector
    m = parse_pomdp(ONE_STATE.replace("start: 0", f"start: {start}"))
    np.testing.assert_array_equal(m.initial_belief, [1.0])


def test_start_index_past_the_states_is_unknown():
    text = ONE_STATE.replace("states: 1", "states: 2").replace("start: 0", "start: 2")
    with pytest.raises(ParseError, match="unknown state '2'") as err:
        parse_pomdp(text)
    assert err.value.line == 6


def test_parse_error_carries_line_number():
    text = "discount: 0.9\nvalues: reward\nstates: 2\nactions: 1\nobservations: 1\nT: a0 : s0 : s9 1.0\n"
    with pytest.raises(ParseError) as err:
        parse_pomdp(text)
    assert err.value.line == 6
    assert "s9" in str(err.value)


def test_unknown_directive_rejected():
    with pytest.raises(ParseError):
        parse_pomdp("nonsense: 1\n" + BAD_ROW)


def test_entries_before_declarations_rejected():
    text = "discount: 0.9\nT: 0 : 0 : 0 1.0\nstates: 1\nactions: 1\nobservations: 1\n"
    with pytest.raises(ParseError, match="before"):
        parse_pomdp(text)


DEPARTURE_REWARD = """
discount: 0.9
values: reward
states: s0 s1
actions: go
observations: o0
T: go uniform
O: go uniform
R: go : s0 : * : * 1.0
R: go : s1 : * : * 5.0
"""


def test_departing_state_rewards_rejected():
    with pytest.raises(ValidationError, match="departing"):
        parse_pomdp(DEPARTURE_REWARD)


def test_reward_cap_enforced():
    def text(n, no):
        # n * no distinct rewards: one per (arriving state, observation)
        rows = "".join(
            f"R: * : * : s{s} {' '.join(str(no * s + o) for o in range(no))}\n"
            for s in range(n)
        )
        return (
            f"discount: 0.9\nvalues: reward\nstates: {n}\nactions: 1\nobservations: {no}\n"
            f"T: * uniform\nO: * uniform\n{rows}"
        )

    assert parse_pomdp(text(8, 8)).n_rewards == DEFAULT_REWARD_CAP == 64
    with pytest.raises(ValidationError, match="65 distinct reward values, above the cap of 64"):
        parse_pomdp(text(5, 13))


def test_rewards_already_normalized_keep_identity_map():
    text = (
        "discount: 0.9\nvalues: reward\nstates: 2\nactions: 1\nobservations: 2\n"
        "T: * uniform\nO: * uniform\n"
        "R: * : * : s0 : * 0.25\nR: * : * : s1 : * 0.75\n"
    )
    m = parse_pomdp(text)
    np.testing.assert_allclose(m.reward_values, [0.25, 0.75])
    assert m.reward_scale == 1.0 and m.reward_offset == 0.0


def test_missing_discount_rejected():
    with pytest.raises(ParseError, match="discount"):
        parse_pomdp("values: reward\nstates: 1\nactions: 1\nobservations: 1\nT: * uniform\nO: * uniform\n")


NON_FINITE_BASE = (
    "discount: 0.9\nvalues: reward\nstates: 2\nactions: 1\nobservations: 1\n"
    "start: uniform\nT: * uniform\nO: * uniform\nR: * : * : * : * 1.0\n"
)


@pytest.mark.parametrize(
    "old, new, line",
    [
        ("discount: 0.9", "discount: nan", 1),
        ("start: uniform", "start: nan 1.0", 6),
        ("start: uniform", "start: 0.5 inf", 6),
        ("T: * uniform", "T: * : * : s0 nan", 7),
        ("T: * uniform", "T: * : *\n0.5 -inf", 7),
        ("O: * uniform", "O: * : * : * 1e999", 8),
        ("R: * : * : * : * 1.0", "R: * : * : * : * nan", 9),
        ("R: * : * : * : * 1.0", "R: * : * : * : * inf", 9),
        ("R: * : * : * : * 1.0", "R: * : *\n1.0\nNaN", 9),
    ],
)
def test_non_finite_numbers_rejected_with_line(old, new, line):
    text = NON_FINITE_BASE.replace(old, new)
    with pytest.raises(ParseError, match="non-finite number") as err:
        parse_pomdp(text)
    assert err.value.line == line


def test_number_parse_error_names_the_token():
    text = NON_FINITE_BASE.replace("R: * : * : * : * 1.0", "R: * : * : * : * 1.0x")
    with pytest.raises(ParseError) as err:
        parse_pomdp(text)
    assert str(err.value) == (
        "line 9: reward entry: could not convert string to float: '1.0x'"
    )


def test_later_entries_override_earlier_ones_in_file_order():
    text = (
        "discount: 0.9\nvalues: reward\nstates: 3\nactions: 2\nobservations: 2\n"
        "T: * : * : * 0.0\nT: * : * : s1 1.0\nT: a1 : s2 : * 0.0\nT: a1 : s2 : s0 1.0\n"
        "O: a0 : s1 : o0 1.0\nO: * uniform\nO: a1 : * : * 0.0\nO: a1 : * : o1 1.0\n"
        "R: * : * : * : * 2.0\nR: a1 : * : s0 : o1 -1.0\n"
    )
    m = parse_pomdp(text)
    want_t = np.zeros((3, 2, 3))
    want_t[:, :, 1] = 1.0
    want_t[2, 1] = [1.0, 0.0, 0.0]
    np.testing.assert_array_equal(m.transition, want_t)
    # raw rewards {-1, 2} map to {0, 1}; z = observation * 2 + reward.  Under
    # a0 only s1 is reachable; unreachable arriving states take reward 0.
    np.testing.assert_array_equal(m.reward_values, [0.0, 1.0])
    np.testing.assert_array_equal(
        m.signal_kernel[:, 0], [[0.5, 0, 0.5, 0], [0, 0.5, 0, 0.5], [0.5, 0, 0.5, 0]]
    )
    np.testing.assert_array_equal(m.signal_kernel[0, 1], [0, 0, 1, 0])
    np.testing.assert_array_equal(m.signal_kernel[1, 1], [0, 0, 0, 1])


DIRECTIVE_BASE = (
    "discount: 0.9\nvalues: reward\nstates: 2\nactions: 1\nobservations: 2\n"
    "start: uniform\nT: * uniform\nO: * uniform\nR: * : * : * : * 1.0\n"
)


@pytest.mark.parametrize(
    "old, new, line",
    [
        # a misspelled keyword after the preamble, once read as observation names
        ("start: uniform", "Start: uniform", 6),
        # after a T/O entry, once read as its body and refused at the entry's line
        ("O: * uniform", "O: * uniform\nobs: 1", 9),
        ("discount: 0.9", "dicsount: 0.9", 1),
        ("T: * uniform", "T: * uniform\n  Tr : 0.5", 8),
    ],
)
def test_a_misspelled_directive_is_refused_at_its_own_line(old, new, line):
    text = DIRECTIVE_BASE.replace(old, new)
    word = new.split("\n")[-1].split(":")[0].strip()
    with pytest.raises(ParseError) as err:
        parse_pomdp(text)
    assert str(err.value) == f"line {line}: unrecognized directive '{word}'"


@pytest.mark.parametrize(
    "extra, keyword, first",
    [
        ("states: 3", "states", 3),
        ("start: 1.0 0.0", "start", 6),
        ("discount: 0.5", "discount", 1),
        ("values: reward", "values", 2),
        ("actions: 1", "actions", 4),
        ("observations: o0 o1", "observations", 5),
    ],
)
def test_a_second_declaration_is_refused_at_its_line(extra, keyword, first):
    # after the entries: a second 'states: 3' once stretched the uniform
    # entries to three states, and a second 'start' silently won
    text = DIRECTIVE_BASE + extra + "\n"
    with pytest.raises(ParseError) as err:
        parse_pomdp(text)
    assert str(err.value) == (
        f"line 10: second '{keyword}' declaration; the first is on line {first}"
    )


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_load_reads_crlf_and_cr_line_ends(tmp_path, newline):
    want = parse_pomdp(MATRIX_FORMS)
    path = tmp_path / "m.POMDP"
    path.write_bytes(MATRIX_FORMS.replace("\n", newline).encode())
    got = load_pomdp(path)
    for name in ("transition", "signal_kernel", "initial_belief", "reward_values"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    # line numbers count each line end once
    path.write_bytes(MATRIX_FORMS.replace("T: spin", "T: bad").replace("\n", newline).encode())
    with pytest.raises(ParseError, match="unknown action 'bad'") as err:
        load_pomdp(path)
    assert err.value.line == 13
